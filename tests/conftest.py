import sys
from pathlib import Path

import pytest

# make the shared oracles importable regardless of the pytest rootdir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True, scope="module")
def _cold_library_caches():
    """Leave the library's memo caches empty after each test module, so a
    later module (the tracer self-test counts polynomial products, say)
    does not depend on which modules ran before it."""
    yield
    for name, module in list(sys.modules.items()):
        if name.startswith("cumulantcalc"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
