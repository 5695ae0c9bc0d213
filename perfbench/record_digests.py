"""Write `expected_digests.json`: the SHA-256 of each fixed op's stdout.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right; `run.py`
then fails any op whose stdout differs.  Convert chains depend on the
seed and are checked by their round trip instead.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, WORK, run_child
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        for workload in WORKLOADS:
            child = run_child(workload, 0, workdir)
            cold, warm = child["passes"]
            for a, b in zip(cold["ops"], warm["ops"]):
                if a["code"] != 0 or b["code"] != 0 or a["digest"] != b["digest"]:
                    print(f"error: {a['key']} failed or differs between passes",
                          file=sys.stderr)
                    return 1
                if not a.get("convert"):
                    digests[a["key"]] = a["digest"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
