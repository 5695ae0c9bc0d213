"""Resource limits shared by the library and the CLI.

Every exhaustive enumeration in this package is guarded by a size limit so
that a typo on the command line cannot start a week-long computation.  The
defaults are chosen so that every exhaustive check finishes in minutes on a
laptop.  Each limit can be overridden, in order of precedence:

1. an explicit ``limit=`` argument (the CLI forwards ``--limit``),
2. an environment variable ``CUMULANTCALC_MAX_<KEY>`` (dashes become
   underscores, e.g. ``CUMULANTCALC_MAX_NONCROSSING=14``),
3. the built-in default below.
"""

from __future__ import annotations

import os

ENV_PREFIX = "CUMULANTCALC_MAX_"

#: Default maximum n (or block count, for the beta keys) per guarded task.
DEFAULT_LIMITS = {
    "all": 10,
    "noncrossing": 12,
    "interval": 16,
    "irreducible": 10,
    "connected": 10,
    "irreducible-noncrossing": 12,
    "connected-noncrossing": 12,
    "monotone": 8,
    "graph-vertices": 8,
    "beta-blocks": 10,
    "cumulant-classical": 8,
    "cumulant-other": 9,
}


class ResourceLimitError(RuntimeError):
    """Raised when a requested enumeration exceeds its configured limit."""


#: the environment variable of each key, looked up on every check
_ENV_NAMES = {key: ENV_PREFIX + key.upper().replace("-", "_") for key in DEFAULT_LIMITS}


def limit_for(key: str, override: int | None = None) -> int:
    """Resolve the limit for `key` (see DEFAULT_LIMITS for valid keys)."""
    if override is not None:
        return int(override)
    env = os.environ.get(_ENV_NAMES[key])
    if env is not None:
        return int(env)
    return DEFAULT_LIMITS[key]


def check_limit(key: str, n: int, override: int | None = None) -> None:
    """Raise ResourceLimitError when n exceeds the configured limit."""
    bound = limit_for(key, override)
    if n > bound:
        raise ResourceLimitError(
            f"n={n} exceeds the configured limit {bound} for {key!r}; "
            f"raise it via {_ENV_NAMES[key]} "
            f"or an explicit limit argument"
        )
