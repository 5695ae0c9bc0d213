"""Resource limits shared by the library and the CLI.

Every exhaustive enumeration in this package is guarded by a size limit so
that a typo on the command line cannot start a week-long computation.  The
defaults are chosen so that every exhaustive check finishes in minutes on a
laptop.  A partition class is bounded by the key of the walk that
enumerates it (``all``, ``noncrossing`` or ``interval``; see
`partitions.enumerate_partitions`), a cumulant polynomial also by its
``cumulant-*`` key.  Every public entry point checks its keys on every
call, hit or miss; the identity catalog checks the keys of the cumulants
it sums once per (identity, n), where it chooses the work, and then reads
their cache unchecked.  A key's limit is n, for every key, inside an
``override(n)`` block (the CLI runs each command inside one built from
``--limit``: it applies to every command), else its entry in
`DEFAULT_LIMITS`.  Nothing else sets a limit: the package reads no
environment variables.

The identity catalog's per-row ``max_n`` caps are not settable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

#: Default maximum n (or block count, for the beta keys) per guarded task.
DEFAULT_LIMITS = {
    "all": 10,
    "noncrossing": 12,
    "interval": 16,
    "monotone": 8,
    "beta-blocks": 10,
    "cumulant-classical": 9,
    "cumulant-other": 10,
}


class ResourceLimitError(RuntimeError):
    """Raised when a requested enumeration exceeds its configured limit."""


#: the limit of every key inside the innermost `override` block, else None;
#: a context variable, so a block in one thread does not leak into another
_OVERRIDE: ContextVar[int | None] = ContextVar("limit_override", default=None)


@contextmanager
def override(n: int | None):
    """Within the block every key's limit is n; None changes nothing."""
    token = _OVERRIDE.set(_OVERRIDE.get() if n is None else n)
    try:
        yield
    finally:
        _OVERRIDE.reset(token)


def limit_for(key: str) -> int:
    """Resolve the limit for `key` (see DEFAULT_LIMITS for valid keys)."""
    forced = _OVERRIDE.get()
    return DEFAULT_LIMITS[key] if forced is None else forced


def check_limit(key: str, n: int) -> None:
    """Raise ResourceLimitError when n exceeds the configured limit."""
    bound = limit_for(key)
    if n > bound:
        raise ResourceLimitError(
            f"n={n} exceeds the configured limit {bound} for {key!r}; "
            "raise it with --limit"
        )
