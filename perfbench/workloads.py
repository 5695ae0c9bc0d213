"""The three workloads: fixed CLI op lists, plus seeded convert chains.

The op lists are written out here and never derived from the catalog's
``max_n`` or from ``DEFAULT_LIMITS``, so a change that raises a limit does
not change the work measured.  An op is a list of CLI arguments, except a
convert chain, which is ``{"chain": [...8 rationals...]}`` and expands to
five ``convert`` ops that feed each other (see ``CHAIN_KINDS``).
"""

from __future__ import annotations

import random
from fractions import Fraction

#: (identity, n) for every multivariate / combinatorial identity.
POLY_IDENTITIES = [
    ("free2boolean", 8),
    ("class2free", 7),
    ("class2boolean", 7),
    ("boolean2free", 8),
    ("free2class_tutte", 7),
    ("thm1_mono2boolean", 8),
    ("thm1_mono2free", 8),
    ("thm2_free2mono", 8),
    ("thm2_boolean2mono", 8),
    ("thm2_class2mono", 7),
    ("thm3_boolean2class_tutte", 7),
    ("thm4_cyclecruns", 7),
    ("cor_runs", 7),
    ("moment_cumulant_K", 6),
    ("moment_cumulant_R", 7),
    ("moment_cumulant_B", 7),
    ("moment_cumulant_H", 7),
    ("mobius_inversions", 6),
    ("lenczewski_sum", 7),
    ("beta_expansion", 6),
    ("thm5_reducible", 6),
    ("thm5_nonesting", 6),
    ("thm5_depth2", 7),
    ("cor9_factorial", 7),
    ("logbessel_carlitz", 7),
]

#: univariate identities, all at n = 7
SEQUENCE_IDENTITIES = [
    ("series_B", 7),
    ("series_R", 7),
    ("swap_identities", 7),
    ("tilde_lemma", 7),
    ("monotone_flow_integer", 7),
    ("prop10_eulerian", 7),
    ("determinant_formulas", 7),
]

#: a chain converts along these kinds and must end where it started
CHAIN_KINDS = ("moments", "classical", "free", "boolean", "monotone", "moments")
CHAINS = 20
CHAIN_LENGTH = 8

TABLE_OPS = [
    ["table", "beta", "8"],
    ["table", "tutte", "9"],
    ["table", "alpha", "9"],
    ["table", "mobius", "8"],
    ["enumerate", "11", "noncrossing"],
    ["enumerate", "10", "connected"],
    ["enumerate", "7", "monotone"],
]

WORKLOADS = ("poly-identities", "sequences", "tables")


def chain_starts(seed: int, chains: int = CHAINS, length: int = CHAIN_LENGTH) -> list[list[str]]:
    """Seeded start sequences for the convert chains, as rational strings."""
    rng = random.Random(seed)
    return [
        [str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(length)]
        for _ in range(chains)
    ]


def ops_for(workload: str, seed: int) -> list:
    """The op list one pass of `workload` runs."""
    if workload == "poly-identities":
        return [["verify", name, str(n)] for name, n in POLY_IDENTITIES]
    if workload == "sequences":
        verify = [["verify", name, str(n)] for name, n in SEQUENCE_IDENTITIES]
        return verify + [{"chain": start} for start in chain_starts(seed)]
    if workload == "tables":
        return [list(op) for op in TABLE_OPS]
    raise ValueError(f"unknown workload {workload!r}")


def op_key(argv: list[str]) -> str:
    """The name an op's recorded digest is stored under."""
    return " ".join(argv)
