"""Machine-checked catalog of the cumulant identities.

`verify_identity(name, n)` instantiates both sides of one identity as
exact moment polynomials (or truncated series / rational sequences) and
compares them term by term.  A failing comparison returns the difference
as a witness; it is never tolerated silently, and the CLI turns it into a
nonzero exit code.  `run_catalog` sweeps every identity up to its
documented limit and is the acceptance gate of the repository.

Identity naming follows the project-wide convention: conversion formulas
are `<source>2<target>`; grouped families of statements carry short
catalog tags (thm1..thm5, cor9, prop10).  Random-sequence checks draw
from a seeded generator, so every run is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import (
    MomentPolynomial,
    TruncatedSeries,
    linear_combination,
    moment_monomial,
)
from .cumulants import (
    CumulantKind,
    beta_expansion_check,
    beta_formula,
    beta_recursive,
    boolean_poisson_kappa,
    cumulant_poly,
    cumulants_from_moments,
    determinant_cumulants,
    lenczewski_sum_check,
    logbessel_beta_check,
    moment_series,
    monotone_dilate,
    partitioned_cumulant,
    sequence_series,
)
from .forests import alpha, depth, partition_tree_factorial
from .graphs import anti_interval_digraph, anti_interval_graph, crossing_graph, tutte_eval
from .limits import ResourceLimitError
from .partitions import (
    SetPartition,
    enumerate_monotone,
    lattice_leq,
    mobius,
    partitions_of,
)
from .permutations import (
    all_permutations,
    cycle_runs,
    cycles,
    cyclic_permutations,
    eulerian,
    runs,
)

__all__ = [
    "Report",
    "IDENTITY_CATALOG",
    "identity_names",
    "identity_limit",
    "verify_identity",
    "run_catalog",
    "experimental_thm2_multivariate",
]

K, R, B, H = (
    CumulantKind.CLASSICAL,
    CumulantKind.FREE,
    CumulantKind.BOOLEAN,
    CumulantKind.MONOTONE,
)


@dataclass
class Report:
    identity: str
    n: int
    holds: bool
    lhs_terms: int
    rhs_terms: int
    witness: str | None = None
    detail: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "n": self.n,
            "holds": self.holds,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


def _compare(name, n, lhs: MomentPolynomial, rhs: MomentPolynomial, detail=None):
    holds = lhs == rhs
    return Report(
        name,
        n,
        holds,
        lhs.num_terms(),
        rhs.num_terms(),
        None if holds else repr(lhs - rhs),
        detail,
    )


def _quantified(name, n, failures: list[str], checked: int, detail=None):
    return Report(
        name,
        n,
        not failures,
        checked,
        checked,
        "; ".join(failures[:3]) if failures else None,
        detail,
    )


def _random_sequences(tag: str, n: int, count: int = 25):
    rng = random.Random(f"cumulantcalc:{tag}:{n}")
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Conversion identities between pairs of families
# ---------------------------------------------------------------------------


def _check_free2boolean(n):
    rhs = linear_combination(
        n,
        (
            (1, partitioned_cumulant(R, pi))
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    return _compare("free2boolean", n, cumulant_poly(B, n), rhs)


def _check_class2free(n):
    rhs = linear_combination(
        n,
        ((1, partitioned_cumulant(K, pi)) for pi in partitions_of(n, "connected")),
    )
    return _compare("class2free", n, cumulant_poly(R, n), rhs)


def _check_class2boolean(n):
    rhs = linear_combination(
        n,
        ((1, partitioned_cumulant(K, pi)) for pi in partitions_of(n, "irreducible")),
    )
    return _compare("class2boolean", n, cumulant_poly(B, n), rhs)


def _check_boolean2free(n):
    rhs = linear_combination(
        n,
        (
            ((-1) ** (pi.num_blocks - 1), partitioned_cumulant(B, pi))
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    return _compare("boolean2free", n, cumulant_poly(R, n), rhs)


def _check_free2class_tutte(n):
    rhs = linear_combination(
        n,
        (
            (
                (-1) ** (pi.num_blocks - 1) * tutte_eval(crossing_graph(pi), 1, 0),
                partitioned_cumulant(R, pi),
            )
            for pi in partitions_of(n, "connected")
        ),
    )
    return _compare("free2class_tutte", n, cumulant_poly(K, n), rhs)


def _thm1_rhs(n, signed: bool) -> MomentPolynomial:
    return linear_combination(
        n,
        (
            (
                Fraction((-1) ** (pi.num_blocks - 1) if signed else 1,
                         partition_tree_factorial(pi)),
                partitioned_cumulant(H, pi),
            )
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )


def _thm1_ordered_rhs(n, signed: bool) -> MomentPolynomial:
    return linear_combination(
        n,
        (
            (
                Fraction((-1) ** (op.base.num_blocks - 1) if signed else 1,
                         factorial(op.base.num_blocks)),
                partitioned_cumulant(H, op.base),
            )
            for op in enumerate_monotone(n)
            if op.base.is_irreducible()
        ),
    )


def _check_thm1_mono2boolean(n):
    lhs = cumulant_poly(B, n)
    rep = _compare("thm1_mono2boolean", n, lhs, _thm1_rhs(n, signed=False))
    if rep.holds and n <= 6:
        ordered = _thm1_ordered_rhs(n, signed=False)
        if ordered != lhs:
            rep.holds = False
            rep.witness = "ordered-partition form differs: " + repr(lhs - ordered)
        rep.detail = {"ordered_form_checked": True}
    return rep


def _check_thm1_mono2free(n):
    lhs = cumulant_poly(R, n)
    rep = _compare("thm1_mono2free", n, lhs, _thm1_rhs(n, signed=True))
    if rep.holds and n <= 6:
        ordered = _thm1_ordered_rhs(n, signed=True)
        if ordered != lhs:
            rep.holds = False
            rep.witness = "ordered-partition form differs: " + repr(lhs - ordered)
        rep.detail = {"ordered_form_checked": True}
    return rep


# ---------------------------------------------------------------------------
# Univariate monotone expansions (thm2)
# ---------------------------------------------------------------------------


def _check_thm2_free2mono(n):
    lhs = cumulant_poly(H, n).univariate()
    rhs = linear_combination(
        n,
        (
            (alpha(pi), partitioned_cumulant(R, pi).univariate())
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    return _compare("thm2_free2mono", n, lhs, rhs)


def _check_thm2_boolean2mono(n):
    lhs = cumulant_poly(H, n).univariate()
    rhs = linear_combination(
        n,
        (
            ((-1) ** (pi.num_blocks - 1) * alpha(pi),
             partitioned_cumulant(B, pi).univariate())
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    return _compare("thm2_boolean2mono", n, lhs, rhs)


def _check_thm2_class2mono(n):
    lhs = cumulant_poly(H, n).univariate()
    rhs = linear_combination(
        n,
        (
            (alpha(pi.noncrossing_closure()),
             partitioned_cumulant(K, pi).univariate())
            for pi in partitions_of(n, "irreducible")
        ),
    )
    return _compare("thm2_class2mono", n, lhs, rhs)


# ---------------------------------------------------------------------------
# Tutte and permutation expressions for classical cumulants
# ---------------------------------------------------------------------------


def _check_thm3_boolean2class_tutte(n):
    rhs = linear_combination(
        n,
        (
            (
                (-1) ** (pi.num_blocks - 1) * tutte_eval(anti_interval_graph(pi), 1, 0),
                partitioned_cumulant(B, pi),
            )
            for pi in partitions_of(n, "irreducible")
        ),
    )
    return _compare("thm3_boolean2class_tutte", n, cumulant_poly(K, n), rhs)


def _check_thm4_cyclecruns(n):
    rhs = linear_combination(
        n,
        (
            ((-1) ** (cycle_runs(s).num_blocks - 1),
             partitioned_cumulant(B, cycle_runs(s)))
            for s in cyclic_permutations(n)
        ),
    )
    rep = _compare("thm4_cyclecruns", n, cumulant_poly(K, n), rhs)
    if rep.holds and n <= 6:
        # The cancellation underlying the cyclic form: summing over all of
        # S_n with sign (-1)^(#cycleruns - #cycles) gives the plain moment.
        full = linear_combination(
            n,
            (
                ((-1) ** (cycle_runs(s).num_blocks - cycles(s).num_blocks),
                 partitioned_cumulant(B, cycle_runs(s)))
                for s in all_permutations(n)
            ),
        )
        target = moment_monomial(SetPartition.one_block(n))
        if full != target:
            rep.holds = False
            rep.witness = "signed full-symmetric-group sum differs"
        rep.detail = {"cancellation_lemma_checked": True}
    return rep


def _check_cor_runs(n):
    def contributions():
        for s in all_permutations(n):
            if s(1) != 1:
                continue
            part, d = runs(s)
            yield ((-1) ** d, partitioned_cumulant(B, part))

    rhs = linear_combination(n, contributions())
    return _compare("cor_runs", n, cumulant_poly(K, n), rhs)


# ---------------------------------------------------------------------------
# Moment-cumulant formulas and Moebius inversions
# ---------------------------------------------------------------------------


def _check_moment_cumulant(name, n, kind, cls_value):
    members = partitions_of(n, cls_value)
    failures = []
    for pi in members:
        lhs = moment_monomial(pi)
        rhs = linear_combination(
            n,
            (
                (1, partitioned_cumulant(kind, sig))
                for sig in members
                if lattice_leq(sig, pi)
            ),
        )
        if lhs != rhs:
            failures.append(f"pi={pi}")
    return _quantified(name, n, failures, len(members))


def _check_moment_cumulant_K(n):
    return _check_moment_cumulant("moment_cumulant_K", n, K, "all")


def _check_moment_cumulant_R(n):
    return _check_moment_cumulant("moment_cumulant_R", n, R, "noncrossing")


def _check_moment_cumulant_B(n):
    return _check_moment_cumulant("moment_cumulant_B", n, B, "interval")


def _check_moment_cumulant_H(n):
    lhs = moment_monomial(SetPartition.one_block(n))
    rhs = linear_combination(
        n,
        (
            (Fraction(1, partition_tree_factorial(pi)), partitioned_cumulant(H, pi))
            for pi in partitions_of(n, "noncrossing")
        ),
    )
    ordered = linear_combination(
        n,
        (
            (Fraction(1, factorial(op.base.num_blocks)),
             partitioned_cumulant(H, op.base))
            for op in enumerate_monotone(n)
        ),
    )
    holds = lhs == rhs == ordered
    witness = None
    if not holds:
        witness = repr(lhs - rhs) if lhs != rhs else repr(lhs - ordered)
    return Report(
        "moment_cumulant_H",
        n,
        holds,
        lhs.num_terms(),
        rhs.num_terms(),
        witness,
        {"ordered_form_checked": True},
    )


def _check_mobius_inversions(n):
    failures = []
    checked = 0
    for kind, cls_value, lattice in (
        (K, "all", "P"),
        (R, "noncrossing", "NC"),
        (B, "interval", "I"),
    ):
        members = partitions_of(n, cls_value)
        for pi in members:
            rhs = linear_combination(
                n,
                (
                    (mobius(sig, pi, lattice), moment_monomial(sig))
                    for sig in members
                    if lattice_leq(sig, pi)
                ),
            )
            checked += 1
            if partitioned_cumulant(kind, pi) != rhs:
                failures.append(f"{lattice}:{pi}")
    return _quantified("mobius_inversions", n, failures, checked)


# ---------------------------------------------------------------------------
# Generating-function identities
# ---------------------------------------------------------------------------


def _series_report(name, n, failures, checked, detail=None):
    return _quantified(name, n, failures, checked, detail)


def _check_series_B(n):
    failures = []
    seqs = _random_sequences("series_B", n)
    for i, m in enumerate(seqs):
        bm = moment_series(m)
        bs = sequence_series(cumulants_from_moments(B, m))
        if bs * bm != bm - 1:
            failures.append(f"seq#{i}")
    return _series_report("series_B", n, failures, len(seqs))


def _check_series_R(n):
    failures = []
    seqs = _random_sequences("series_R", n)
    for i, m in enumerate(seqs):
        ms = moment_series(m)
        rs = sequence_series(cumulants_from_moments(R, m))
        zm = TruncatedSeries.z(n) * ms
        if rs.compose(zm) != ms - 1:
            failures.append(f"seq#{i}")
    return _series_report("series_R", n, failures, len(seqs))


def _check_swap_identities(n):
    failures = []
    seqs = _random_sequences("swap", n)
    one = TruncatedSeries.one(n)
    z = TruncatedSeries.z(n)
    for i, m in enumerate(seqs):
        rs = sequence_series(cumulants_from_moments(R, m))
        bs = sequence_series(cumulants_from_moments(B, m))
        left_inner = z * (one - bs).reciprocal()
        if one + rs.compose(left_inner) != (one - bs).reciprocal():
            failures.append(f"seq#{i}:left")
        right_inner = z * (one + rs).reciprocal()
        if one - bs.compose(right_inner) != (one + rs).reciprocal():
            failures.append(f"seq#{i}:right")
    return _series_report("swap_identities", n, failures, len(seqs))


def _check_tilde_lemma(n):
    from .cumulants import tilde_transform

    failures = []
    seqs = _random_sequences("tilde", n)
    for i, m in enumerate(seqs):
        out = tilde_transform(m)
        if tilde_transform(out) != m:
            failures.append(f"seq#{i}: not an involution")
        if cumulants_from_moments(B, out) != [-x for x in cumulants_from_moments(R, m)]:
            failures.append(f"seq#{i}: Boolean/free swap failed")
        if cumulants_from_moments(H, out) != [-x for x in cumulants_from_moments(H, m)]:
            failures.append(f"seq#{i}: monotone negation failed")
    return _series_report("tilde_lemma", n, failures, len(seqs))


def _check_monotone_flow_integer(n):
    failures = []
    seqs = _random_sequences("flow", n, count=5)
    order = n + 1
    for i, h in enumerate(seqs):
        frak = {}
        for t in range(-4, 5):
            ms = moment_series(monotone_dilate(h, t), order)
            frak[t] = TruncatedSeries.z(order) * ms
        for t in range(-2, 3):
            for s in range(-2, 3):
                if frak[t + s] != frak[t].compose(frak[s]):
                    failures.append(f"seq#{i}:t={t},s={s}")
    return _series_report("monotone_flow_integer", n, failures, len(seqs) * 25)


def _check_lenczewski_sum(n):
    failures = []
    details = []
    for colors in range(1, 6):
        rep = lenczewski_sum_check(n, colors)
        details.append(colors)
        if not rep["holds"]:
            failures.append(f"N={colors}")
    return _quantified("lenczewski_sum", n, failures, len(details))


# ---------------------------------------------------------------------------
# Beta family
# ---------------------------------------------------------------------------


def _check_beta_expansion(n):
    rep = beta_expansion_check(n)
    return Report(
        "beta_expansion", n, rep["holds"], rep["lhs_terms"], rep["rhs_terms"],
        rep["witness"],
    )


def _check_thm5_reducible(n):
    failures = []
    checked = 0
    for pi in partitions_of(n, "all"):
        if pi.is_irreducible():
            continue
        checked += 1
        if beta_formula(pi) != 0 or beta_recursive(pi) != 0:
            failures.append(f"pi={pi}")
    return _quantified("thm5_reducible", n, failures, checked)


def _check_thm5_nonesting(n):
    failures = []
    checked = 0
    for pi in partitions_of(n, "irreducible"):
        if anti_interval_digraph(pi).directed:
            continue  # has a nesting
        checked += 1
        expected = (-1) ** (pi.num_blocks - 1) * tutte_eval(crossing_graph(pi), 1, 0)
        if beta_formula(pi) != expected:
            failures.append(f"pi={pi}")
    return _quantified("thm5_nonesting", n, failures, checked)


def _check_thm5_depth2(n):
    failures = []
    checked = 0
    for pi in partitions_of(n, "irreducible-noncrossing"):
        if depth(pi) > 2:
            continue
        checked += 1
        if beta_formula(pi) != Fraction((-1) ** (pi.num_blocks - 1), pi.num_blocks):
            failures.append(f"pi={pi}")
    return _quantified("thm5_depth2", n, failures, checked)


def _check_cor9_factorial(n):
    per_blocks: dict[int, Fraction] = {}
    for pi in partitions_of(n, "irreducible"):
        t = tutte_eval(anti_interval_graph(pi), 1, 0)
        per_blocks[pi.num_blocks] = per_blocks.get(pi.num_blocks, Fraction(0)) + t
    total = sum(per_blocks.values(), Fraction(0))
    failures = []
    if total != factorial(n - 1):
        failures.append(f"total={total} != {factorial(n - 1)}")
    for k in range(1, n + 1):
        if per_blocks.get(k, Fraction(0)) != eulerian(n - 1, k - 1):
            failures.append(f"blocks={k}")
    return _quantified(
        "cor9_factorial", n, failures, len(per_blocks) + 1, {"sum": str(total)}
    )


def _check_prop10_eulerian(n):
    try:
        kappa = boolean_poisson_kappa(n)
    except AssertionError as exc:
        return Report("prop10_eulerian", n, False, 0, 0, str(exc))
    return Report(
        "prop10_eulerian", n, True, len(kappa.coeffs), len(kappa.coeffs),
        None, {"kappa": kappa.to_json()},
    )


def _check_determinant_formulas(n):
    failures = []
    seqs = _random_sequences("determinants", n)
    for i, m in enumerate(seqs):
        if determinant_cumulants("classical", m) != cumulants_from_moments(K, m):
            failures.append(f"seq#{i}:classical")
        if determinant_cumulants("boolean", m) != cumulants_from_moments(B, m):
            failures.append(f"seq#{i}:boolean")
    return _quantified("determinant_formulas", n, failures, 2 * len(seqs))


def _check_logbessel_carlitz(n):
    rep = logbessel_beta_check(min(n, 7))
    return Report(
        "logbessel_carlitz", n, rep["holds"], len(rep["sequence"]),
        len(rep["sequence"]), rep["witness"], {"sequence": rep["sequence"]},
    )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityInfo:
    name: str
    max_n: int
    check: callable
    summary: str


def _info(name, max_n, check, summary):
    return IdentityInfo(name, max_n, check, summary)


IDENTITY_CATALOG: dict[str, IdentityInfo] = {
    i.name: i
    for i in [
        _info("free2boolean", 8, _check_free2boolean,
              "Boolean cumulants as sums of free cumulants over irreducible noncrossing partitions"),
        _info("class2free", 7, _check_class2free,
              "free cumulants as sums of classical cumulants over connected partitions"),
        _info("class2boolean", 7, _check_class2boolean,
              "Boolean cumulants as sums of classical cumulants over irreducible partitions"),
        _info("boolean2free", 8, _check_boolean2free,
              "free cumulants as signed sums of Boolean cumulants"),
        _info("free2class_tutte", 7, _check_free2class_tutte,
              "classical cumulants from free cumulants weighted by crossing-graph Tutte values"),
        _info("thm1_mono2boolean", 9, _check_thm1_mono2boolean,
              "Boolean cumulants from monotone cumulants with nesting-forest weights"),
        _info("thm1_mono2free", 9, _check_thm1_mono2free,
              "free cumulants from monotone cumulants with signed nesting-forest weights"),
        _info("thm2_free2mono", 9, _check_thm2_free2mono,
              "univariate monotone cumulants from free cumulants with alpha weights"),
        _info("thm2_boolean2mono", 9, _check_thm2_boolean2mono,
              "univariate monotone cumulants from Boolean cumulants with signed alpha weights"),
        _info("thm2_class2mono", 7, _check_thm2_class2mono,
              "univariate monotone cumulants from classical cumulants via noncrossing closures"),
        _info("thm3_boolean2class_tutte", 7, _check_thm3_boolean2class_tutte,
              "classical cumulants from Boolean cumulants weighted by anti-interval Tutte values"),
        _info("thm4_cyclecruns", 7, _check_thm4_cyclecruns,
              "classical cumulants as signed Boolean sums over cycle runs of full cycles"),
        _info("cor_runs", 7, _check_cor_runs,
              "classical cumulants as signed Boolean sums over runs of permutations fixing 1"),
        _info("moment_cumulant_K", 6, _check_moment_cumulant_K,
              "defining moment formula of classical cumulants on every partition"),
        _info("moment_cumulant_R", 7, _check_moment_cumulant_R,
              "defining moment formula of free cumulants on every noncrossing partition"),
        _info("moment_cumulant_B", 7, _check_moment_cumulant_B,
              "defining moment formula of Boolean cumulants on every interval partition"),
        _info("moment_cumulant_H", 7, _check_moment_cumulant_H,
              "monotone moment formula, grouped and ordered forms"),
        _info("mobius_inversions", 6, _check_mobius_inversions,
              "Moebius-inverted cumulant formulas on all three lattices"),
        _info("series_B", 10, _check_series_B,
              "B(z) M(z) = M(z) - 1 on random rational moment sequences"),
        _info("series_R", 10, _check_series_R,
              "R(z M(z)) = M(z) - 1 on random rational moment sequences"),
        _info("swap_identities", 10, _check_swap_identities,
              "the two reciprocal substitution identities exchanged by the tilde map"),
        _info("tilde_lemma", 10, _check_tilde_lemma,
              "tilde swaps free and Boolean cumulants and negates monotone ones"),
        _info("monotone_flow_integer", 10, _check_monotone_flow_integer,
              "integer-parameter composition law of the monotone dilation"),
        _info("lenczewski_sum", 7, _check_lenczewski_sum,
              "colored free-cumulant sums match monotone dilation moments"),
        _info("beta_expansion", 6, _check_beta_expansion,
              "classical cumulants as beta-weighted monotone cumulants"),
        _info("thm5_reducible", 6, _check_thm5_reducible,
              "beta vanishes on reducible partitions (both routes)"),
        _info("thm5_nonesting", 6, _check_thm5_nonesting,
              "beta equals the signed Tutte coefficient on nesting-free partitions"),
        _info("thm5_depth2", 7, _check_thm5_depth2,
              "beta is (-1)^(k-1)/k on irreducible noncrossing partitions of depth <= 2"),
        _info("cor9_factorial", 7, _check_cor9_factorial,
              "anti-interval Tutte values over irreducible partitions sum to (n-1)!"),
        _info("prop10_eulerian", 9, _check_prop10_eulerian,
              "constant Boolean cumulants give Eulerian classical cumulants"),
        _info("determinant_formulas", 9, _check_determinant_formulas,
              "Hessenberg determinant formulas match the Moebius route"),
        _info("logbessel_carlitz", 7, _check_logbessel_carlitz,
              "nested-pairing beta values follow the log-Bessel series and its recursion"),
    ]
}


def identity_names() -> list[str]:
    return list(IDENTITY_CATALOG)


def identity_limit(name: str) -> int:
    return IDENTITY_CATALOG[name].max_n


def verify_identity(name: str, n: int) -> Report:
    """Run one identity at one n; exact comparison, never tolerant."""
    info = IDENTITY_CATALOG.get(name)
    if info is None:
        raise ValueError(f"unknown identity {name!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > info.max_n:
        raise ResourceLimitError(
            f"identity {name} is limited to n <= {info.max_n} (asked for {n})"
        )
    return info.check(n)


def run_catalog(n_max: int, names=None, strict_limits: bool = False) -> list[Report]:
    """Verify each identity for n = 1 .. min(n_max, its limit).

    With strict_limits=True a request beyond an identity's limit raises
    instead of being clamped.
    """
    out = []
    for name in names or identity_names():
        info = IDENTITY_CATALOG.get(name)
        if info is None:
            raise ValueError(f"unknown identity {name!r}")
        top = n_max if strict_limits else min(n_max, info.max_n)
        for n in range(1, top + 1):
            out.append(verify_identity(name, n))
    return out


# ---------------------------------------------------------------------------
# Experimental: multivariate version of the alpha expansions
# ---------------------------------------------------------------------------


def experimental_thm2_multivariate(n: int) -> Report:
    """Check the multivariate analogue of the alpha expansions.

    This analogue is not asserted anywhere in the package: the checker
    reports whether it holds for the given n and is excluded from the
    catalog and from `run_catalog`.
    """
    if not 1 <= n <= 7:
        raise ResourceLimitError("experimental checker limited to n <= 7")
    lhs = cumulant_poly(H, n)
    failures = []
    rhs_free = linear_combination(
        n,
        (
            (alpha(pi), partitioned_cumulant(R, pi))
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    if rhs_free != lhs:
        failures.append("free form")
    rhs_bool = linear_combination(
        n,
        (
            ((-1) ** (pi.num_blocks - 1) * alpha(pi), partitioned_cumulant(B, pi))
            for pi in partitions_of(n, "irreducible-noncrossing")
        ),
    )
    if rhs_bool != lhs:
        failures.append("Boolean form")
    rhs_class = linear_combination(
        n,
        (
            (alpha(pi.noncrossing_closure()), partitioned_cumulant(K, pi))
            for pi in partitions_of(n, "irreducible")
        ),
    )
    if rhs_class != lhs:
        failures.append("classical form")
    return Report(
        "thm2_multivariate_experimental",
        n,
        not failures,
        lhs.num_terms(),
        lhs.num_terms(),
        "; ".join(failures) or None,
        {"experimental": True},
    )
