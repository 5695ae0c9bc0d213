"""Machine-checked catalog of the cumulant identities.

`verify_identity(name, n)` instantiates both sides of one identity as
exact moment polynomials (or truncated series / rational sequences),
compares them term by term and returns a `Report`, the one report type of
the package.  A failing comparison carries the difference as a witness;
it is never tolerated silently, and the CLI turns it into a nonzero exit
code.  `run_catalog` sweeps every identity up to its documented limit and
is the acceptance gate of the repository.

The catalog has three row shapes, and each row's report is named by the
row.  Most conversion formulas share one shape,

    lhs_n = sum over pi in a partition class of w(pi) * rhs_pi,

where rhs_pi is a partitioned cumulant and the weight w(pi) is 1, a sign,
1/tau(pi)!, alpha, a Tutte value, a run count or beta.  Each such identity
is one of the 17 `FamilySum` rows, and `FamilySum.check` is their one
checker.  The alpha expansions of thm2 are rows twice, univariate and
multivariate (`thm2_*_mv`).  The 14 identities checked case by case
(lattice-wide moment formulas, series on random sequences, the Lenczewski
colours, properties of beta) are `Cases` rows: a generator yields the
failed-check labels of each case, and `Cases.check` counts the cases and
quotes the failures.  The 4 `IdentityInfo` rows (thm4, cor9, prop10,
log-Bessel) build their own report, with a detail dict or term counts,
from a function of (name, n); thm4 checks the sum of the `cor_runs` row
under its own name, then its cancellation lemma as a count.  That count,
like the ordered-monotone form of `FamilySum`, stands for a polynomial
sum: B_pi and H_pi are m_pi plus strictly finer monomials, so a sum of
them is fixed by its coefficients.

The sums are added by `_cumulant_sum(kind, n, weighted)`, over
partitioned cumulants, or with all variables identified by `_type_sum`,
over one product per block-size type of the univariate cumulants that
`_symbol_cumulants` converts once per (kind, n).  Both check the limits
of `kind` once, at n.  The lattice formulas check them once per kind, and
in both forms check each kind_k, k <= n, once by the kind's first-block
recursion, which reads no mu: a pi fails when one of its block sizes does.

Four counts depend only on n, and each is made once per n: the monotone
orders of each noncrossing pi, the runs of the words 1 a_2 ... a_n, the
cycle runs of S_n, and the (forest shape, block-size type) classes of
NC(n).  The monotone orders are counted, not walked: they are the linear
extensions of pi's nesting order, counted over the sets of blocks placed
first.  A count holds partitions and integer counts only, so the sums
weight each distinct partition once, times its count.

`moment_cumulant_H` checks its grouped form, the sum over NC(n) of
H_pi / tau(pi)!, up to n = 9, and the ordered form up to 7.  H_n is built
by the interval flow of `cumulants`, which reads no tau, so the grouped
form is a check of tau and of the flow.

Identity naming follows the project-wide convention: conversion formulas
are `<source>2<target>`; grouped families of statements carry short
catalog tags (thm1..thm5, cor9, prop10).  Random-sequence checks draw
from a seeded generator, so every run is deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations, permutations
from math import comb, factorial, prod

from .algebra import (
    MomentPolynomial,
    Polynomial,
    TruncatedSeries,
    linear_combination,
    moment_monomial,
)
from .cumulants import (
    CumulantKind,
    _LATTICE_OF_KIND,
    _block_cumulant,
    _check_cumulant_limits,
    _cumulant_poly,
    _partitioned_cumulant,
    beta_formula,
    boolean_poisson_kappa,
    cumulants_from_moments,
    determinant_cumulants,
    moment_series,
    monotone_dilate,
    nested_pair_partition,
    sequence_series,
    tilde_transform,
)
from .forests import _shape, alpha, depth, labelling_polynomial_of, partition_tree_factorial
from .graphs import anti_interval_graph, crossing_graph, tutte_eval
from .limits import ResourceLimitError, check_limit
from .partitions import SetPartition, partitions_of
from .permutations import (
    Permutation,
    all_permutations,
    cycle_runs,
    cycles,
    eulerian,
    eulerian_polynomial,
    runs,
)

__all__ = [
    "Report",
    "IDENTITY_CATALOG",
    "identity_names",
    "verify_identity",
    "catalog_jobs",
    "run_catalog",
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
        # the fields in order, without an unset witness or detail
        return {k: v for k, v in asdict(self).items() if v is not None and v != {}}


def _compare(name, n, lhs: MomentPolynomial, rhs: MomentPolynomial):
    holds = lhs == rhs
    return Report(
        name,
        n,
        holds,
        lhs.num_terms(),
        rhs.num_terms(),
        None if holds else repr(lhs - rhs),
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


def _sign(pi: SetPartition) -> int:
    return (-1) ** (pi.num_blocks - 1)


# ---------------------------------------------------------------------------
# Family sums: lhs_n = sum over a partition class of weight(pi) * rhs_pi
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySum:
    """Catalog row: lhs_n = sum over pi in `cls` of weight(pi) * rhs_pi.

    `lhs` is a cumulant family, or None for the moment m_{[n]}; rhs_pi is
    the partitioned cumulant of the family `rhs`.  Each weight is computed
    before rhs_pi is fetched, and a zero weight skips it.  Rows give the
    weight as a lambda, so the library functions it calls are looked up
    when it runs.  Both sides are added by `_cumulant_sum` or, with
    `univariate`, by `_type_sum`, which compares them after all variables
    are identified.  For n <= `ordered_max_n` (monotone rhs, noncrossing
    class, no zero weight) the ordered-monotone form is checked as a
    count: each member pi has |pi|!/tau(pi)! monotone orders in
    `_monotone_order_counts(n)`, read after the "monotone" limit is
    checked, and the witness names the first pi that has not.
    """

    name: str
    max_n: int
    lhs: CumulantKind | None
    rhs: CumulantKind
    cls: str
    weight: Callable[[SetPartition], int | Fraction]
    univariate: bool
    summary: str
    ordered_max_n: int = 0

    def check(self, n: int) -> Report:
        add = _type_sum if self.univariate else _cumulant_sum
        if self.lhs is None:
            lhs = moment_monomial(SetPartition.one_block(n))
        else:
            lhs = add(self.lhs, n, [(1, SetPartition.one_block(n))])
        members = partitions_of(n, self.cls)
        rhs = add(self.rhs, n, ((self.weight(pi), pi) for pi in members))
        rep = _compare(self.name, n, lhs, rhs)
        if rep.holds and n <= self.ordered_max_n:
            check_limit("monotone", n)
            orders = _monotone_order_counts(n)
            for pi in members:
                tau, size = partition_tree_factorial(pi), factorial(pi.num_blocks)
                if orders[pi] * tau != size:
                    rep.holds = False
                    rep.witness = (f"ordered-partition form differs: {pi} has {orders[pi]} "
                                   f"monotone orders, not |pi|!/tau(pi)! = {size}/{tau}")
                    break
            rep.detail = {"ordered_form_checked": True}
        return rep


def _cumulant_sum(kind: CumulantKind, n: int, weighted) -> MomentPolynomial:
    """Sum of w * kind_pi over (w, pi) pairs of [n], skipping zero weights;
    the limits of `kind` are checked once, at n."""
    _check_cumulant_limits(kind, n)
    pairs = ((w, _partitioned_cumulant(kind, pi)) for w, pi in weighted if w)
    return linear_combination(pairs)


@lru_cache(maxsize=None)
def _symbol_cumulants(kind: CumulantKind, n: int) -> tuple[MomentPolynomial, ...]:
    """u_1..u_n, the univariate cumulants of the moment symbols m_{1..k};
    unchecked: `_type_sum` and `_lenczewski_sum`, for its monotone side,
    check the limits before they read this cache."""
    symbols = [MomentPolynomial.symbol(range(1, k + 1)).univariate() for k in range(1, n + 1)]
    return tuple(cumulants_from_moments(kind, symbols))


def _type_sum(kind: CumulantKind, n: int, weighted) -> MomentPolynomial:
    """`_cumulant_sum` with all variables identified: the weights are summed
    by block-size type first, and each type is one product of the u_s of
    `_symbol_cumulants` over its sizes s."""
    _check_cumulant_limits(kind, n)
    u = _symbol_cumulants(kind, n)
    by_type: dict[tuple[int, ...], int | Fraction] = {}
    for w, pi in weighted:
        sizes = tuple(sorted(pi.block_sizes()))
        by_type[sizes] = by_type.get(sizes, 0) + w
    return linear_combination(
        (w, prod((u[s - 1] for s in sizes), start=MomentPolynomial.one()))
        for sizes, w in by_type.items() if w
    )


# ---------------------------------------------------------------------------
# Counts of the walks that depend only on n
# ---------------------------------------------------------------------------
# Each count holds partitions and integer counts only, no weight and no
# polynomial, so a sum weights each distinct partition once, times its
# count.  The counts are unchecked: each reader checks the row's limit keys
# first, on every call, so a warm count is never read past a lowered limit
# and a cold one starts no walk there.


@cache
def _monotone_order_counts(n: int) -> Counter[SetPartition]:
    """The number of monotone orders of each noncrossing pi of [n]: the
    linear extensions of its nesting order, counted by
    `_linear_extensions`, with no order of the blocks walked."""
    return Counter({
        pi: _linear_extensions(pi.num_blocks, tuple(pi.block_pairs()[1]))
        for pi in partitions_of(n, "noncrossing")
    })


@cache
def _linear_extensions(k: int, nesting: tuple[tuple[int, int], ...]) -> int:
    """The orders of blocks 0..k-1 that put block j after block i for each
    pair (i, j) of `nesting`, counted over the sets of blocks placed first:
    the ways[S] orders of a set S that can start an order each go on with
    every block outside S whose predecessors all lie in S.  The partitions
    of one nesting order share its count."""
    before = [0] * k
    for i, j in nesting:
        before[j] |= 1 << i
    ways = [0] * (1 << k)
    ways[0] = 1
    for placed, w in enumerate(ways):  # each set before its supersets
        if w:
            for j in range(k):
                if not placed >> j & 1 and not before[j] & ~placed:
                    ways[placed | 1 << j] += w
    return ways[-1]


@cache
def _run_counts(n: int) -> Counter[SetPartition]:
    """How many words 1 a_2 ... a_n have each partition by runs; these are
    also the cycle runs of the full cycles (1 a_2 ... a_n)."""
    return Counter(runs(Permutation((1,) + rest))[0] for rest in permutations(range(2, n + 1)))


@cache
def _cycle_run_counts(n: int) -> Counter[tuple[SetPartition, int]]:
    """How many sigma in S_n have each pair (cycle_runs(sigma), the sign
    (-1)^(#cycles - 1) of sigma)."""
    return Counter((cycle_runs(s), _sign(cycles(s))) for s in all_permutations(n))


@cache
def _shape_type_counts(n: int) -> tuple[tuple[SetPartition, int], ...]:
    """A representative pi (the first in RGS order) and the size of each
    (forest shape, block-size type) class of NC(n)."""
    first: dict[tuple, SetPartition] = {}
    sizes: Counter[tuple] = Counter()
    for pi in partitions_of(n, "noncrossing"):
        key = (_shape(pi), tuple(sorted(pi.block_sizes())))
        first.setdefault(key, pi)
        sizes[key] += 1
    return tuple((pi, sizes[key]) for key, pi in first.items())


# ---------------------------------------------------------------------------
# Permutation sums for classical cumulants
# ---------------------------------------------------------------------------


def _thm4_cyclecruns(name, n):
    # the sum of `cor_runs`: the runs of the words 1 a_2 ... a_n are the
    # cycle runs of the full cycles (1 a_2 ... a_n); it checks the row's
    # limits before the unchecked cycle-run count below is read
    rep = replace(_COR_RUNS, name=name).check(n)
    if rep.holds and n <= 6:
        # The cancellation underlying the cyclic form: phi pairs off all of
        # S_n but one permutation per interval partition, so the sigma with
        # cycle runs pi, signed (-1)^(#cycleruns - #cycles), count 1 on I(n)
        # and 0 (not less) elsewhere.
        signed = Counter()
        for (part, sign), c in _cycle_run_counts(n).items():
            signed[part] += _sign(part) * sign * c
        if {p: c for p, c in signed.items() if c} != dict.fromkeys(partitions_of(n, "interval"), 1):
            rep.holds = False
            rep.witness = "signed full-symmetric-group sum differs"
        rep.detail = {"cancellation_lemma_checked": True}
    return rep


# ---------------------------------------------------------------------------
# Case-by-case identities: each case yields the labels of its failed checks
# ---------------------------------------------------------------------------


def _failed(*checks: tuple[str, bool]) -> list[str]:
    """The labels of the (label, holds) checks that do not hold, in order."""
    return [label for label, holds in checks if not holds]


def _first_blocks(lattice: str, k: int):
    """(V, gaps) for each block V != [k] that holds 1 in a member of the
    lattice on [k]: any V and one gap, [k] minus V (all); any V and the
    maximal runs of [k] minus V (noncrossing); a prefix V and one gap."""
    for r in range(k - 1):
        for tail in combinations(range(2, k + 1), r):
            first = (1, *tail)
            if lattice == "all":
                yield first, [[x for x in range(2, k + 1) if x not in tail]]
            elif lattice == "noncrossing" or first[-1] == r + 1:
                yield first, [range(a + 1, b) for a, b in zip(first, (*tail, k + 1)) if b > a + 1]


def _lattice_formula(kinds, inverted, n):
    """On every pi of each kind's lattice: m_pi = sum over sigma in [0, pi]
    of kind_sigma or, inverted, kind_pi = sum mu(sigma, pi) m_sigma.

    [0, pi] is the product of the lattices on the blocks of pi, and both
    sides are products over those blocks with disjoint supports, so pi
    fails exactly when one of its block sizes k fails on 1_k.  Each k <= n
    is checked once by the kind's first-block recursion, the sum over the
    lattice on [k] grouped by the block V that holds 1,

        kind_k = m_[k] - sum over V != [k] of kind_V * prod over gaps g of m_g

    over the V and gaps of `_first_blocks`, kind_V from `_block_cumulant`.
    Given kind_{<k} it fixes kind_k, so it holds at every k <= n exactly
    when every sum over [0, 1_k] does.  Inverted it is the same statement:
    `_cumulant_poly` builds kind_k as the Moebius sum over the lattice on
    [k], and the recursion reads no mu and identifies no variables."""
    for kind in kinds:
        lattice = _LATTICE_OF_KIND[kind]
        members = partitions_of(n, lattice)
        _check_cumulant_limits(kind, n)
        wrong = set()
        for k in range(1, n + 1):
            rest = linear_combination(
                (1, prod(map(MomentPolynomial.symbol, gaps), start=_block_cumulant(kind, first)))
                for first, gaps in _first_blocks(lattice, k)
            )
            if _cumulant_poly(kind, k) != moment_monomial(SetPartition.one_block(k)) - rest:
                wrong.add(k)
        tag = f"{lattice}:" if inverted else "pi="
        for pi in members:
            yield [f"{tag}{pi}"] if wrong.intersection(pi.block_sizes()) else []


def _series_B(n):
    for i, m in enumerate(_random_sequences("series_B", n)):
        bm = moment_series(m)
        bs = sequence_series(cumulants_from_moments(B, m))
        yield _failed((f"seq#{i}", bs * bm == bm - 1))


def _series_R(n):
    for i, m in enumerate(_random_sequences("series_R", n)):
        ms = moment_series(m)
        rs = sequence_series(cumulants_from_moments(R, m))
        zm = TruncatedSeries.z(n) * ms
        yield _failed((f"seq#{i}", rs.compose(zm) == ms - 1))


def _swap_identities(n):
    one = TruncatedSeries.one(n)
    z = TruncatedSeries.z(n)
    for i, m in enumerate(_random_sequences("swap", n)):
        rs = sequence_series(cumulants_from_moments(R, m))
        bs = sequence_series(cumulants_from_moments(B, m))
        left_inner = z * (one - bs).reciprocal()
        right_inner = z * (one + rs).reciprocal()
        yield _failed(
            (f"seq#{i}:left", one + rs.compose(left_inner) == (one - bs).reciprocal()),
            (f"seq#{i}:right", one - bs.compose(right_inner) == (one + rs).reciprocal()),
        )


def _tilde_lemma(n):
    for i, m in enumerate(_random_sequences("tilde", n)):
        out = tilde_transform(m)
        yield _failed(
            (f"seq#{i}: not an involution", tilde_transform(out) == m),
            (f"seq#{i}: Boolean/free swap failed",
             cumulants_from_moments(B, out) == [-x for x in cumulants_from_moments(R, m)]),
            (f"seq#{i}: monotone negation failed",
             cumulants_from_moments(H, out) == [-x for x in cumulants_from_moments(H, m)]),
        )


def _monotone_flow_integer(n):
    """One case per (sequence, t, s): frak_{t+s} = frak_t o frak_s."""
    order = n + 1
    for i, h in enumerate(_random_sequences("flow", n, count=5)):
        frak = {}
        for t in range(-4, 5):
            ms = moment_series(monotone_dilate(h, t), order)
            frak[t] = TruncatedSeries.z(order) * ms
        for t in range(-2, 3):
            for s in range(-2, 3):
                yield _failed((f"seq#{i}:t={t},s={s}", frak[t + s] == frak[t].compose(frak[s])))


def _determinant_formulas(n):
    """One case per (sequence, kind) of the two determinant formulas."""
    for i, m in enumerate(_random_sequences("determinants", n)):
        for kind in (K, B):
            yield _failed((
                f"seq#{i}:{kind.value}",
                determinant_cumulants(kind.value, m) == cumulants_from_moments(kind, m),
            ))


def _lenczewski_sum(n):
    """For N = 1..5 colours, sum over NC(n) of P_pi(N) r_pi against the
    moment of the N-fold monotone dilation, as exact univariate moment
    polynomials.

    P_pi depends only on the forest shape of pi, and a univariate cumulant
    product only on its block-size type, so the free side adds one term per
    (shape, type) class of `_shape_type_counts(n)`: the weight of its
    representative times the class size.  The monotone side is
    `monotone_dilate` of the univariate monotone cumulants, by N.
    """
    _check_cumulant_limits(R, n)  # the keys of both sides
    for colors, lhs, rhs in _lenczewski_sides(n):
        yield _failed((f"N={colors}", lhs == rhs))


def _lenczewski_sides(n):
    """(N, free side, monotone side) for N = 1..5; a generator, so the count
    is read only when the caller, having checked the limits, iterates."""
    classes = _shape_type_counts(n)
    # several types share a shape: evaluate each P_pi once per N
    evaluate = lru_cache(maxsize=None)(Polynomial.evaluate)
    for colors in range(1, 6):
        lhs = _type_sum(R, n, (
            (c * evaluate(labelling_polynomial_of(pi), colors), pi) for pi, c in classes
        ))
        rhs = monotone_dilate(_symbol_cumulants(H, n), colors)[-1]
        yield colors, lhs, rhs


# ---------------------------------------------------------------------------
# Beta family
# ---------------------------------------------------------------------------


def _thm5_reducible(n):
    for pi in partitions_of(n, "all"):
        if not pi.is_irreducible():
            yield _failed((f"pi={pi}", beta_formula(pi) == 0))


def _thm5_nonesting(n):
    for pi in partitions_of(n, "irreducible"):
        if not pi.block_pairs()[1]:  # no nesting
            expected = _sign(pi) * tutte_eval(crossing_graph(pi))
            yield _failed((f"pi={pi}", beta_formula(pi) == expected))


def _thm5_depth2(n):
    for pi in partitions_of(n, "irreducible-noncrossing"):
        if depth(pi) <= 2:
            yield _failed((f"pi={pi}", beta_formula(pi) == Fraction(_sign(pi), pi.num_blocks)))


def _cor9_factorial(name, n):
    per_blocks: dict[int, int] = {}
    for pi in partitions_of(n, "irreducible"):
        t = tutte_eval(anti_interval_graph(pi))
        per_blocks[pi.num_blocks] = per_blocks.get(pi.num_blocks, 0) + t
    total = sum(per_blocks.values())
    failures = []
    if total != factorial(n - 1):
        failures.append(f"total={total} != {factorial(n - 1)}")
    for k in range(1, n + 1):
        if per_blocks.get(k, 0) != eulerian(n - 1, k - 1):
            failures.append(f"blocks={k}")
    return _quantified(name, n, failures, len(per_blocks) + 1, {"sum": str(total)})


def _prop10_eulerian(name, n):
    kappa = boolean_poisson_kappa(n)
    expected = Polynomial.monomial(1) * eulerian_polynomial(n - 1).scale_argument(-1)
    holds = kappa == expected
    return Report(
        name, n, holds, len(kappa.coeffs), len(expected.coeffs),
        None if holds else f"{kappa} != {expected}", {"kappa": kappa.to_json()},
    )


def _logbessel_carlitz(name, max_n):
    """Match n! beta(nested pairing) against the log-Bessel coefficients.

    The exponential generating function of beta over the nested pairings
    is log(1 + F) with F = sum z^k/(k!)^2, by the product formula for the
    relevant incidence-algebra convolution; the resulting integer sequence
    b_n = n! beta starts 1, -1, 4, -33, 456 and its unsigned version obeys
    the classical convolution recursion
    a_{m+1} = sum_k C(m,k) C(m,k-1) a_k a_{m+1-k}.
    """
    f = TruncatedSeries(
        [0] + [Fraction(1, factorial(k) ** 2) for k in range(1, max_n + 1)]
    )
    log_series = (1 + f).log()
    from_series = [
        factorial(k) ** 2 * log_series.coefficient(k) for k in range(1, max_n + 1)
    ]
    from_beta = [
        factorial(k) * beta_formula(nested_pair_partition(k))
        for k in range(1, max_n + 1)
    ]
    unsigned = [(-1) ** (k - 1) * v for k, v in enumerate(from_beta, start=1)]
    carlitz_ok = all(
        unsigned[m]
        == sum(
            comb(m, k) * comb(m, k - 1) * unsigned[k - 1] * unsigned[m - k]
            for k in range(1, m + 1)
        )
        for m in range(1, max_n)
    )
    holds = from_series == from_beta and all(v > 0 for v in unsigned) and carlitz_ok
    sequence = [str(v) for v in from_beta]
    return Report(
        name, max_n, holds, len(sequence), len(sequence),
        None if holds else f"series={from_series} beta={from_beta}",
        {"sequence": sequence},
    )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


#: Theorem 2, monotone cumulants as alpha-weighted sums: the univariate rows
_THM2 = [
    FamilySum("thm2_free2mono", 10, H, R, "irreducible-noncrossing",
              lambda pi: alpha(pi), True,
              "univariate monotone cumulants from free cumulants with alpha weights"),
    FamilySum("thm2_boolean2mono", 10, H, B, "irreducible-noncrossing",
              lambda pi: _sign(pi) * alpha(pi), True,
              "univariate monotone cumulants from Boolean cumulants with signed alpha weights"),
    FamilySum("thm2_class2mono", 8, H, K, "irreducible",
              lambda pi: alpha(pi.noncrossing_closure()), True,
              "univariate monotone cumulants from classical cumulants via noncrossing closures"),
]

#: and the same sums without identifying the variables, each derived from
#: its univariate row with its max_n (classical stops at 8; n = 9 takes
#: 1.9 s and 171 MB)
_THM2_MULTIVARIATE = [
    replace(row, name=f"{row.name}_mv", univariate=False,
            summary=row.summary.replace("univariate", "multivariate", 1))
    for row in _THM2
]


#: the runs corollary: the partitions by runs of the words 1 a_2 ... a_n are
#: the irreducible partitions of [n], each weighted by its number of words
_COR_RUNS = FamilySum("cor_runs", 7, K, B, "irreducible",
                      lambda pi: _sign(pi) * _run_counts(pi.n)[pi], False,
                      "classical cumulants as signed Boolean sums over runs of permutations fixing 1")


@dataclass(frozen=True)
class Cases:
    """Catalog row checked case by case: `cases(n)` yields, for each case,
    the labels of its failed checks (an empty list when the case holds).
    The report counts the cases and quotes the first three labels."""

    name: str
    max_n: int
    cases: Callable[[int], Iterable[list[str]]]
    summary: str

    def check(self, n: int) -> Report:
        outcomes = list(self.cases(n))
        failures = [label for labels in outcomes for label in labels]
        return _quantified(self.name, n, failures, len(outcomes))


@dataclass(frozen=True)
class IdentityInfo:
    """Catalog row of an identity whose report carries more than failure
    labels: `report(name, n)` builds it under the row's name."""

    name: str
    max_n: int
    report: Callable[[str, int], Report]
    summary: str

    def check(self, n: int) -> Report:
        return self.report(self.name, n)


IDENTITY_CATALOG: dict[str, FamilySum | Cases | IdentityInfo] = {
    i.name: i
    for i in [
        FamilySum("free2boolean", 8, B, R, "irreducible-noncrossing", lambda pi: 1, False,
                  "Boolean cumulants as sums of free cumulants over irreducible noncrossing partitions"),
        FamilySum("class2free", 7, R, K, "connected", lambda pi: 1, False,
                  "free cumulants as sums of classical cumulants over connected partitions"),
        FamilySum("class2boolean", 7, B, K, "irreducible", lambda pi: 1, False,
                  "Boolean cumulants as sums of classical cumulants over irreducible partitions"),
        FamilySum("boolean2free", 8, R, B, "irreducible-noncrossing", _sign, False,
                  "free cumulants as signed sums of Boolean cumulants"),
        FamilySum("free2class_tutte", 7, K, R, "connected",
                  lambda pi: _sign(pi) * tutte_eval(crossing_graph(pi)), False,
                  "classical cumulants from free cumulants weighted by crossing-graph Tutte values"),
        FamilySum("thm1_mono2boolean", 10, B, H, "irreducible-noncrossing",
                  lambda pi: Fraction(1, partition_tree_factorial(pi)), False,
                  "Boolean cumulants from monotone cumulants with nesting-forest weights",
                  ordered_max_n=6),
        FamilySum("thm1_mono2free", 10, R, H, "irreducible-noncrossing",
                  lambda pi: Fraction(_sign(pi), partition_tree_factorial(pi)), False,
                  "free cumulants from monotone cumulants with signed nesting-forest weights",
                  ordered_max_n=6),
        *_THM2,
        *_THM2_MULTIVARIATE,
        FamilySum("thm3_boolean2class_tutte", 7, K, B, "irreducible",
                  lambda pi: _sign(pi) * tutte_eval(anti_interval_graph(pi)), False,
                  "classical cumulants from Boolean cumulants weighted by anti-interval Tutte values"),
        IdentityInfo("thm4_cyclecruns", 7, _thm4_cyclecruns,
                     "classical cumulants as signed Boolean sums over cycle runs of full cycles"),
        _COR_RUNS,
        Cases("moment_cumulant_K", 9, partial(_lattice_formula, [K], False),
              "defining moment formula of classical cumulants on every partition"),
        Cases("moment_cumulant_R", 10, partial(_lattice_formula, [R], False),
              "defining moment formula of free cumulants on every noncrossing partition"),
        Cases("moment_cumulant_B", 10, partial(_lattice_formula, [B], False),
              "defining moment formula of Boolean cumulants on every interval partition"),
        FamilySum("moment_cumulant_H", 9, None, H, "noncrossing",
                  lambda pi: Fraction(1, partition_tree_factorial(pi)), False,
                  "monotone moment formula, grouped and ordered forms", ordered_max_n=7),
        Cases("mobius_inversions", 8, partial(_lattice_formula, [K, R, B], True),
              "Moebius-inverted cumulant formulas on all three lattices"),
        Cases("series_B", 10, _series_B,
              "B(z) M(z) = M(z) - 1 on random rational moment sequences"),
        Cases("series_R", 10, _series_R,
              "R(z M(z)) = M(z) - 1 on random rational moment sequences"),
        Cases("swap_identities", 10, _swap_identities,
              "the two reciprocal substitution identities exchanged by the tilde map"),
        Cases("tilde_lemma", 10, _tilde_lemma,
              "tilde swaps free and Boolean cumulants and negates monotone ones"),
        Cases("monotone_flow_integer", 10, _monotone_flow_integer,
              "integer-parameter composition law of the monotone dilation"),
        Cases("lenczewski_sum", 10, _lenczewski_sum,
              "colored free-cumulant sums match monotone dilation moments"),
        FamilySum("beta_expansion", 6, K, H, "all", lambda pi: beta_formula(pi), False,
                  "classical cumulants as beta-weighted monotone cumulants"),
        Cases("thm5_reducible", 6, _thm5_reducible,
              "beta vanishes on reducible partitions"),
        Cases("thm5_nonesting", 6, _thm5_nonesting,
              "beta equals the signed Tutte coefficient on nesting-free partitions"),
        Cases("thm5_depth2", 7, _thm5_depth2,
              "beta is (-1)^(k-1)/k on irreducible noncrossing partitions of depth <= 2"),
        IdentityInfo("cor9_factorial", 7, _cor9_factorial,
                     "anti-interval Tutte values over irreducible partitions sum to (n-1)!"),
        IdentityInfo("prop10_eulerian", 10, _prop10_eulerian,
                     "constant Boolean cumulants give Eulerian classical cumulants"),
        Cases("determinant_formulas", 10, _determinant_formulas,
              "Hessenberg determinant formulas match the Moebius route"),
        IdentityInfo("logbessel_carlitz", 7, _logbessel_carlitz,
                     "nested-pairing beta values follow the log-Bessel series and its recursion"),
    ]
}


def identity_names() -> list[str]:
    return list(IDENTITY_CATALOG)


def _catalog_row(name: str, n: int = 1):
    """The catalog row of `name`, after checking 1 <= n <= its max_n."""
    info = IDENTITY_CATALOG.get(name)
    if info is None:
        known = ", ".join(IDENTITY_CATALOG)
        raise ValueError(f"unknown identity {name!r}; known identities: {known}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > info.max_n:
        raise ResourceLimitError(
            f"identity {name} is limited to n <= {info.max_n} (asked for {n})"
        )
    return info


def verify_identity(name: str, n: int) -> Report:
    """Run one identity at one n; exact comparison, never tolerant."""
    return _catalog_row(name, n).check(n)


def catalog_jobs(n_max: int, names=None, strict: bool = False) -> list[tuple[str, int]]:
    """The (identity, n) pairs for n = 1 .. n_max, identity by identity, each
    clamped to its max_n; with strict=True a larger n_max raises up front.
    An n_max below 1 raises in both modes: there is nothing to check."""
    if n_max < 1:
        raise ValueError("n must be positive")
    jobs = []
    for name in names or identity_names():
        top = min(n_max, _catalog_row(name, n_max if strict else 1).max_n)
        jobs.extend((name, n) for n in range(1, top + 1))
    return jobs


def run_catalog(n_max: int) -> list[Report]:
    """Verify the clamped `catalog_jobs` pairs in order."""
    return [verify_identity(*job) for job in catalog_jobs(n_max)]
