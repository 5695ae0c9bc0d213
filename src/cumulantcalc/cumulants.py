"""The four cumulant families as exact moment polynomials, univariate
conversions, the tilde and dilation transforms, and the beta coefficients.

Cumulant families (multivariate, as polynomials in moment symbols):

* classical K_n: Moebius inversion over the full partition lattice P(n);
* free      R_n: Moebius inversion over noncrossing partitions NC(n);
* Boolean   B_n: Moebius inversion over interval partitions I(n);
* monotone  H_n: triangular solve of
      m_{[n]} = sum over NC(n) of H_pi / tau(pi)!
  which is the ungrouped form of the ordered-partition sum with weights
  1/|pi|! (each noncrossing pi admits |pi|!/tau(pi)! monotone orders).

Univariate sequences use moments as the universal pivot basis: every
family's moment-cumulant sum over its lattice has a short recursion in
m_0 = 1, m_1, ... (binomial for classical, first block for Boolean,
R-transform for free, the monotone flow of Hasebe and Saigo for monotone),
run forwards or triangularly inverted exactly (`_recursion`), with no
lattice enumerated.  Rational sequences are recursed in integers: the k-th
value is scaled by Q^k, Q the lcm of the denominators (times N! for
monotone), and the k-th result divided by Q^k at the end (`_scaled`).

The beta coefficients express classical cumulants in the monotone family:
K_n = sum over P(n) of beta(pi) H_pi.  They are computed by the closed sum

    beta(pi) = sum over sigma >= pi with all restrictions noncrossing of
               mu_P(sigma, top) / prod_W tau(pi|_W)!

memoized on the anti-interval digraph, which determines beta, keyed as the
block count and the crossing and nesting pairs of `SetPartition.block_pairs`.
The sum reads those relations as bitmasks and never rebuilds a restricted
partition.  The recursion that peels the top of the lattice is the test
suite's independent check.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .algebra import (
    MomentPolynomial,
    Polynomial,
    TruncatedSeries,
    linear_combination,
    moment_monomial,
)
from .forests import partition_tree_factorial
from .limits import check_limit
from .partitions import SetPartition, mobius_to_top, partitions_of

__all__ = [
    "CumulantKind",
    "cumulant_poly",
    "partitioned_cumulant",
    "moments_from_cumulants",
    "cumulants_from_moments",
    "convert_sequence",
    "moment_series",
    "sequence_series",
    "tilde_transform",
    "monotone_dilate",
    "boolean_poisson_kappa",
    "determinant_cumulants",
    "beta_formula",
    "build_beta_table",
    "nested_pair_partition",
]


class CumulantKind(enum.Enum):
    CLASSICAL = "classical"
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"


#: the lattice each kind's sums run over: its Moebius inversion for K, R
#: and B, the tau-weighted noncrossing sum for H
_LATTICE_OF_KIND = {
    CumulantKind.CLASSICAL: "all",
    CumulantKind.FREE: "noncrossing",
    CumulantKind.BOOLEAN: "interval",
    CumulantKind.MONOTONE: "noncrossing",
}


# ---------------------------------------------------------------------------
# Multivariate cumulant polynomials
# ---------------------------------------------------------------------------


def _check_cumulant_limits(kind: CumulantKind, n: int) -> None:
    """Raise unless a cumulant polynomial of order n is within its limits.

    The caches below never check: a caller that reads `_partitioned_cumulant`
    checks once, at an n no smaller than any block it reads.
    """
    if n < 1:
        raise ValueError("n must be positive")
    key = "cumulant-classical" if kind is CumulantKind.CLASSICAL else "cumulant-other"
    check_limit(key, n)
    check_limit(_LATTICE_OF_KIND[kind], n)


def cumulant_poly(kind: CumulantKind, n: int) -> MomentPolynomial:
    """The n-th cumulant of (X_1, ..., X_n) as a moment polynomial.

    The limits are checked on every call, hit or miss, so a limit lowered
    after the first call is never bypassed by the cache.
    """
    _check_cumulant_limits(kind, n)
    return _cumulant_poly(kind, n)


def partitioned_cumulant(kind: CumulantKind, pi: SetPartition) -> MomentPolynomial:
    """Product over the blocks V of pi of the |V|-th cumulant on X_V,
    checked like `cumulant_poly` at the largest block."""
    _check_cumulant_limits(kind, max(pi.block_sizes()))
    return _partitioned_cumulant(kind, pi)


@lru_cache(maxsize=None)
def _cumulant_poly(kind: CumulantKind, n: int) -> MomentPolynomial:
    if kind is CumulantKind.MONOTONE:
        # Triangular solve against the tau-weighted noncrossing sum.
        pairs = (
            (1, moment_monomial(pi)) if pi.num_blocks == 1
            else (-Fraction(1, partition_tree_factorial(pi)), _partitioned_cumulant(kind, pi))
            for pi in partitions_of(n, "noncrossing")
        )
    else:
        lattice = _LATTICE_OF_KIND[kind]
        pairs = (
            (mobius_to_top(pi, lattice), moment_monomial(pi))
            for pi in partitions_of(n, lattice)
        )
    return linear_combination(pairs)


@lru_cache(maxsize=None)
def _block_cumulant(kind: CumulantKind, block: tuple[int, ...]) -> MomentPolynomial:
    """The |block|-th cumulant relabelled onto `block`: one relabel per
    (kind, block) per process."""
    return _cumulant_poly(kind, len(block)).relabel(block)


@lru_cache(maxsize=None)
def _partitioned_cumulant(kind: CumulantKind, pi: SetPartition) -> MomentPolynomial:
    """The blocks' cumulants, each relabelled onto its block, multiplied
    together.  The blocks are disjoint, so every product is a product of
    multilinear factors with disjoint supports: no two term pairs merge.
    The factors go smallest block first, so the partial products stay
    small until the largest factor multiplies in."""
    first, *rest = sorted(pi.blocks, key=len)
    out = _block_cumulant(kind, first)
    for block in rest:
        out = out * _block_cumulant(kind, block)
    return out


cumulant_poly.cache_info = _cumulant_poly.cache_info
cumulant_poly.cache_clear = _cumulant_poly.cache_clear
partitioned_cumulant.cache_info = _partitioned_cumulant.cache_info
partitioned_cumulant.cache_clear = _partitioned_cumulant.cache_clear


# ---------------------------------------------------------------------------
# Univariate sequences (moments as the pivot basis)
# ---------------------------------------------------------------------------


def _scaled(values, factor: int | None = None):
    """Rational values scaled to integers.

    With Q = D * factor, D the lcm of the denominators, x_k = v_k Q^k is an
    integer.  Give v_k the weight k: every term at step n of the recursions
    of `_recursion` has weight n, so on the x_k it is Q^n times its value,
    and the inversion solves for Q^n times the n-th cumulant.  The
    recursions therefore run on the x_k in integers, and `_unscaled`
    divides result n by Q^n.  Returns (Q, [x_1, x_2, ...]), or
    (None, values) for input that is left as it is: symbolic values
    (moment polynomials, polynomials), and ints when no factor is given.
    """
    if not all(isinstance(v, (int, Fraction)) for v in values) or (
        factor is None and all(type(v) is int for v in values)
    ):
        return None, values
    q = (factor or 1) * lcm(*(v.denominator for v in values))
    return q, [v.numerator * (q**k // v.denominator) for k, v in enumerate(values, 1)]


def _unscaled(q: int | None, values) -> list:
    """Term k of a sequence scaled by `_scaled` divided by Q^k."""
    return values if q is None else [Fraction(v, q**k) for k, v in enumerate(values, 1)]


def _recursion(kind: CumulantKind, values, forward: bool) -> list:
    """The kind's moment-cumulant relation, solved one n at a time.

    With m_0 = 1, step n computes rest_n, the terms of m_n other than u_n,
    from u_{<n} and m_{<n}, and then sets m_n = u_n + rest_n (`forward`,
    values are cumulants) or u_n = m_n - rest_n (values are moments):

    * classical: rest_n = sum_{k<n} C(n-1, k-1) u_k m_{n-k};
    * Boolean:   rest_n = sum_{k<n} u_k m_{n-k};
    * free:      rest_n = sum_{s<n} u_s P_s[n-s], P_s[j] = [z^j] M(z)^s with
      M(z) = 1 + sum m_k z^k (the R-transform), one entry per row per step;
    * monotone:  the flow of Hasebe and Saigo, "The monotone cumulants"
      (2011): the moments m_n(t) of the cumulants t * u solve
      dm_n/dt = sum_k (n-k+1) u_k m_{n-k}(t).  E_n[j] = j! [t^j] m_n(t)
      has E_n[1] = u_n and E_n[j+1] = sum_k (n-k+1) u_k E_{n-k}[j], and
      m_n = m_n(1), so rest_n = (sum_{j>=2} E_n[j] n!/j!) / n!.

    Rational input runs on the integers of `_scaled`, with Q = D for K, R
    and B, so int input gives ints.  For H, Q = D * N!, N the length, which
    makes every E_n[j] and rest_n an integer and the division by n! exact.
    Let g_k be the monotone cumulants of the integers v_k D^k; by induction
    on k, g_k (N!)^(k-1) is an integer: g_k is v_k D^k minus the sum over
    the pi in NC(k) with b >= 2 blocks of g_pi / tau(pi)!, and tau(pi)!
    divides b!, which divides N!, so each term is an integer over
    (N!)^(k-b+1), k - b + 1 <= k - 1.  So the scaled cumulants g_k (N!)^k
    are integers, and so are the scaled moments of integer scaled
    cumulants, each term an integer times (N!)^n / tau(pi)!.  Symbolic
    input runs unscaled, with one scalar 1/n! per step for H.
    """
    values = list(values)
    size = len(values)
    check_limit(_LATTICE_OF_KIND[kind], size)
    if not size:
        return []
    monotone = kind is CumulantKind.MONOTONE
    q, values = _scaled(values, factorial(size) if monotone else None)
    zero = values[0] * 0
    fact = [factorial(i) for i in range(size + 1)]
    m = [1]  # m_0
    u = [None]  # u_0 is never read
    powers = [None, m]  # free: powers[s][j] = [z^j] M(z)^s, and M^1 is m
    flow = [None]  # monotone: flow[n][j] = E_n[j] for j >= 1
    for n in range(1, size + 1):
        if kind is CumulantKind.CLASSICAL:
            rest = sum((comb(n - 1, k - 1) * u[k] * m[n - k] for k in range(1, n)), zero)
        elif kind is CumulantKind.BOOLEAN:
            rest = sum((u[k] * m[n - k] for k in range(1, n)), zero)
        elif kind is CumulantKind.FREE:
            for s in range(2, n):
                row, j = powers[s - 1], n - s
                powers[s].append(sum((row[i] * m[j - i] for i in range(j + 1)), zero))
            powers.append([1])
            rest = sum((u[s] * powers[s][n - s] for s in range(1, n)), zero)
        else:
            w = [None] + [(n - k + 1) * u[k] for k in range(1, n)]
            flow_n = [None, None] + [
                sum((w[k] * flow[n - k][j] for k in range(1, n - j + 1)), zero)
                for j in range(1, n)
            ]
            rest = sum((flow_n[j] * (fact[n] // fact[j]) for j in range(2, n + 1)), zero)
            rest = rest // fact[n] if q else rest * Fraction(1, fact[n])
        if forward:
            u.append(values[n - 1])
            m.append(values[n - 1] + rest)
        else:
            m.append(values[n - 1])
            u.append(values[n - 1] - rest)
        if monotone:
            flow_n[1] = u[n]
            flow.append(flow_n)
    return _unscaled(q, (m if forward else u)[1:])


def moments_from_cumulants(kind: CumulantKind, values) -> list:
    """m_n = sum over the lattice of weight * prod of cumulants per block,
    by the kind's recursion (`_recursion`): Fractions for rational input
    with a Fraction among it, and for H; ints for int input to K, R and B.
    """
    return _recursion(kind, values, forward=True)


def cumulants_from_moments(kind: CumulantKind, moments) -> list:
    """The inverse of `moments_from_cumulants`, by the same recursion."""
    return _recursion(kind, moments, forward=False)


_SEQUENCE_KINDS = {"moments": None, **{k.value: k for k in CumulantKind}}


def convert_sequence(src: str, dst: str, values) -> list:
    """Exact univariate conversion between moment/cumulant coordinates."""
    values = list(values)
    for name in (src, dst):
        if name not in _SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {name!r}")
    if src == dst:
        return values
    moments = (
        values
        if src == "moments"
        else moments_from_cumulants(_SEQUENCE_KINDS[src], values)
    )
    if dst == "moments":
        return moments
    return cumulants_from_moments(_SEQUENCE_KINDS[dst], moments)


def moment_series(moments, order: int | None = None) -> TruncatedSeries:
    """Ordinary generating function 1 + sum m_k z^k."""
    moments = list(moments)
    return TruncatedSeries([Fraction(1)] + [Fraction(v) for v in moments], order)


def sequence_series(values) -> TruncatedSeries:
    """Ordinary generating function sum a_k z^k (zero constant term)."""
    return TruncatedSeries([Fraction(0)] + [Fraction(v) for v in values])


# ---------------------------------------------------------------------------
# Tilde transform and monotone dilation
# ---------------------------------------------------------------------------


def tilde_transform(moments) -> list:
    """Moments of the companion variable with free cumulants -Boolean(X).

    The output sequence satisfies Boolean(out) = -free(in) and
    monotone(out) = -monotone(in), and the transform is an involution on
    moment sequences; the `tilde_lemma` identity checks all three.
    """
    moments = list(moments)
    b = cumulants_from_moments(CumulantKind.BOOLEAN, moments)
    return moments_from_cumulants(CumulantKind.FREE, [-x for x in b])


def monotone_dilate(cumulants, t) -> list:
    """Moments after scaling every monotone cumulant by t.

    m_n(t) = sum over NC(n) of t^|pi| / tau(pi)! * prod h_{|V|}, the plain
    moment-cumulant formula for the cumulants t * h, since each block
    carries one factor t; t = -1 gives the tilde companion.
    """
    return moments_from_cumulants(CumulantKind.MONOTONE, [t * x for x in cumulants])


# ---------------------------------------------------------------------------
# Boolean Poisson, determinants
# ---------------------------------------------------------------------------


def boolean_poisson_kappa(n: int) -> Polynomial:
    """Classical cumulant of the law whose Boolean cumulants all equal x.

    Computed by converting b_k = x to moments and then to classical
    cumulants with polynomial coefficients; the `prop10_eulerian` identity
    checks that the result is x * E_{n-1}(-x) with E the Eulerian
    polynomial.
    """
    if n < 1:
        raise ValueError("n must be positive")
    x = Polynomial.monomial(1)
    moments = moments_from_cumulants(CumulantKind.BOOLEAN, [x] * n)
    return cumulants_from_moments(CumulantKind.CLASSICAL, moments)[n - 1]


def determinant_cumulants(kind: str, moments) -> list[Fraction]:
    """Classical or Boolean cumulants via the Hessenberg determinants.

    A is lower Hessenberg with ones on the superdiagonal (1-based), and D_k
    is its leading minor of order k.  Classical: with f_i = m_i/i!,
    A[i][1] = i f_i and A[i][j] = f_{i-j+1} for 2 <= j <= i, and kappa_k =
    (-1)^(k-1) (k-1)! D_k; Boolean: A[i][j] = m_{i-j+1} and b_k =
    (-1)^(k-1) D_k.  Along the last row, the minor of A[k][j] is block
    triangular: A_{j-1}, then a triangle with the unit superdiagonal on its
    diagonal.  So D_0 = 1 and D_k = sum_j (-1)^(k-j) A[k][j] D_{j-1}, every
    minor in one pass.  Must agree with the Moebius route.
    """
    m = [Fraction(v) for v in moments]
    if kind == "classical":
        f = [v / factorial(i) for i, v in enumerate(m, start=1)]
    elif kind == "boolean":
        f = m
    else:
        raise ValueError(f"unknown determinant kind {kind!r}")
    minors = [Fraction(1)]
    out = []
    for k in range(1, len(m) + 1):
        row = [f[k - j] for j in range(1, k + 1)]  # A[k][1..k]
        if kind == "classical":
            row[0] *= k
        det = 0
        for j, a in enumerate(row, start=1):
            term = a * minors[j - 1]
            det = det - term if (k - j) % 2 else det + term
        minors.append(det)
        value = det if k % 2 else -det
        out.append(value * factorial(k - 1) if kind == "classical" else value)
    return out


# ---------------------------------------------------------------------------
# Beta coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _beta_closed_sum(k: int, crossing, nesting) -> Fraction:
    """The closed sum for beta, from the anti-interval digraph of pi.

    The k blocks of pi are numbered 0..k-1; `crossing` holds the crossing
    pairs (i, j) and `nesting` the pairs (i, j) with block j nested inside
    block i.  Both become bitmasks per block: cross[i] and inside[i].  For
    a set G of blocks, the restriction of pi to their union is noncrossing
    iff cross[i] & G == 0 for every i in G, and then its tree factorial is
    the product over i in G of 1 + |inside[i] & G| (the formula of
    `forests.partition_tree_factorial`, with G all the blocks).

    With h(G) = [noncrossing] / tau(G)!, the closed sum is the sum over the
    partitions sigma of the block set of mu_P(sigma, top) * prod_W h(W):
    the classical cumulant of the "moments" h.  It is summed by the
    moment-cumulant recursion on the class that holds block 0,

        c(M) = h(M) - sum over C with 0 in C, C a proper subset of M,
                      of c(C) * h(M minus C),

    over the 2^(k-1) sets M that hold block 0 (3^(k-1) terms in all).  In
    the integers H(M) = |M|! h(M) (tau(G) divides |G|!) and
    K(M) = |M|! c(M) the recursion reads
    K(M) = H(M) - sum of binom(|M|, |C|) K(C) H(M minus C), and
    beta = K(all blocks) / k!.
    """
    cross = [0] * k
    inside = [0] * k
    for i, j in crossing:
        cross[i] |= 1 << j
        cross[j] |= 1 << i
    for i, j in nesting:
        inside[i] |= 1 << j
    size = 1 << k
    fact = [factorial(m) for m in range(k + 1)]
    # H[M] = |M|! / tau(M)! if the restriction to M is noncrossing, else 0
    H = [0] * size
    H[0] = 1
    for M in range(1, size):
        low = M & -M
        rest = M ^ low
        if not H[rest] or cross[low.bit_length() - 1] & rest:
            continue
        tau = 1
        bits = M
        while bits:
            b = bits & -bits
            tau *= 1 + (inside[b.bit_length() - 1] & M).bit_count()
            bits ^= b
        H[M] = fact[M.bit_count()] // tau
    binom = [[comb(m, c) for c in range(m + 1)] for m in range(k + 1)]
    K = [0] * size
    for M in range(1, size, 2):  # the sets that hold block 0
        total = H[M]
        rest = M ^ 1
        row = binom[M.bit_count()]
        sub = rest
        while sub:  # C = {0} + every proper subset of rest
            sub = (sub - 1) & rest
            kc = K[sub | 1]
            hr = H[rest ^ sub]
            if kc and hr:
                total -= row[sub.bit_count() + 1] * kc * hr
        K[M] = total
    return Fraction(K[size - 1], fact[k])


def _beta_key(pi: SetPartition) -> tuple:
    """(k, crossing, nesting): pi's anti-interval digraph, beta's memo key."""
    crossing, nesting = pi.block_pairs()
    return pi.num_blocks, tuple(crossing), tuple(nesting)


def beta_formula(pi: SetPartition) -> Fraction:
    """The coefficient of H_pi in the classical cumulant K_n, by the closed
    sum over coarsenings with noncrossing restrictions."""
    check_limit("beta-blocks", pi.num_blocks)
    return _beta_closed_sum(*_beta_key(pi))


def build_beta_table(n: int) -> tuple[tuple[SetPartition, tuple, Fraction], ...]:
    """beta of every partition of [n], as (partition, digraph key, beta) rows."""
    check_limit("beta-blocks", n)  # no partition of [n] has more blocks
    rows = []
    for pi in partitions_of(n, "all"):
        key = _beta_key(pi)
        rows.append((pi, key, _beta_closed_sum(*key)))
    return tuple(rows)


def nested_pair_partition(n: int) -> SetPartition:
    """The fully nested pairing {{1,2n},{2,2n-1},...,{n,n+1}}."""
    return SetPartition.from_blocks(
        2 * n, [[i, 2 * n + 1 - i] for i in range(1, n + 1)]
    )
