"""Cumulant polynomials, conversions, transforms, beta coefficients."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from cumulantcalc import cumulants
from cumulantcalc.algebra import MomentPolynomial, Polynomial
from cumulantcalc.cumulants import (
    CumulantKind,
    beta_formula,
    boolean_poisson_kappa,
    build_beta_table,
    convert_sequence,
    cumulant_poly,
    cumulants_from_moments,
    determinant_cumulants,
    moments_from_cumulants,
    monotone_dilate,
    nested_pair_partition,
    partitioned_cumulant,
    tilde_transform,
)
from cumulantcalc.graphs import MixedGraph, anti_interval_digraph
from cumulantcalc.identities import _lattice_formula, verify_identity
from cumulantcalc.forests import partition_tree_factorial
from cumulantcalc.limits import DEFAULT_LIMITS, ResourceLimitError, override
from cumulantcalc.partitions import SetPartition, enumerate_monotone, partitions_of
from cumulantcalc.permutations import eulerian_polynomial
from oracles import (
    beta_by_coarsenings,
    cumulants_per_partition,
    det_by_elimination,
    determinant_moments,
    evaluate_moment_polynomial,
    fd_cumulant,
    fd_partitioned_cumulant,
    moments_per_partition,
)

K, R, B, H = (
    CumulantKind.CLASSICAL,
    CumulantKind.FREE,
    CumulantKind.BOOLEAN,
    CumulantKind.MONOTONE,
)

P = SetPartition.from_text
sym = MomentPolynomial.symbol


def test_cumulant_poly_small_cases():
    for kind in CumulantKind:
        assert cumulant_poly(kind, 1) == sym((1,))
        assert cumulant_poly(kind, 2) == sym((1, 2)) - sym((1,)) * sym((2,))
    b3 = (
        sym((1, 2, 3))
        - sym((1, 2)) * sym((3,))
        - sym((1,)) * sym((2, 3))
        + sym((1,)) * sym((2,)) * sym((3,))
    )
    assert cumulant_poly(B, 3) == b3
    k3 = (
        sym((1, 2, 3))
        - sym((1, 2)) * sym((3,))
        - sym((1, 3)) * sym((2,))
        - sym((2, 3)) * sym((1,))
        + 2 * sym((1,)) * sym((2,)) * sym((3,))
    )
    assert cumulant_poly(K, 3) == k3
    # every partition of [3] is noncrossing and the Moebius values agree,
    # so classical and free coincide there; n = 4 is the first divergence:
    # the crossing pairing enters K only, and the two partitions above it
    # have Moebius 2 in P(4) but 1 in NC(4), while the bottom has -6 vs -5
    assert cumulant_poly(R, 3) == k3
    diff = cumulant_poly(K, 4) - cumulant_poly(R, 4)
    expected = (
        -sym((1, 3)) * sym((2, 4))
        - sym((1,)) * sym((2,)) * sym((3,)) * sym((4,))
        + sym((1, 3)) * sym((2,)) * sym((4,))
        + sym((2, 4)) * sym((1,)) * sym((3,))
    )
    assert diff == expected


def test_cumulant_poly_limits():
    with pytest.raises(ResourceLimitError):
        cumulant_poly(K, 10)
    with pytest.raises(ValueError):
        cumulant_poly(K, 0)


def test_partitioned_cumulant():
    pi = SetPartition.singletons(3)
    prod = sym((1,)) * sym((2,)) * sym((3,))
    for kind in CumulantKind:
        assert partitioned_cumulant(kind, pi) == prod
        assert partitioned_cumulant(kind, SetPartition.one_block(3)) == cumulant_poly(
            kind, 3
        )
    got = partitioned_cumulant(K, P("1,3|2"))
    expect = (sym((1, 3)) - sym((1,)) * sym((3,))) * sym((2,))
    assert got == expect


def test_cumulant_poly_matches_fraction_dict_oracle():
    for kind in CumulantKind:
        for n in range(1, 8):
            expected = sorted(fd_cumulant(kind, n).items())
            assert cumulant_poly(kind, n).sorted_terms() == expected, (kind, n)
    for pi in partitions_of(6, "all"):  # crossing partitions included
        for kind in CumulantKind:
            expected = sorted(fd_partitioned_cumulant(kind, pi).items())
            assert partitioned_cumulant(kind, pi).sorted_terms() == expected, (kind, pi)


def test_partitioned_cumulants_relabel_each_block_once(monkeypatch):
    real = MomentPolynomial.relabel
    blocks = Counter()

    def counting(self, block):
        blocks[block] += 1
        return real(self, block)

    monkeypatch.setattr(MomentPolynomial, "relabel", counting)
    for kind in CumulantKind:
        cumulants._block_cumulant.cache_clear()
        cumulants._partitioned_cumulant.cache_clear()
        cumulants._cumulant_poly.cache_clear()
        blocks.clear()
        for _ in range(2):
            for pi in partitions_of(6, "all"):
                partitioned_cumulant(kind, pi)
        every = {block for pi in partitions_of(6, "all") for block in pi.blocks}
        assert set(blocks) == every and set(blocks.values()) == {1}, kind


@pytest.mark.parametrize("kind", [K, R, B])
@pytest.mark.parametrize("inverted, n", [(False, 7)])
def test_lattice_rows_relabel_each_block_once(monkeypatch, kind, inverted, n):
    # with the block cumulants emptied, one row call relabels kind_k onto
    # each first block V != [k] of its lattice on [k] once, however many k
    # read it, and a second call relabels nothing
    list(_lattice_formula([kind], inverted, n))
    cumulants._block_cumulant.cache_clear()
    real = MomentPolynomial.relabel
    blocks = Counter()

    def counting(self, block):
        blocks[block] += 1
        return real(self, block)

    monkeypatch.setattr(MomentPolynomial, "relabel", counting)
    assert all(case == [] for case in _lattice_formula([kind], inverted, n))
    lattice = cumulants._LATTICE_OF_KIND[kind]
    every = {pi.blocks[0] for pi in partitions_of(n, lattice) if pi.num_blocks > 1}
    assert set(blocks) == every and set(blocks.values()) == {1}, kind
    blocks.clear()
    assert all(case == [] for case in _lattice_formula([kind], inverted, n))
    assert not blocks, kind


def test_sequences_match_polynomials():
    # substituting a numeric moment sequence into the polynomial layer
    rng = random.Random(3)
    for n in range(1, 8):
        m = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]

        def val(s):  # univariate: symbol of size k means m_k
            return m[len(s) - 1]

        for kind in CumulantKind:
            seq = cumulants_from_moments(kind, m)
            u = cumulant_poly(kind, n).univariate()
            assert evaluate_moment_polynomial(u, val) == seq[n - 1]


def test_univariate_cumulants_of_moment_symbols():
    # cumulants_from_moments on the symbols m_{1..k} is the identified
    # multivariate cumulant polynomial
    symbols = [sym(range(1, k + 1)).univariate() for k in range(1, 8)]
    for kind in CumulantKind:
        got = cumulants_from_moments(kind, symbols)
        for k in range(1, 8):
            assert got[k - 1] == cumulant_poly(kind, k).univariate(), (kind, k)


def test_convert_sequence_examples():
    vals = [Fraction(1), Fraction(2), Fraction(7)]
    assert convert_sequence("classical", "classical", vals) == vals
    assert convert_sequence("moments", "free", [Fraction(1)] * 3) == [
        Fraction(1),
        Fraction(0),
        Fraction(0),
    ]
    assert convert_sequence("boolean", "moments", [Fraction(1)] * 4) == [
        Fraction(1),
        Fraction(2),
        Fraction(4),
        Fraction(8),
    ]
    with pytest.raises(ValueError):
        convert_sequence("bogus", "moments", vals)


def test_conversion_round_trips():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 9)
        m = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        for kind in ("classical", "free", "boolean", "monotone"):
            there = convert_sequence("moments", kind, m)
            back = convert_sequence(kind, "moments", there)
            assert back == m
            assert all(type(v) is Fraction for v in there + back)


def test_tilde_transform():
    zero = [Fraction(0)] * 5
    assert tilde_transform(zero) == zero
    ones = [Fraction(1)] * 5
    assert tilde_transform(ones) == [Fraction(-1) ** k for k in range(1, 6)]
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 9)
        m = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        out = tilde_transform(m)
        assert tilde_transform(out) == m
        assert cumulants_from_moments(B, out) == [-x for x in cumulants_from_moments(R, m)]
        assert cumulants_from_moments(H, out) == [-x for x in cumulants_from_moments(H, m)]


def test_monotone_dilate():
    h = [Fraction(1), Fraction(-2), Fraction(5)]
    assert monotone_dilate(h, 0) == [Fraction(0)] * 3
    assert monotone_dilate(h, 1) == moments_from_cumulants(H, h)
    m = [Fraction(2), Fraction(1), Fraction(-3), Fraction(1, 2)]
    hh = cumulants_from_moments(H, m)
    assert monotone_dilate(hh, -1) == tilde_transform(m)
    # dilation by integers composes additively on cumulants
    assert cumulants_from_moments(H, monotone_dilate(h, 7)) == [7 * x for x in h]


def test_lenczewski_examples(monkeypatch):
    # each n checks N = 1..5 colours; N = 1 reduces to the plain free
    # moment-cumulant formula
    for n in range(1, 6):
        assert verify_identity("lenczewski_sum", n).holds
    # bounded by the row's max_n, and by the cumulant polynomials it multiplies
    with pytest.raises(ResourceLimitError, match="lenczewski_sum is limited to n <= 10"):
        verify_identity("lenczewski_sum", 11)
    monkeypatch.setitem(DEFAULT_LIMITS, "cumulant-other", 4)
    with pytest.raises(ResourceLimitError, match="cumulant-other"):
        verify_identity("lenczewski_sum", 5)


def test_lenczewski_n2_coefficients():
    # m_2(X(N)) = N m_2 + N(N-1) m_1^2 against the colored sum, one case per N
    assert verify_identity("lenczewski_sum", 2).to_dict() == {
        "identity": "lenczewski_sum", "n": 2, "holds": True,
        "lhs_terms": 5, "rhs_terms": 5,
    }


def test_boolean_poisson_kappa():
    x = Polynomial.monomial(1, 1)
    assert boolean_poisson_kappa(1) == x
    assert boolean_poisson_kappa(2) == x  # E_1 has no descent term
    assert boolean_poisson_kappa(3) == x * Polynomial([1, -1])
    assert boolean_poisson_kappa(4).evaluate(1) == -2
    for n in range(1, 11):
        assert boolean_poisson_kappa(n) == x * eulerian_polynomial(n - 1).scale_argument(-1)
    # bounded by the classical conversion's lattice
    with pytest.raises(ResourceLimitError, match="'all'"):
        boolean_poisson_kappa(11)


def test_determinant_cumulants():
    m = [Fraction(1), Fraction(3)]
    assert determinant_cumulants("classical", m) == [Fraction(1), Fraction(2)]
    geometric = [Fraction(2) ** (k - 1) for k in range(1, 8)]
    assert determinant_cumulants("boolean", geometric) == [Fraction(1)] * 7
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 8)
        m = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        assert determinant_cumulants("classical", m) == cumulants_from_moments(K, m)
        assert determinant_cumulants("boolean", m) == cumulants_from_moments(B, m)
        # inverse determinants give the moments back
        assert determinant_moments("classical", cumulants_from_moments(K, m)) == m
        assert determinant_moments("boolean", cumulants_from_moments(B, m)) == m
    m = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(10)]  # no cap at 9
    assert determinant_cumulants("classical", m) == cumulants_from_moments(K, m)
    assert determinant_moments("boolean", cumulants_from_moments(B, m)) == m
    with pytest.raises(ValueError):
        determinant_cumulants("fancy", m)


def test_determinant_cumulants_match_eliminated_minors():
    # the lower Hessenberg matrix, ones on its superdiagonal, built here
    # entry by entry; each leading block is eliminated on its own
    def hessenberg(kind, m):
        n = len(m)

        def entry(i, j):  # 1-based, j <= i
            if kind == "boolean":
                return m[i - j]
            if j == 1:
                return m[i - 1] / factorial(i - 1)
            return m[i - j] / factorial(i - j + 1)

        return [[entry(i, j) if j <= i else 1 if j == i + 1 else 0
                 for j in range(1, n + 1)] for i in range(1, n + 1)]

    rng = random.Random(20261020)
    cases = [[Fraction(0)] * 4, [Fraction(0), Fraction(1), Fraction(0), Fraction(2)]]
    for _ in range(150):
        n = rng.randint(1, 9)
        m = [Fraction(0) if rng.randrange(4) == 0
             else Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
        if rng.randrange(3) == 0:
            m[0] = Fraction(0)  # m_1 = 0: elimination swaps rows
        cases.append(m)
    for m in cases:
        for kind in ("classical", "boolean"):
            a = hessenberg(kind, m)
            expected = [
                (-1) ** (k - 1) * det_by_elimination([row[:k] for row in a[:k]])
                * (factorial(k - 1) if kind == "classical" else 1)
                for k in range(1, len(m) + 1)
            ]
            got = determinant_cumulants(kind, m)
            assert got == expected, (kind, m)
            assert all(type(v) is Fraction for v in got)
    assert determinant_cumulants("boolean", []) == []


def test_beta_values():
    assert beta_formula(SetPartition.one_block(5)) == 1
    assert beta_formula(P("1,2|3,4")) == 0
    assert beta_formula(nested_pair_partition(2)) == Fraction(-1, 2)
    assert beta_formula(nested_pair_partition(3)) == Fraction(2, 3)
    assert beta_formula(P("1,4|2|3")) == Fraction(1, 3)
    assert beta_formula(P("1,3|2,4")) == -1
    assert beta_formula(P("1,4|2,6|3|5")) == beta_by_coarsenings(P("1,4|2,6|3|5"))


def test_beta_routes_agree():
    for n in range(1, 8):
        for pi in partitions_of(n, "all"):
            assert beta_formula(pi) == beta_by_coarsenings(pi), pi


def test_beta_depends_only_on_digraph():
    # grouped by the digraph `graphs` builds, not by beta's own memo key
    seen = {}
    for n in range(1, 7):
        for pi in partitions_of(n, "all"):
            key = anti_interval_digraph(pi)
            value = beta_formula(pi)
            if key in seen:
                assert seen[key] == value, pi
            seen[key] = value


def test_beta_table_builds_no_graph(monkeypatch):
    # beta is keyed on the block relations themselves, not on a MixedGraph
    real = MixedGraph.__post_init__
    built = []

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(MixedGraph, "__post_init__", counting)
    assert len(build_beta_table(6)) == 203
    assert built == []


def test_beta_block_limit():
    assert beta_formula(SetPartition.singletons(10)) == 0
    with pytest.raises(ResourceLimitError):
        beta_formula(SetPartition.singletons(11))
    with pytest.raises(ResourceLimitError):
        build_beta_table(11)
    with override(2), pytest.raises(ResourceLimitError):
        build_beta_table(3)


def test_beta_many_blocks_against_recursion():
    # partitions with 7-8 blocks, beyond test_beta_routes_agree
    for text in ("1,16|2,15|3,14|4,13|5,12|6,11|7,10|8,9",
                 "1,5|2,8|3|4,6|7,10|9,12|11|13",
                 "1,9|2,3|4,6|5,7|8,10|11|12,14|13",
                 "1,3|2,5|4,7|6,9|8,11|10,13|12,14"):
        pi = P(text)
        assert beta_formula(pi) == beta_by_coarsenings(pi), pi


def test_beta_table():
    table = build_beta_table(4)
    assert len(table) == 15  # the Bell number B_4
    for pi, _, value in table:
        assert beta_by_coarsenings(pi) == value, pi
    value = {pi: v for pi, _, v in table}
    assert value[P("1,4|2,3")] == Fraction(-1, 2)
    assert value[SetPartition.one_block(4)] == 1
    reducibles = [pi for pi, _, v in table if not pi.is_irreducible()]
    assert all(value[pi] == 0 for pi in reducibles)


def test_beta_expansion():
    rep = verify_identity("beta_expansion", 2)
    assert rep.holds
    assert beta_formula(SetPartition.one_block(2)) == 1
    assert beta_formula(SetPartition.singletons(2)) == 0
    for n in range(1, 5):
        assert verify_identity("beta_expansion", n).holds
    # coefficient of the nested pairing in the n = 4 expansion
    assert beta_formula(P("1,4|2,3")) == Fraction(-1, 2)
    with pytest.raises(ResourceLimitError):
        verify_identity("beta_expansion", 7)


def test_logbessel_carlitz():
    rep = verify_identity("logbessel_carlitz", 5)
    assert rep.holds
    assert rep.detail["sequence"] == ["1", "-1", "4", "-33", "456"]
    assert 2 * beta_formula(nested_pair_partition(2)) == -1
    # plugging the recursion at the fourth term by hand:
    # a_4 = C(3,1)C(3,0) a_1 a_3 + C(3,2)C(3,1) a_2 a_2 + C(3,3)C(3,2) a_3 a_1
    assert 3 * 1 * 4 + 3 * 3 * 1 + 1 * 3 * 4 == 33
    # bounded by the block count of the nested pairings, and by the row's cap
    with override(4), pytest.raises(ResourceLimitError, match="beta-blocks"):
        verify_identity("logbessel_carlitz", 5)
    with pytest.raises(ResourceLimitError, match="limited to n <= 7"):
        verify_identity("logbessel_carlitz", 8)


def test_moment_formula_brute_force_cross_check():
    # the defining sums, one term per set partition, against the library's
    # recursions, in both directions
    rng = random.Random(41)
    for kind in CumulantKind:
        for _ in range(3):
            c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
            assert moments_from_cumulants(kind, c) == moments_per_partition(kind, c)
            assert cumulants_from_moments(kind, c) == cumulants_per_partition(kind, c)
        # n = 9, int and Fraction input; `convert` prints what these types give
        ints = [rng.randint(-4, 4) for _ in range(9)]
        fractions = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)]
        for c, out_type in ((ints, Fraction if kind is H else int), (fractions, Fraction)):
            moments = moments_from_cumulants(kind, c)
            inverted = cumulants_from_moments(kind, c)
            assert moments == moments_per_partition(kind, c)
            assert inverted == cumulants_per_partition(kind, c)
            assert all(type(v) is out_type for v in moments + inverted), kind


def test_conversions_enumerate_nothing(monkeypatch):
    rng = random.Random(12)
    values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(12)]
    expected = {
        kind: (moments_per_partition(kind, values[:9]), cumulants_per_partition(kind, values[:9]))
        for kind in CumulantKind
    }

    def enumerates(*args):
        raise AssertionError("the univariate conversions enumerate nothing")

    monkeypatch.setattr(cumulants, "partitions_of", enumerates)
    with override(12):
        for kind in CumulantKind:
            moments = moments_from_cumulants(kind, values)
            inverted = cumulants_from_moments(kind, values)
            assert cumulants_from_moments(kind, moments) == values
            assert moments_from_cumulants(kind, inverted) == values
            # triangular: the first 9 terms depend on the first 9 inputs only
            assert (moments[:9], inverted[:9]) == expected[kind], kind


@pytest.mark.parametrize("kind, key", [(K, "ALL"), (R, "NONCROSSING"), (B, "INTERVAL"), (H, "NONCROSSING")])
def test_conversion_limit_checked_on_every_call(monkeypatch, kind, key):
    cumulants_from_moments(kind, [1] * 6)
    monkeypatch.setitem(DEFAULT_LIMITS, key.lower(), 5)
    with pytest.raises(ResourceLimitError):
        cumulants_from_moments(kind, [1] * 6)
    with pytest.raises(ResourceLimitError):
        moments_from_cumulants(kind, [1] * 6)
    assert cumulants_from_moments(kind, [1] * 5) == [1, 0, 0, 0, 0]


def test_cumulant_poly_limits_checked_on_every_call(monkeypatch):
    pi = P("1,2,3,4,5|6")
    cumulant_poly(R, 5)  # fills the caches
    partitioned_cumulant(R, pi)
    for key in ("cumulant-other", "noncrossing"):
        with monkeypatch.context() as patch:
            patch.setitem(DEFAULT_LIMITS, key, 4)
            with pytest.raises(ResourceLimitError):
                cumulant_poly(R, 5)
            with pytest.raises(ResourceLimitError):
                partitioned_cumulant(R, pi)
            assert cumulant_poly(R, 4).sorted_terms() == sorted(fd_cumulant(R, 4).items())
    expected = sorted(fd_partitioned_cumulant(R, pi).items())
    assert partitioned_cumulant(R, pi).sorted_terms() == expected


def test_type_weights_closed_counts():
    # the block-size types of each lattice, with the number of members of
    # each type (K, R, B) or the sum of 1/tau(pi)! over them (H)
    monotone_types = {}
    for n in range(1, 8):
        for op in enumerate_monotone(n):
            key = tuple(sorted(op.base.block_sizes()))
            monotone_types[key] = monotone_types.get(key, 0) + 1
    lattice = {K: "all", R: "noncrossing", B: "interval", H: "noncrossing"}
    for n in range(1, 10):
        types = {}
        for kind in CumulantKind:
            weights = types[kind] = Counter()
            for pi in partitions_of(n, lattice[kind]):
                sizes = tuple(sorted(pi.block_sizes()))
                weights[sizes] += Fraction(1, partition_tree_factorial(pi)) if kind is H else 1
            for sizes, weight in weights.items():
                k = len(sizes)
                mults = prod(factorial(sizes.count(s)) for s in set(sizes))
                if kind is K:
                    expect = factorial(n) // (prod(factorial(s) for s in sizes) * mults)
                elif kind is R:  # Kreweras
                    expect = factorial(n) // (factorial(n - k + 1) * mults)
                elif kind is B:
                    expect = factorial(k) // mults
                elif n <= 7:
                    expect = Fraction(monotone_types[sizes], factorial(k))
                else:
                    continue
                assert weight == expect, (kind, n, sizes)
        # every integer partition of n is the type of some noncrossing partition
        assert types[R].keys() == types[H].keys() == types[K].keys()
