"""Exact arithmetic layer: rationals, polynomials, series, moment ring."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from cumulantcalc.algebra import (
    MomentPolynomial,
    Polynomial,
    TruncatedSeries,
    bernoulli_number,
    faulhaber_polynomial,
    linear_combination,
    moment_monomial,
    rational_from_str,
    rational_to_str,
)
from cumulantcalc.partitions import SetPartition, enumerate_partitions

from oracles import (
    _canonical,
    _fd_monomial,
    bell_number,
    evaluate_moment_polynomial,
    exp_termwise,
    fd_add,
    fd_from_sorted_terms,
    fd_mul,
    fd_relabel,
    fd_univariate,
    fs_add,
    fs_compose,
    fs_log,
    fs_mul,
    fs_reciprocal,
)


def test_rational_strings():
    assert rational_to_str(Fraction(3, 4)) == "3/4"
    assert rational_to_str(Fraction(-5, 1)) == "-5"
    assert rational_from_str("7/2") == Fraction(7, 2)
    assert rational_from_str("-3") == Fraction(-3)


def test_polynomial_basics():
    p = Polynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert Polynomial([]).coeffs == ()
    assert p.evaluate(3) == 7
    q = Polynomial([0, 0, 1])
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert json.dumps(p.to_json()) == '["1", "2"]'
    # a Polynomial equals only another Polynomial
    assert (Polynomial([1, 2]) == None) is False  # noqa: E711
    assert None not in [Polynomial([1])]
    assert Polynomial([1]) != "1"
    assert Polynomial([1]) != 1
    assert {1: "a"}.get(Polynomial([1])) is None


def test_faulhaber_small_cases():
    assert faulhaber_polynomial(0) == Polynomial([0, 1])
    assert faulhaber_polynomial(1) == Polynomial([0, Fraction(1, 2), Fraction(1, 2)])
    # j=3 at N=4: direct summation 1 + 8 + 27 + 64
    assert faulhaber_polynomial(3).evaluate(4) == 100


def test_faulhaber_matches_direct_sums():
    # j <= 15 covers the labelling polynomials of up to 16 vertices
    for j in range(16):
        q = faulhaber_polynomial(j)
        assert q.coefficient(0) == 0
        assert len(q.coeffs) == j + 2
        for n in range(21):
            assert q.evaluate(n) == sum(k**j for k in range(1, n + 1)), (j, n)


def test_bernoulli_convention():
    # B_n(1) values; the n = 1 case pins the +1/2 convention.
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_bernoulli_generating_function():
    # Expand z e^z / (e^z - 1) with series arithmetic and read off B_n(1).
    order = 8
    ez = exp_termwise(TruncatedSeries.z(order))
    ratio = ez * TruncatedSeries(
        [Fraction(1, __import__("math").factorial(k + 1)) for k in range(order + 1)]
    ).reciprocal()  # e^z / ((e^z - 1)/z)
    for n in range(order + 1):
        fact = __import__("math").factorial(n)
        assert ratio.coefficient(n) * fact == bernoulli_number(n), n


def test_series_compose():
    z = TruncatedSeries.z(3)
    g = TruncatedSeries([0, 1, 1], 3)
    assert z.compose(g) == g
    f = TruncatedSeries([2, 0, 5], 3)
    assert f.compose(TruncatedSeries.z(3)) == f
    geom = TruncatedSeries([1, 1, 1, 1], 3)  # 1/(1-z)
    assert geom.compose(g) == TruncatedSeries([1, 1, 2, 3], 3)
    with pytest.raises(ValueError):
        geom.compose(TruncatedSeries([1, 1], 3))


def test_series_reciprocal():
    one = TruncatedSeries.one(3)
    assert one.reciprocal() == one
    assert TruncatedSeries([1, -1], 3).reciprocal() == TruncatedSeries([1, 1, 1, 1], 3)
    fib = TruncatedSeries([1, -1, -1], 4).reciprocal()
    assert fib == TruncatedSeries([1, 1, 2, 3, 5], 4)
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1], 3).reciprocal()


def test_series_reciprocal_random_roundtrip():
    rng = random.Random(20240517)
    for _ in range(100):
        order = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order)
        ]
        f = TruncatedSeries(coeffs, order)
        assert f * f.reciprocal() == TruncatedSeries.one(order)


def test_series_log():
    assert TruncatedSeries.one(4).log() == TruncatedSeries((), 4)
    ez = exp_termwise(TruncatedSeries.z(4))
    assert ez.log() == TruncatedSeries.z(4)
    got = TruncatedSeries([1, -1], 3).log()
    assert got == TruncatedSeries([0, -1, Fraction(-1, 2), Fraction(-1, 3)], 3)
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1], 3).log()


def test_exp_log_roundtrip_and_termwise_oracle():
    rng = random.Random(99)
    for _ in range(25):
        order = 12
        f = TruncatedSeries(
            [1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order)],
            order,
        )
        assert exp_termwise(f.log()) == f
        g = TruncatedSeries(
            [0] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(order)],
            order,
        )
        assert exp_termwise(g).log() == g


def _random_coeffs(rng, order, zero_weight=3):
    """order + 1 rationals, some of them zero, some negative."""
    return [
        Fraction(0) if rng.randrange(zero_weight) == 0
        else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for _ in range(order + 1)
    ]


def _assert_kernel_matches(got: TruncatedSeries, expected):
    # lowest terms: equal to the series built from the oracle's Fractions,
    # with no factor shared by the denominator and every numerator
    order = len(expected) - 1
    assert got == TruncatedSeries(expected, order)
    assert got.coeffs == tuple(expected)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1


def test_series_kernel_matches_fraction_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        a = TruncatedSeries(_random_coeffs(rng, m), m)
        if rng.randrange(10) == 0:
            a = TruncatedSeries((), m)
        b = TruncatedSeries(_random_coeffs(rng, n), n)
        ac, bc = list(a.coeffs), list(b.coeffs)
        _assert_kernel_matches(a + b, fs_add(ac, bc))
        _assert_kernel_matches(a - b, fs_add(ac, [-c for c in bc]))
        _assert_kernel_matches(a * b, fs_mul(ac, bc))
        _assert_kernel_matches(a * TruncatedSeries((), m), [Fraction(0)] * (m + 1))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        _assert_kernel_matches(a * c, [c * x for x in ac])
        _assert_kernel_matches(c + a, [ac[0] + c] + ac[1:])
        _assert_kernel_matches(c - a, [c - ac[0]] + [-x for x in ac[1:]])
        inner = TruncatedSeries([0] + bc[1:], n)
        _assert_kernel_matches(a.compose(inner), fs_compose(ac, [Fraction(0)] + bc[1:]))
        if ac[0]:
            _assert_kernel_matches(a.reciprocal(), fs_reciprocal(ac))
        unit = TruncatedSeries([1] + ac[1:], m)
        _assert_kernel_matches(unit.log(), fs_log([Fraction(1)] + ac[1:]))


def test_series_mixing_orders_takes_the_minimum_order():
    a = TruncatedSeries([1, 2, 3], 2)
    b = TruncatedSeries([1, 1], 1)
    c = a + b
    assert c.order == 1


def test_moment_monomial_examples():
    assert moment_monomial(SetPartition.from_text("1")) == MomentPolynomial.symbol((1,))
    top = moment_monomial(SetPartition.one_block(3))
    assert top == MomentPolynomial.symbol((1, 2, 3))
    two = moment_monomial(SetPartition.from_text("1,3|2"))
    assert two == MomentPolynomial.symbol((1, 3)) * MomentPolynomial.symbol((2,))


def test_moment_monomial_matches_oracle():
    for n in range(1, 8):
        for pi in enumerate_partitions(n, "all"):
            mono = moment_monomial(pi)
            assert mono.den == 1
            assert mono.sorted_terms() == sorted(_fd_monomial(pi).items()), pi


def _random_multilinear_mono(rng, elements):
    """A random set partition, into at most three blocks, of a random
    subset of `elements`."""
    blocks: dict[int, list[int]] = {}
    for e in rng.sample(elements, rng.randint(0, len(elements))):
        blocks.setdefault(rng.randint(0, 2), []).append(e)
    return tuple(tuple(sorted(b)) for b in blocks.values())


def _univariate_monomial(sizes):
    """prod_j m_{1..j} over `sizes`: the univariate image of a product of
    disjoint symbols of those sizes."""
    out, start = MomentPolynomial.one(), 1
    for size in sizes:
        out = out * MomentPolynomial.symbol(range(start, start + size))
        start += size
    return out.univariate()


def test_moment_polynomial_ring_axioms():
    rng = random.Random(7)

    def rand_poly(monomial, rational):
        out = MomentPolynomial({})
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 6) if rational else 1)
            out = out + coeff * monomial()
        return out

    def multilinear_monomial(elements):
        return MomentPolynomial({_random_multilinear_mono(rng, elements): 1})

    def univariate_monomial():
        # one to three initial segments (1..j), j <= 4, repeats allowed
        return _univariate_monomial([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])

    zero = MomentPolynomial({})
    for rational in (False, True):
        for _ in range(30):
            # multilinear factors on disjoint parts of [6], univariate ones
            elements = rng.sample(range(1, 7), 6)
            multilinear = [
                rand_poly(partial(multilinear_monomial, elements[i:i + 2]), rational)
                for i in (0, 2, 4)
            ]
            univariate = [rand_poly(univariate_monomial, rational) for _ in range(3)]
            for a, b, c in (multilinear, univariate):
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a - a == zero
                assert (a - a).den == 1
                assert (a * Fraction(1, 3)) * 3 == a
                assert a * 0 == zero and (a * 0).den == 1
                # the integer kernel against the Fraction-dict reference
                fa, fb, fc = (fd_from_sorted_terms(p.sorted_terms()) for p in (a, b, c))
                assert (a * b).sorted_terms() == sorted(fd_mul(fa, fb).items())
                assert (a - b).sorted_terms() == sorted(fd_add((1, fa), (-1, fb)).items())
                w = [Fraction(rng.randint(-4, 4), rng.randint(1, 7)) for _ in range(3)]
                combo = linear_combination(zip(w, (a, b, c)))
                assert combo.sorted_terms() == sorted(fd_add(*zip(w, (fa, fb, fc))).items())
                # one denominator per polynomial, in lowest terms
                assert combo.den > 0
                assert gcd(combo.den, *combo.terms.values()) == 1
                assert combo.univariate().sorted_terms() == sorted(
                    fd_univariate(fd_add(*zip(w, (fa, fb, fc)))).items()
                )
            # [6] moved onto a random 6-subset of [9]
            block = tuple(sorted(rng.sample(range(1, 10), 6)))
            whole = multilinear[0] * multilinear[1] * multilinear[2]
            expected = fd_relabel(fd_from_sorted_terms(whole.sorted_terms()),
                                  dict(zip(range(1, 7), block)))
            assert whole.relabel(block).sorted_terms() == sorted(expected.items())


def test_every_multilinear_monomial_round_trips():
    # a multilinear monomial over [7] is a set partition of a subset of [7]
    keys = set()
    for size in range(8):
        for subset in combinations(range(1, 8), size):
            for pi in enumerate_partitions(size, "all") if size else [None]:
                mono = _canonical(
                    tuple(subset[i - 1] for i in block) for block in (pi.blocks if pi else ())
                )
                p = MomentPolynomial({mono: Fraction(-3, 2)})
                assert p.sorted_terms() == [(mono, Fraction(-3, 2))]
                assert p.univariate().sorted_terms() == sorted(
                    fd_univariate({mono: Fraction(-3, 2)}).items()
                )
                keys.update(p.terms)
    assert len(keys) == bell_number(8)  # distinct monomials, distinct keys
    # and every univariate monomial of weight <= 7 (a partition of the weight)
    for weight in range(1, 8):
        for count in range(1, weight + 1):
            for sizes in combinations_with_replacement(range(1, weight + 1), count):
                if sum(sizes) == weight:
                    mono = tuple(tuple(range(1, s + 1)) for s in sizes)
                    p = 5 * _univariate_monomial(sizes)
                    assert p.sorted_terms() == [(mono, 5)]


def _random_poly(rng, elements, include=None):
    """A seeded random multilinear polynomial with rational coefficients,
    each monomial a set partition of a random subset of `elements`; the
    symbol {include} is a factor of its first monomial, when given."""
    terms = {}
    for k in range(rng.randint(1, 5)):
        if include is not None and k == 0:
            rest = [e for e in elements if e != include]
            mono = _random_multilinear_mono(rng, rest) + ((include,),)
        else:
            mono = _random_multilinear_mono(rng, elements)
        terms[mono] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return MomentPolynomial(terms)


def _support_of(p):
    """The elements that occur in some symbol of p."""
    return {i for mono, _ in p.sorted_terms() for sym in mono for i in sym}


def test_product_branches_match_fraction_dict_oracle():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(2, 7)
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        cut = rng.randint(1, n - 1)
        left, right = sorted(elements[:cut]), sorted(elements[cut:])
        shared = rng.choice(left)
        for include in (None, shared):
            # disjoint supports, then supports that share the element `shared`
            a = _random_poly(rng, left, include)
            b = _random_poly(rng, right, include)
            assert bool(_support_of(a) & _support_of(b)) == (include is not None)
            if include is not None:
                # multilinear factors may not meet: the merging branch is
                # the univariate one
                with pytest.raises(ValueError, match="overlapping supports"):
                    a * b
                a, b = a.univariate(), b.univariate()
            fa, fb = (fd_from_sorted_terms(p.sorted_terms()) for p in (a, b))
            product = a * b
            assert product.sorted_terms() == sorted(fd_mul(fa, fb).items())
            assert product.den > 0 and gcd(product.den, *product.terms.values()) == 1
            assert product == b * a
        # (a + b)(a - b): the cross terms cancel in the merging branch
        a, b = (_random_poly(rng, elements, shared).univariate() for _ in range(2))
        fa, fb = (fd_from_sorted_terms(p.sorted_terms()) for p in (a, b))
        product = (a + b) * (a - b)
        expected = fd_mul(fd_add((1, fa), (1, fb)), fd_add((1, fa), (-1, fb)))
        assert product.sorted_terms() == sorted(expected.items())
        assert product == a * a - b * b
    # disjoint factors whose product has a common factor to reduce
    x = MomentPolynomial({((1,),): Fraction(2, 3)})
    y = MomentPolynomial({((2,),): Fraction(3, 2)})
    assert (x * y).terms == {1 + (2 << 5): 1} and (x * y).den == 1


def test_linear_combination_rescales_the_denominator():
    # the keys of m{1} and m{2}: digit i - 1 holds the least element of the
    # symbol that holds i
    x = MomentPolynomial.symbol((1,))
    y = MomentPolynomial.symbol((2,))
    halves = linear_combination([(Fraction(1, 2), x), (Fraction(1, 2), y)])
    assert halves.den == 2 and halves.terms == {1: 1, 2 << 5: 1}
    # 1/2 x + 1/3 y: 3 does not divide 2, so the running denominator becomes 6
    mixed = linear_combination([(Fraction(1, 2), x), (Fraction(1, 3), y)])
    assert mixed.den == 6 and mixed.terms == {1: 3, 2 << 5: 2}
    assert mixed.sorted_terms() == [(((1,),), Fraction(1, 2)), (((2,),), Fraction(1, 3))]
    # a weight that cancels a polynomial's denominator
    assert linear_combination([(6, mixed)]) == 3 * x + 2 * y
    # cancellation back to an integer polynomial reduces the denominator
    back = linear_combination([(1, mixed), (Fraction(-1, 3), y), (Fraction(1, 2), x)])
    assert back == x and back.den == 1
    assert linear_combination([]) == MomentPolynomial({})
    assert linear_combination([(0, mixed)]).den == 1
    assert repr(mixed) == "1/2*m{1} + 1/3*m{2}"


def test_moment_polynomial_repeated_symbols_allowed():
    # in the univariate layout, where digit j - 1 counts the factors m_{1..j}
    m1 = MomentPolynomial.symbol((1,)).univariate()
    sq = m1 * m1
    assert sq.num_terms() == 1
    ((mono, coeff),) = sq.sorted_terms()
    assert mono == ((1,), (1,)) and coeff == 1
    assert sq.terms == {2: 1}
    assert sq == _univariate_monomial((1, 1))


def test_moment_polynomial_layouts_reject_what_they_cannot_hold():
    sym = MomentPolynomial.symbol
    # elements go up to 31, one 5-bit digit
    top = sym((1, 31))
    assert top.sorted_terms() == [(((1, 31),), 1)]
    assert sym((1, 2)).relabel((30, 31)) == sym((30, 31))
    assert moment_monomial(SetPartition.one_block(31)) == sym(range(1, 32))
    with pytest.raises(ValueError):
        sym((1, 32))
    with pytest.raises(ValueError):
        MomentPolynomial({((32,),): 1})
    with pytest.raises(ValueError):
        sym((1, 2)).relabel((31, 32))
    with pytest.raises(ValueError):
        moment_monomial(SetPartition.one_block(32))
    # a factor count goes up to 31 as well
    power = _univariate_monomial((1,) * 31)
    assert power.sorted_terms() == [(((1,),) * 31, 1)]
    m1 = sym((1,)).univariate()
    assert power * sym((1, 2)).univariate() != power
    with pytest.raises(ValueError, match="more than 31"):
        power * m1
    # multilinear factors whose supports meet
    with pytest.raises(ValueError, match="overlapping supports"):
        sym((1, 2)) * sym((2, 3))
    with pytest.raises(ValueError, match="overlapping supports"):
        sym((1,)) * sym((1,))
    # the constructor builds multilinear monomials only: symbols that meet
    # are refused, initial segments included (univariate() is the way in)
    for terms in ({((2,), (2, 3)): 1}, {((1,), (1,)): 1, ((2,),): 1}, {((1,), (1,)): 1}):
        with pytest.raises(ValueError, match=r"meet.*univariate\(\)"):
            MomentPolynomial(terms)
    # the two layouts do not mix; a constant belongs to both
    for mixed in (
        lambda: sym((1, 2)) + sym((1, 2)).univariate(),
        lambda: sym((1, 2)) * sym((3,)).univariate(),
        lambda: linear_combination([(1, sym((1,))), (2, m1)]),
    ):
        with pytest.raises(ValueError, match="cannot mix"):
            mixed()
    one = MomentPolynomial.one()
    assert one * m1 == m1 and one * sym((2,)) == sym((2,))
    assert (one + m1).sorted_terms() == [((), 1), (((1,),), 1)]
    assert (one + sym((1,)) - sym((1,))) * m1 == m1  # a constant once more
    with pytest.raises(ValueError, match="multilinear"):
        m1.relabel((2,))
    # equality compares monomials across the layouts, not keys: m{1}*m{2}
    # and m{1}*m{1,2}^2 share the key 1 + (2 << 5)
    assert sym((1, 2)) == sym((1, 2)).univariate()
    product = sym((1,)) * sym((2,))
    power = _univariate_monomial((1, 2, 2))
    assert product.terms == power.terms and product != power


def test_moment_polynomial_validation():
    with pytest.raises(ValueError):
        MomentPolynomial.symbol((2, 1))  # not increasing
    with pytest.raises(ValueError):
        MomentPolynomial.symbol(())
    with pytest.raises(ValueError):
        MomentPolynomial({((0, 1),): 1})  # elements start at 1
    with pytest.raises(ValueError):
        MomentPolynomial.symbol((1, 2)).relabel((2, 1))  # not increasing
    with pytest.raises(ValueError):
        MomentPolynomial.symbol((1, 2)).relabel((2, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        MomentPolynomial.symbol((1, 2)).relabel((0, 3))  # not positive
    with pytest.raises(ValueError):
        MomentPolynomial.symbol((1, 3)).relabel((2, 4))  # too short for {1, 3}
    with pytest.raises(TypeError):
        MomentPolynomial.symbol((1, 2)).relabel({1: 2, 2: 4})  # a block is a tuple


def test_moment_polynomial_bitmask_storage():
    p = MomentPolynomial({((1, 3), (2,)): Fraction(1, 2), ((1, 2, 3),): Fraction(-1, 3)})
    # a multilinear key: 5-bit digit i - 1 holds the least element of the
    # symbol that holds i
    assert p.terms == {0b00001_00010_00001: 3, 0b00001_00001_00001: -2}
    assert p.den == 6
    # symbols inside a monomial by (size, subset), monomials as tuples
    assert p.sorted_terms() == [
        (((1, 2, 3),), Fraction(-1, 3)),
        (((2,), (1, 3)), Fraction(1, 2)),
    ]
    assert repr(p) == "-1/3*m{1,2,3} + 1/2*m{2}*m{1,3}"
    assert p.relabel((2, 4, 5)).sorted_terms() == [
        (((2, 4, 5),), Fraction(-1, 3)),
        (((4,), (2, 5)), Fraction(1, 2)),
    ]
    values = {(2,): 5, (1, 3): 7, (1, 2, 3): Fraction(1, 4)}
    assert evaluate_moment_polynomial(p, values.__getitem__) == Fraction(35, 2) - Fraction(1, 12)
    # a univariate key: digit j - 1 counts the factors m_{1..j}
    u = p.univariate()
    assert u.terms == {0b00001_00001: 3, 0b00001_00000_00000: -2} and u.den == 6
    assert repr(u) == "1/2*m{1}*m{1,2} - 1/3*m{1,2,3}"
    values = {(1,): 5, (1, 2): 7, (1, 2, 3): Fraction(1, 4)}
    assert evaluate_moment_polynomial(u, values.__getitem__) == Fraction(35, 2) - Fraction(1, 12)


def test_univariate_specialization_merges_by_size():
    p = MomentPolynomial.symbol((1, 3)) - MomentPolynomial.symbol((2, 3))
    assert p.univariate().num_terms() == 0
    q = MomentPolynomial.symbol((1, 2)) * MomentPolynomial.symbol((3,))
    r = MomentPolynomial.symbol((2, 3)) * MomentPolynomial.symbol((1,))
    assert q.univariate() == r.univariate()
    assert q != r
