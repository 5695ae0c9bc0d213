"""Exact arithmetic layer: rationals, polynomials, series, moment ring."""

import json
import random
from fractions import Fraction
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
    _fd_monomial,
    exp_termwise,
    fd_add,
    fd_from_sorted_terms,
    fd_mul,
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


def test_moment_polynomial_ring_axioms():
    rng = random.Random(7)

    def rand_poly(n, rational):
        out = MomentPolynomial({})
        for _ in range(rng.randint(1, 4)):
            syms = []
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(1, n)
                start = rng.randint(1, n - size + 1)
                syms.append(tuple(range(start, start + size)))
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 6) if rational else 1)
            out = out + coeff * MomentPolynomial({tuple(syms): 1})
        return out

    zero = MomentPolynomial({})
    for rational in (False, True):
        for _ in range(30):
            a, b, c = (rand_poly(4, rational) for _ in range(3))
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


def _random_poly(rng, elements, include=None):
    """A seeded random polynomial whose symbols are nonempty subsets of
    `elements`, with rational coefficients; the symbol {include} is a
    factor of its first monomial, when given."""
    terms = {}
    for k in range(rng.randint(1, 5)):
        mono = tuple(
            tuple(sorted(rng.sample(elements, rng.randint(1, len(elements)))))
            for _ in range(rng.randint(0, 3))
        )
        if include is not None and k == 0:
            mono += ((include,),)
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
            fa, fb = (fd_from_sorted_terms(p.sorted_terms()) for p in (a, b))
            product = a * b
            assert product.sorted_terms() == sorted(fd_mul(fa, fb).items())
            assert product.den > 0 and gcd(product.den, *product.terms.values()) == 1
            assert product == b * a
        # (a + b)(a - b): the cross terms cancel in the merging branch
        a, b = (_random_poly(rng, elements, shared) for _ in range(2))
        assert shared in _support_of(a + b) & _support_of(a - b)
        fa, fb = (fd_from_sorted_terms(p.sorted_terms()) for p in (a, b))
        product = (a + b) * (a - b)
        expected = fd_mul(fd_add((1, fa), (1, fb)), fd_add((1, fa), (-1, fb)))
        assert product.sorted_terms() == sorted(expected.items())
        assert product == a * a - b * b
    # disjoint factors whose product has a common factor to reduce
    x = MomentPolynomial({((1,),): Fraction(2, 3)})
    y = MomentPolynomial({((2,),): Fraction(3, 2)})
    assert (x * y).terms == {(0b01, 0b10): 1} and (x * y).den == 1


def test_linear_combination_rescales_the_denominator():
    x = MomentPolynomial.symbol((1,))
    y = MomentPolynomial.symbol((2,))
    halves = linear_combination([(Fraction(1, 2), x), (Fraction(1, 2), y)])
    assert halves.den == 2 and halves.terms == {(1,): 1, (2,): 1}
    # 1/2 x + 1/3 y: 3 does not divide 2, so the running denominator becomes 6
    mixed = linear_combination([(Fraction(1, 2), x), (Fraction(1, 3), y)])
    assert mixed.den == 6 and mixed.terms == {(1,): 3, (2,): 2}
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
    m1 = MomentPolynomial.symbol((1,))
    sq = m1 * m1
    assert sq.num_terms() == 1
    ((mono, coeff),) = sq.sorted_terms()
    assert mono == ((1,), (1,)) and coeff == 1


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
    # m_S is the bitmask of S, a monomial the sorted tuple of its masks
    assert p.terms == {(0b010, 0b101): 3, (0b111,): -2}
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
    assert p.evaluate(values.__getitem__) == Fraction(35, 2) - Fraction(1, 12)


def test_univariate_specialization_merges_by_size():
    p = MomentPolynomial.symbol((1, 3)) - MomentPolynomial.symbol((2, 3))
    assert p.univariate().is_zero()
    q = MomentPolynomial.symbol((1, 2)) * MomentPolynomial.symbol((3,))
    r = MomentPolynomial.symbol((2, 3)) * MomentPolynomial.symbol((1,))
    assert q.univariate() == r.univariate()
    assert q != r
