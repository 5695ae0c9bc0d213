"""Exact scalar, polynomial, power-series and moment-polynomial arithmetic.

Everything in this package is computed over exact rationals
(`fractions.Fraction`); no floating point is used anywhere.  This module is
the arithmetic foundation:

* rationals and their text form ("p/q", or just "p" when q == 1),
* dense univariate polynomials over the rationals,
* truncated formal power series with exact coefficients,
* Bernoulli numbers and Faulhaber summation polynomials,
* the formal moment-polynomial ring in which cumulant identities are stated.

Bernoulli convention
--------------------
``bernoulli_number(n)`` returns B_n(1), the n-th Bernoulli polynomial
evaluated at 1, so ``bernoulli_number(1) == +1/2``.  The polynomials B_n(x)
are the coefficients of z*exp(x*z)/(exp(z) - 1) = sum B_n(x) z^n / n!;
Faulhaber's formula reads the coefficients of sum_{k=1..N} k^j off these
numbers.

Truncated series
----------------
A series of order N keeps the integer numerators of its coefficients of
z^0 .. z^N over one positive denominator, reduced so that the denominator
shares no factor with all the numerators (the zero series has denominator
1); equality is therefore canonical and decided on the integers.  Every
operation works on the numerators and reduces once at the end: a product
is one integer convolution over the product of the denominators, a sum
works over their lcm, composition is Horner's rule with the inner
denominator's powers, and the reciprocal of a with a_0 != 0 is the
integer recursion P_k = -sum_{j=1..k} a_j P_(k-j) a_0^(j-1) over
a_0^(N+1).  At the boundary (construction, ``coeffs``, ``coefficient``
and the text form) coefficients are Fractions.

Moment polynomials
------------------
A moment symbol m_S is indexed by a nonempty set S of elements of 1..31
and stands for the joint moment of the variables listed in S (each
identity in scope is multilinear, so no variable repeats inside one
symbol).  A monomial is one int, its key, of W = 5-bit digits in one of
two layouts; each polynomial records its layout, and a constant belongs
to both:

* multilinear: symbols with disjoint sets, a set partition of the
  support.  Digit i-1 holds the least element of the symbol that holds
  i, or 0 when i is outside the support.  The product of two monomials
  with disjoint supports, as for the blocks of a partitioned cumulant,
  is the sum of their keys: no digit carries and no terms merge.  The
  constructor, `symbol` and `moment_monomial` build this layout only.
* univariate: initial segments m_{1..j}, the symbols once the variables
  are identified.  `univariate()` is the one way in, and sums and
  products of univariate operands stay in it.  Digit j-1 counts the
  factors m_{1..j}, so a product is again a key sum, and equal monomials
  merge.

The layouts narrow the ring on purpose; every identity of the catalog
(n <= 10) stays far inside them.  ValueError is raised for an element or
a factor count above 31, for a monomial given to the constructor whose
symbols meet (m_{1}*m_{1}, say, is the univariate image of m_{1}*m_{2}),
for a multilinear product whose supports meet, and for a sum or product
that mixes the layouts.  Polynomials of the two layouts are equal when
their monomials are.  A polynomial keeps integer numerators over one
positive denominator, reduced so that the denominator shares no factor
with all the numerators (the zero polynomial has denominator 1);
equality is therefore canonical and decided term by term.  Sums of
weighted polynomials go through one accumulator, `linear_combination`,
which the ring operations and the constructor use as well.  At the
boundary (construction, ``sorted_terms`` and the text form) symbols are
increasing element tuples, sorted inside a monomial by (size, subset),
and coefficients are Fractions.  There is no ``evaluate``: identities
compare polynomials, and a caller that wants a value reads
``sorted_terms``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import or_

__all__ = [
    "rational_to_str",
    "rational_from_str",
    "Polynomial",
    "TruncatedSeries",
    "bernoulli_number",
    "faulhaber_polynomial",
    "MomentPolynomial",
    "linear_combination",
    "moment_symbol",
    "moment_monomial",
]


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p" (Fraction accepts both)."""
    return Fraction(s.strip())


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Trailing zero coefficients are stripped, so the zero polynomial has
    no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((Fraction(c),))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "Polynomial":
        return cls((0,) * degree + (Fraction(coeff),))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        m = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coefficient(k) + other.coefficient(k) for k in range(m)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial([c * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Fraction(scalar)
        return Polynomial([a / c for a in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus -----------------------------------------------------------

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_argument(self, c) -> "Polynomial":
        """Return p(c*x)."""
        c = Fraction(c)
        return Polynomial([a * c**k for k, a in enumerate(self.coeffs)])

    # -- text ---------------------------------------------------------------

    def to_json(self) -> list[str]:
        return [rational_to_str(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rational_to_str(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                parts.append(mono if c == 1 else f"{rational_to_str(c)}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


def _convolve(a, b, order: int) -> list[int]:
    """The coefficients z^0 .. z^order of the product of two integer sequences."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for k, y in enumerate(b[: order + 1 - i], i):
                out[k] += x * y
    return out


class TruncatedSeries:
    """Formal power series over the rationals truncated at a fixed order.

    A series of order N holds the coefficients of z^0 .. z^N as integer
    numerators ``nums`` over one denominator ``den`` > 0, in lowest terms
    (see "Truncated series" in the module docstring); ``coeffs`` and
    ``coefficient`` give them as Fractions.  All operations discard higher
    terms.  Mixing two orders takes the minimum.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, coeffs, order: int | None = None):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1 if cs else 0
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = cs[: order + 1]
        # the lcm of reduced denominators leaves no factor common to all numerators
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        nums += [0] * (order + 1 - len(nums))
        self.nums = tuple(nums)
        self.den = den
        self.order = order

    @classmethod
    def _wrap(cls, order: int, nums, den: int) -> "TruncatedSeries":
        """Wrap order + 1 integer numerators over den != 0, reduced to lowest terms."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        out = cls.__new__(cls)
        out.order = order
        out.nums = tuple(nums)
        out.den = den
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def z(cls, order: int) -> "TruncatedSeries":
        return cls((0, 1), order)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k <= self.order else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.order, self.den, self.nums))

    # -- arithmetic ---------------------------------------------------------

    def _shift(self, c, sign: int) -> "TruncatedSeries":
        """self + sign * c for a rational constant c."""
        c = Fraction(c)
        d = lcm(self.den, c.denominator)
        f = d // self.den
        nums = [a * f for a in self.nums]
        nums[0] += sign * c.numerator * (d // c.denominator)
        return TruncatedSeries._wrap(self.order, nums, d)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._shift(other, 1)
        order = min(self.order, other.order)
        d = lcm(self.den, other.den)
        f, g = d // self.den, d // other.den
        nums = [a * f + b * g for a, b in zip(self.nums[: order + 1], other.nums)]
        return TruncatedSeries._wrap(order, nums, d)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._wrap(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._shift(other, -1)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = Fraction(other)
            return TruncatedSeries._wrap(
                self.order, [c.numerator * a for a in self.nums], self.den * c.denominator
            )
        order = min(self.order, other.order)
        nums = _convolve(self.nums, other.nums, order)
        return TruncatedSeries._wrap(order, nums, self.den * other.den)

    __rmul__ = __mul__

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Return self(inner); `inner` must have zero constant term.

        Horner's rule on numerators: with self = P/p and inner = Q/q,
        A_N = P_N and A_k = A_{k+1} Q + P_k q^(N-k) give
        self(inner) = A_0 / (p q^N).
        """
        if inner.nums[0]:
            raise ValueError("series composition needs zero constant term inside")
        order = min(self.order, inner.order)
        q, inner_nums = inner.den, inner.nums
        acc = [0] * (order + 1)
        power = 1  # q^(N-k)
        for a in reversed(self.nums[: order + 1]):
            acc = _convolve(acc, inner_nums, order)
            acc[0] += a * power
            power *= q
        return TruncatedSeries._wrap(order, acc, self.den * q**order)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        For numerators a over d, 1/a = sum_k P_k z^k / a_0^(k+1) with
        P_0 = 1 and P_k = -sum_{j=1..k} a_j P_{k-j} a_0^(j-1), all integers;
        so the inverse is d P_k a_0^(N-k) over a_0^(N+1).
        """
        a = self.nums
        if not a[0]:
            raise ValueError("series reciprocal needs a nonzero constant term")
        order = self.order
        powers = [1]  # a_0^i for i = 0..N
        for _ in range(order):
            powers.append(powers[-1] * a[0])
        p = [1] + [0] * order
        for k in range(1, order + 1):
            p[k] = -sum(a[j] * p[k - j] * powers[j - 1] for j in range(1, k + 1))
        nums = [self.den * p[k] * powers[order - k] for k in range(order + 1)]
        return TruncatedSeries._wrap(order, nums, powers[order] * a[0])

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1 (zero constant term out).

        The integral of f'/f: l_k = [z^(k-1)](f' * (1/f)) / k, over the
        common denominator lcm(1..N) of the 1/k.
        """
        if self.nums[0] != self.den:
            raise ValueError("series log needs constant term 1")
        order = self.order
        inverse = self.reciprocal()
        derivative = [k * a for k, a in enumerate(self.nums)][1:]
        quotient = _convolve(derivative, inverse.nums, order - 1)
        scale = lcm(*range(1, order + 1))
        nums = [0] + [quotient[k - 1] * (scale // k) for k in range(1, order + 1)]
        return TruncatedSeries._wrap(order, nums, self.den * inverse.den * scale)

    # -- text ---------------------------------------------------------------

    def __repr__(self):
        body = " + ".join(
            f"{rational_to_str(c)}*z^{k}" for k, c in enumerate(self.coeffs) if c
        )
        return f"TruncatedSeries({body or '0'}; O(z^{self.order + 1}))"


# ---------------------------------------------------------------------------
# Bernoulli / Faulhaber
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_at_zero(n: int) -> Fraction:
    # B_0 = 1 and sum_{k<=n} C(n+1,k) B_k = 0, which gives B_1(0) = -1/2.
    if n == 0:
        return Fraction(1)
    s = Fraction(0)
    for k in range(n):
        s += comb(n + 1, k) * _bernoulli_at_zero(k)
    return -s / (n + 1)


def bernoulli_number(n: int) -> Fraction:
    """B_n(1); equals B_n(0) except that bernoulli_number(1) == +1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(1, 2) if n == 1 else _bernoulli_at_zero(n)


@lru_cache(maxsize=None)
def faulhaber_polynomial(j: int) -> Polynomial:
    """The polynomial Q (in N) with Q(N) = sum_{k=1..N} k^j.

    Faulhaber's formula in the B_n(1) convention:
    Q = sum_{d=1..j+1} C(j+1, d) B_{j+1-d}(1) N^d / (j+1).
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    return Polynomial(
        [0] + [comb(j + 1, d) * bernoulli_number(j + 1 - d) / (j + 1) for d in range(1, j + 2)]
    )


# ---------------------------------------------------------------------------
# Moment polynomials
# ---------------------------------------------------------------------------


#: bits per digit of a monomial key: an element, a least element or a
#: factor count is at most 31
_WIDTH = 5
_DIGIT = (1 << _WIDTH) - 1
#: bit 0 of each of the 32 digits, where a carry out of a digit lands
_LOW = sum(1 << _WIDTH * i for i in range(_DIGIT + 1))
#: layout flags; a constant has layout 0, so the OR of the operands'
#: layouts is the layout of a sum or product
_MULTILINEAR, _UNIVARIATE = 1, 2
_OVERFLOW = f"a univariate monomial has more than {_DIGIT} factors of one size"


def moment_symbol(elements) -> tuple[int, ...]:
    """Canonical moment symbol: a strictly increasing tuple of elements in 1..31."""
    sym = tuple(elements)
    if not sym:
        raise ValueError("moment symbol must be nonempty")
    if any(b <= a for a, b in zip((0,) + sym, sym + (_DIGIT + 1,))):
        raise ValueError(f"moment symbol must be strictly increasing within 1..{_DIGIT}: {sym}")
    return sym


def _multilinear_key(symbols) -> int | None:
    """The multilinear key of canonical symbols, or None when two meet."""
    key = seen = 0
    for sym in symbols:
        for i in sym:
            if seen >> i & 1:
                return None
            seen |= 1 << i
            key += sym[0] << _WIDTH * (i - 1)
    return key


def _size_key(sizes) -> int:
    """The univariate key of symbols (1..j) of the given sizes j."""
    counts = Counter(sizes)
    if max(counts.values(), default=0) > _DIGIT:
        raise ValueError(_OVERFLOW)
    return sum(count << _WIDTH * (size - 1) for size, count in counts.items())


@lru_cache(maxsize=None)
def _digits(key: int) -> tuple[int, ...]:
    """The digits of a key, lowest first, up to its highest nonzero one;
    cached, since `relabel` reads the keys of one cumulant polynomial once
    for every block of its size."""
    out = []
    while key:
        out.append(key & _DIGIT)
        key >>= _WIDTH
    return tuple(out)


def _decode(key: int, layout: int) -> tuple[tuple[int, ...], ...]:
    """A monomial key as element tuples sorted by (size, subset)."""
    if layout == _UNIVARIATE:
        symbols = [
            tuple(range(1, j + 1))
            for j, count in enumerate(_digits(key), 1)
            for _ in range(count)
        ]
    else:
        blocks: dict[int, list[int]] = {}
        for i, least in enumerate(_digits(key), 1):
            if least:
                blocks.setdefault(least, []).append(i)
        symbols = map(tuple, blocks.values())
    return tuple(sorted(symbols, key=lambda s: (len(s), s)))


def _occupied(keys) -> int:
    """The support of multilinear keys: bit 0 of digit i - 1 for each
    element i some key holds (the shifts fold each digit onto its bit 0)."""
    s = reduce(or_, keys, 0)
    return (s | s >> 1 | s >> 2 | s >> 3 | s >> 4) & _LOW


def _joined(layout: int) -> int:
    """The layout of a sum or product, from the OR of its operands'."""
    if layout == _MULTILINEAR | _UNIVARIATE:
        raise ValueError(
            "cannot mix multilinear and univariate moment polynomials; "
            "identify the variables with univariate() first"
        )
    return layout


class MomentPolynomial:
    """Exact polynomial in formal moment symbols m_S, S a nonempty set of
    positive integers.

    ``terms`` maps monomial keys (ints in the polynomial's ``layout``; see
    "Moment polynomials" in the module docstring) to nonzero integer
    numerators over the one denominator ``den``.  Equality compares
    ``den`` and ``terms`` within a layout.  The constructor takes a dict
    from monomials (tuples of element tuples) to rationals and builds a
    multilinear polynomial; ``univariate()`` is the one way into the
    univariate layout.  The constructor, ``sorted_terms`` and the text
    form speak in element tuples and Fractions.
    """

    __slots__ = ("terms", "den", "layout")

    def __init__(self, terms):
        pairs = []
        for mono, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff:
                key = _multilinear_key(map(moment_symbol, mono))
                if key is None:
                    raise ValueError(
                        f"the symbols of {mono} meet: construction is multilinear, "
                        "and univariate() is the way into the univariate layout"
                    )
                pairs.append((coeff, MomentPolynomial._wrap({key: 1}, 1, _MULTILINEAR)))
        total = linear_combination(pairs)
        self.terms, self.den, self.layout = total.terms, total.den, total.layout

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, terms: dict, den: int, layout: int) -> "MomentPolynomial":
        """Wrap nonzero integer numerators over den > 0, reduced to lowest
        terms; a constant, zero included, gets layout 0."""
        if not any(terms):
            layout = 0
        if not terms:
            den = 1
        elif den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        out = cls.__new__(cls)
        out.terms = terms
        out.den = den
        out.layout = layout
        return out

    @classmethod
    def one(cls) -> "MomentPolynomial":
        return cls._wrap({0: 1}, 1, 0)

    @classmethod
    def symbol(cls, subset) -> "MomentPolynomial":
        return cls._wrap({_multilinear_key((moment_symbol(subset),)): 1}, 1, _MULTILINEAR)

    # -- structure ----------------------------------------------------------

    def num_terms(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        """(monomial as element tuples, Fraction coefficient), sorted."""
        den, layout = self.den, self.layout
        return sorted((_decode(m, layout), Fraction(c, den)) for m, c in self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        if self.layout | other.layout == _MULTILINEAR | _UNIVARIATE:
            # one key can stand for two monomials: compare the monomials
            return self.sorted_terms() == other.sorted_terms()
        return self.den == other.den and self.terms == other.terms

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return linear_combination(((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return linear_combination(((1, self), (-1, other)))

    def __neg__(self):
        return MomentPolynomial._wrap(
            {m: -c for m, c in self.terms.items()}, self.den, self.layout
        )

    def __mul__(self, other):
        """The product; a scalar `other` scales every coefficient.

        A key product is a key sum.  Multilinear factors must have disjoint
        supports, as the blocks of a partitioned cumulant do; then distinct
        term pairs give distinct monomials and nonzero coefficients, so the
        product is one dict comprehension with no merging and no zero test.
        Univariate products merge equal monomials, drop cancelled terms and
        raise ValueError when a factor count passes 31.
        """
        if not isinstance(other, MomentPolynomial):
            return linear_combination(((other, self),))
        layout = _joined(self.layout | other.layout)
        den = self.den * other.den
        other_terms = other.terms.items()
        if layout != _UNIVARIATE:
            if _occupied(self.terms) & _occupied(other.terms):
                raise ValueError("multilinear factors with overlapping supports")
            out = {m1 + m2: c1 * c2 for m1, c1 in self.terms.items() for m2, c2 in other_terms}
            return MomentPolynomial._wrap(out, den, layout)
        out: dict[int, int] = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other_terms:
                mono = m1 + m2
                if (mono ^ m1 ^ m2) & _LOW:  # a count carried into the next digit
                    raise ValueError(_OVERFLOW)
                v = get(mono, 0) + c1 * c2
                if v:
                    out[mono] = v
                else:
                    del out[mono]
        return MomentPolynomial._wrap(out, den, layout)

    __rmul__ = __mul__

    # -- transformations ----------------------------------------------------

    def relabel(self, block: tuple[int, ...]) -> "MomentPolynomial":
        """Move the symbols of [k] onto `block`, a strictly increasing
        k-tuple of elements of 1..31: element i becomes block[i - 1].

        The map is order-preserving, so it maps the least element of a
        symbol to the least element of its image: digit i - 1 of a key,
        which holds a least element l, becomes digit block[i - 1] - 1,
        which holds block[l - 1].  Distinct monomials stay distinct.  A
        symbol outside [k] raises ValueError, and so does the univariate
        layout, which has no elements to move.
        """
        if any(b <= a for a, b in zip((0,) + block, block + (_DIGIT + 1,))):
            raise ValueError(f"relabel block must increase strictly within 1..{_DIGIT}: {block}")
        if self.layout == _UNIVARIATE:
            raise ValueError("relabel needs a multilinear polynomial")
        k = len(block)
        if _occupied(self.terms) >> _WIDTH * k:
            raise ValueError(f"relabel block {block} is too short for the polynomial's symbols")
        if block == tuple(range(1, k + 1)):
            return self
        # places[i][l]: digit i holding l, moved; l = 0 stays 0
        places = [[0] + [v << _WIDTH * (w - 1) for v in block] for w in block]
        place = list.__getitem__
        out = {
            sum(map(place, places, _digits(key))): c for key, c in self.terms.items()
        }
        return MomentPolynomial._wrap(out, self.den, self.layout)

    def univariate(self) -> "MomentPolynomial":
        """Identify all variables: each symbol S becomes the symbol (1..|S|).

        This is the specialization X_1 = ... = X_n = X, and the one way into
        the univariate layout: a multilinear key becomes the key that counts
        its symbols by size.  Two multivariate polynomials with equal
        univariate images agree as univariate identities.  A univariate or
        constant polynomial is its own image.
        """
        if self.layout != _MULTILINEAR:
            return self
        out: dict[int, int] = {}
        for mono, c in self.terms.items():
            sizes = Counter(_digits(mono))  # least element -> symbol size
            sizes.pop(0, None)
            key = _size_key(sizes.values())
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                del out[key]
        return MomentPolynomial._wrap(out, self.den, _UNIVARIATE)

    # -- text ---------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            body = "*".join("m{%s}" % ",".join(map(str, s)) for s in mono) or "1"
            if c == 1 and mono:
                parts.append(body)
            elif c == -1 and mono:
                parts.append(f"-{body}")
            else:
                parts.append(f"{rational_to_str(c)}*{body}" if mono else rational_to_str(c))
        return " + ".join(parts).replace("+ -", "- ")


def linear_combination(pairs) -> MomentPolynomial:
    """Sum of weight * poly over (rational weight, MomentPolynomial) pairs.

    The one accumulator of the package: integer numerators are added into
    a single dict over a running denominator, which is rescaled (to the
    lcm) only when a contribution's denominator does not divide it.  The
    polynomials share one layout (constants fit both).
    """
    acc: dict[int, int] = {}
    get = acc.get
    den = 1
    layout = 0
    for weight, poly in pairs:
        if not isinstance(weight, (int, Fraction)):
            weight = Fraction(weight)
        a, b = weight.numerator, weight.denominator
        if not a:
            continue
        layout |= poly.layout
        q = poly.den
        if q != 1:
            g = gcd(a, q)
            a //= g
            q //= g
        d = b * q
        if den % d:
            new = lcm(den, d)
            scale = new // den
            for m in acc:
                acc[m] *= scale
            den = new
        f = a * (den // d)
        for m, c in poly.terms.items():
            v = get(m, 0) + f * c
            if v:
                acc[m] = v
            else:
                del acc[m]
    return MomentPolynomial._wrap(acc, den, _joined(layout))


def moment_monomial(partition) -> MomentPolynomial:
    """The monomial prod_{V in pi} m_V with coefficient 1.

    Takes a SetPartition and reads its restricted growth string: element
    i gets the least element of its block, the first i with its block
    index.
    """
    if partition.n > _DIGIT:
        raise ValueError(f"moment monomials hold elements 1..{_DIGIT}, not {partition.n}")
    least: list[int] = []
    key = 0
    for i, a in enumerate(partition.rgs):
        if a == len(least):
            least.append(i + 1)
        key += least[a] << _WIDTH * i
    return MomentPolynomial._wrap({key: 1}, 1, _MULTILINEAR)
