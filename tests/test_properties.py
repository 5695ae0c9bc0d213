"""Property tests on random set partitions and rational sequences (Hypothesis, derandomized)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fractions import Fraction  # noqa: E402

from cumulantcalc.cumulants import (  # noqa: E402
    CumulantKind,
    beta_formula,
    convert_sequence,
)
from cumulantcalc.partitions import (  # noqa: E402
    SetPartition,
    kreweras_complement,
    lattice_leq,
)

from oracles import (  # noqa: E402
    beta_by_coarsenings,
    blocks_cross_by_runs,
    cumulants_per_partition,
    interval_closure_by_fixpoint,
    lattice_meet,
    moments_per_partition,
)

#: every run draws the same examples and writes no example database
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def partitions(draw, max_n=14, min_n=1):
    """A set partition drawn as a restricted growth string."""
    n = draw(st.integers(min_n, max_n))
    rgs = []
    fresh = 0
    for _ in range(n):
        a = draw(st.integers(0, fresh))
        fresh += a == fresh
        rgs.append(a)
    return SetPartition(rgs)


@st.composite
def noncrossing_partitions(draw, max_n=14):
    """A noncrossing partition: each element opens a block or joins an open
    one, which closes every block opened after it."""
    n = draw(st.integers(1, max_n))
    rgs = []
    stack = []  # the open blocks, innermost last
    for _ in range(n):
        k = draw(st.integers(0, len(stack)))
        if k == len(stack):
            stack.append(len(set(rgs)))
        else:
            del stack[k + 1:]
        rgs.append(stack[-1])
    return SetPartition(rgs)


@SEEDED
@given(partitions())
def test_blocks_cross_is_symmetric(pi):
    # block_pairs lists each crossing pair once, and crossing is symmetric
    crossing = set(pi.block_pairs()[0])
    bs = pi.blocks
    for i, a in enumerate(bs):
        for j, b in enumerate(bs):
            if i < j:
                assert ((i, j) in crossing) == blocks_cross_by_runs(a, b) == blocks_cross_by_runs(b, a)


@SEEDED
@given(st.data())
def test_closures_are_idempotent_and_monotone(data):
    pi = data.draw(partitions())
    rho = data.draw(partitions(max_n=pi.n, min_n=pi.n))
    sigma = lattice_meet(pi, rho)  # sigma <= pi
    for closure, in_class in (
        (SetPartition.noncrossing_closure, SetPartition.is_noncrossing),
        (interval_closure_by_fixpoint, SetPartition.is_interval),
    ):
        c = closure(pi)
        assert closure(c) == c
        assert lattice_leq(pi, c) and in_class(c)
        assert lattice_leq(closure(sigma), c)


@SEEDED
@given(partitions())
def test_text_and_json_round_trips(pi):
    assert SetPartition.from_text(pi.to_text()) == pi
    assert SetPartition.from_json(pi.to_json()) == pi


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(partitions(max_n=8))
def test_beta_routes_agree_on_random_partitions(pi):
    assert beta_formula(pi) == beta_by_coarsenings(pi)


@SEEDED
@given(noncrossing_partitions())
def test_kreweras_square_is_a_rotation(pi):
    # K(K(pi)) is pi moved by i -> i - 1 (mod n)
    n = pi.n
    rotated = SetPartition.from_blocks(n, [[(x - 2) % n + 1 for x in b] for b in pi.blocks])
    assert pi.is_noncrossing()
    assert kreweras_complement(kreweras_complement(pi)) == rotated


_KINDS = ("moments", "classical", "free", "boolean", "monotone")
_ORACLE_KIND = {k.value: k for k in CumulantKind}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=8))
def test_convert_sequence_round_trips_and_matches_oracle(values):
    small = len(values) <= 7  # the per-partition oracle enumerates P(n)
    for src in _KINDS:
        moments = values
        if small and src != "moments":
            moments = moments_per_partition(_ORACLE_KIND[src], values)
        for dst in _KINDS:
            if src == dst:
                continue
            out = convert_sequence(src, dst, values)
            assert all(type(v) is Fraction for v in out)
            assert convert_sequence(dst, src, out) == values
            if small:
                expected = moments if dst == "moments" else cumulants_per_partition(
                    _ORACLE_KIND[dst], moments)
                assert out == expected, (src, dst)


@SEEDED
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
def test_convert_sequence_keeps_ints(values):
    for src in _KINDS[:4]:
        for dst in _KINDS[:4]:
            out = convert_sequence(src, dst, values)
            assert all(type(v) is int for v in out), (src, dst)
            assert out == [Fraction(v) for v in convert_sequence(src, dst, list(map(Fraction, values)))]
