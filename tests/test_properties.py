"""Property tests on random set partitions (Hypothesis, derandomized)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cumulantcalc.cumulants import beta_formula, beta_recursive  # noqa: E402
from cumulantcalc.partitions import (  # noqa: E402
    SetPartition,
    blocks_cross,
    kreweras_complement,
)

from oracles import blocks_cross_by_runs, restrict_by_blocks  # noqa: E402

#: every run draws the same examples and writes no example database
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def partitions(draw, max_n=14):
    """A set partition drawn as a restricted growth string."""
    n = draw(st.integers(1, max_n))
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
    bs = pi.blocks
    for a in bs:
        for b in bs:
            if a != b:
                assert blocks_cross(a, b) == blocks_cross(b, a) == blocks_cross_by_runs(a, b)


@SEEDED
@given(st.data())
def test_restrict_matches_from_blocks_route(data):
    pi = data.draw(partitions())
    subset = data.draw(st.sets(st.integers(1, pi.n), min_size=1))
    assert pi.restrict(subset) == restrict_by_blocks(pi, subset)


@SEEDED
@given(partitions())
def test_text_and_json_round_trips(pi):
    assert SetPartition.from_text(pi.to_text()) == pi
    assert SetPartition.from_json(pi.to_json()) == pi


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(partitions(max_n=8))
def test_beta_routes_agree_on_random_partitions(pi):
    assert beta_formula(pi) == beta_recursive(pi)


@SEEDED
@given(noncrossing_partitions())
def test_kreweras_square_is_a_rotation(pi):
    # K(K(pi)) is pi moved by i -> i - 1 (mod n)
    n = pi.n
    rotated = SetPartition.from_blocks(n, [[(x - 2) % n + 1 for x in b] for b in pi.blocks])
    assert pi.is_noncrossing()
    assert kreweras_complement(kreweras_complement(pi)) == rotated
