"""Nesting forests, tree factorials, labelling polynomials, alpha, depth."""

from fractions import Fraction
from math import factorial, prod

import pytest

from cumulantcalc import forests
from cumulantcalc.algebra import Polynomial, bernoulli_number
from cumulantcalc.forests import (
    alpha,
    depth,
    labelling_polynomial,
    labelling_polynomial_of,
    partition_tree_factorial,
)
from cumulantcalc.partitions import SetPartition, enumerate_monotone, enumerate_partitions

from oracles import (
    all_planar_forests,
    forest_invariants_by_trees,
    interval_closure_by_fixpoint,
    monotone_orders_brute,
    nesting_forest_by_enclosure,
    nondecreasing_labellings_brute,
    parents_by_enclosure,
    restrict_by_blocks,
    tree_factorial_by_sizes,
    tree_shapes_by_recursion,
    tree_size,
)

P = SetPartition.from_text


def path_tree(n):
    t = ()
    for _ in range(n - 1):
        t = (t,)
    return t


def star_tree(leaves):
    return ((),) * leaves


def monotone_labelling_count(pi):
    """Number of orders making the partition monotone: |pi|! / tau(pi)!."""
    q, r = divmod(factorial(pi.num_blocks), partition_tree_factorial(pi))
    assert r == 0
    return q


def test_nesting_forest_eighteen_point_example():
    pi = SetPartition.from_blocks(
        18,
        [[1, 2, 10], [3, 6], [4, 5], [7], [8, 9],
         [11, 14, 18], [12, 13], [15, 17], [16]],
    )
    # two trees: {1,2,10} over {3,6} (over {4,5}), {7} and {8,9}, and
    # {11,14,18} over {12,13} and {15,17} (over {16}); t! = (5 * 2) * (4 * 2)
    assert forests._shape(pi) == (((), (), ((),)), ((), ((),)))
    assert partition_tree_factorial(pi) == 80
    assert sorted(map(tree_size, nesting_forest_by_enclosure(pi))) == [4, 5]
    parent = parents_by_enclosure(pi)
    bs = pi.blocks

    def children(block):
        return {bs[c] for c, p in enumerate(parent) if p is not None and bs[p] == block}

    # roots {1,2,10} and {11,14,18}; under the first {3,6}, {7}, {8,9}, and
    # {4,5} hangs under {3,6}
    assert {bs[r] for r, p in enumerate(parent) if p is None} == {(1, 2, 10), (11, 14, 18)}
    assert children((1, 2, 10)) == {(3, 6), (7,), (8, 9)}
    assert children((3, 6)) == {(4, 5)}
    assert children((11, 14, 18)) == {(12, 13), (15, 17)}
    assert children((15, 17)) == {(16,)}


def test_monotone_labelling_count_examples():
    assert monotone_labelling_count(SetPartition.one_block(5)) == 1
    assert monotone_labelling_count(P("1,6|2,3|4,5")) == 2  # star with 2 leaves
    for k in range(1, 6):
        interval = SetPartition.from_blocks(k, [[i] for i in range(1, k + 1)])
        assert monotone_labelling_count(interval) == factorial(k)


def test_monotone_labelling_count_matches_brute_force():
    for n in range(1, 7):
        for pi in enumerate_partitions(n, "noncrossing"):
            assert monotone_labelling_count(pi) == monotone_orders_brute(pi), pi


def test_monotone_total_count():
    for n in range(1, 9):
        total = sum(
            monotone_labelling_count(pi)
            for pi in enumerate_partitions(n, "noncrossing")
        )
        assert total == factorial(n + 1) // 2
    # and the ordered enumeration agrees
    assert sum(1 for _ in enumerate_monotone(6)) == factorial(7) // 2


def test_labelling_polynomial_base_cases():
    assert labelling_polynomial(((),)) == Polynomial([0, 1])
    for n in range(1, 6):
        p = labelling_polynomial((path_tree(n),))
        binom = Polynomial([1])
        x = Polynomial([0, 1])
        for i in range(n):
            binom = binom * (x + (n - 1 - i)) / (i + 1)
        assert p == binom  # C(N+n-1, n)
    # star with 2 leaves at N=2: enumerate all 8 labellings, 5 qualify
    star = (star_tree(2),)
    assert nondecreasing_labellings_brute(star, 2) == 5
    assert labelling_polynomial(star).evaluate(2) == 5


def test_labelling_polynomial_matches_brute_force():
    for size in range(1, 6):
        for forest in all_planar_forests(size):
            p = labelling_polynomial(forest)
            assert p.coefficient(0) == 0
            assert len(p.coeffs) <= size + 1
            for colors in range(5):
                assert p.evaluate(colors) == nondecreasing_labellings_brute(
                    forest, colors
                ), forest


def test_alpha_worked_examples():
    for n in range(1, 6):
        assert alpha(SetPartition.one_block(n)) == 1
    # star with n leaves -> n-th Bernoulli value at 1
    for leaves, pi in [
        (2, P("1,6|2,3|4,5")),
        (3, P("1,8|2,3|4,5|6,7")),
    ]:
        assert alpha(pi) == bernoulli_number(leaves)
    assert alpha(P("1,6|2,3|4,5")) == Fraction(1, 6)
    # nested chain of n blocks -> 1/n
    for n in range(1, 6):
        chain = SetPartition.from_blocks(
            2 * n, [[i, 2 * n + 1 - i] for i in range(1, n + 1)]
        )
        assert alpha(chain) == Fraction(1, n)


def test_alpha_vanishes_on_reducible():
    for n in range(1, 8):
        for pi in enumerate_partitions(n, "noncrossing"):
            if not pi.is_irreducible():
                assert alpha(pi) == 0


def test_weight_multiplicative_over_components():
    for n in range(1, 8):
        for pi in enumerate_partitions(n, "noncrossing"):
            w = Fraction(1, partition_tree_factorial(pi))
            product = Fraction(1)
            for support in interval_closure_by_fixpoint(pi).blocks:
                product *= Fraction(1, partition_tree_factorial(restrict_by_blocks(pi, support)))
            assert w == product


def test_child_order_never_affects_numbers():
    # reversing children everywhere leaves factorial and polynomial unchanged
    def mirror(t):
        return tuple(mirror(c) for c in reversed(t))

    for size in range(1, 6):
        for forest in all_planar_forests(size):
            m = mirror(forest)
            assert (prod(map(tree_factorial_by_sizes, forest))
                    == prod(map(tree_factorial_by_sizes, m)))
            assert labelling_polynomial(forest) == labelling_polynomial(m)


def test_depth():
    assert depth(SetPartition.one_block(4)) == 1
    assert depth(P("1,4|2,3")) == 2
    assert depth(P("1,6|2,5|3,4")) == 3
    with pytest.raises(ValueError):
        depth(P("1,3|2,4"))


def test_labelling_polynomial_of_partition():
    assert labelling_polynomial_of(SetPartition.one_block(3)) == Polynomial([0, 1])


def _clear_shape_caches():
    for cache in (forests._shape, forests._tree_poly, forests._forest_poly,
                  partition_tree_factorial):
        cache.cache_clear()


def test_invariants_match_the_rooted_tree_oracle():
    _clear_shape_caches()
    for n in range(1, 10):
        for pi in enumerate_partitions(n, "noncrossing"):
            a, poly, tree_fact, d = forest_invariants_by_trees(pi)
            assert alpha(pi) == a, pi
            assert labelling_polynomial_of(pi) == poly, pi
            assert partition_tree_factorial(pi) == tree_fact, pi
            assert depth(pi) == d, pi


def test_tree_factorial_and_depth_build_no_shape():
    # both are counts of nesting pairs, read without the forest shape
    _clear_shape_caches()
    for pi in enumerate_partitions(7, "noncrossing"):
        partition_tree_factorial(pi)
        depth(pi)
    assert forests._shape.cache_info().currsize == 0


def test_alpha_sums_once_per_tree_shape(monkeypatch):
    calls = []
    indefinite_sum = forests._indefinite_sum
    monkeypatch.setattr(forests, "_indefinite_sum",
                        lambda q: calls.append(q) or indefinite_sum(q))
    _clear_shape_caches()
    members = list(enumerate_partitions(9, "noncrossing"))
    for pi in members:
        alpha(pi)
    shapes = set()
    for pi in members:
        for t in nesting_forest_by_enclosure(pi):
            tree_shapes_by_recursion(t, shapes)
    # 37 of the 486 rooted trees with at most 9 vertices occur
    assert len(shapes) == 37
    assert 0 < len(calls) <= len(shapes)

