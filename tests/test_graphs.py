"""Partition graphs, Tutte evaluation, orientation counts, pyramids."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cumulantcalc import cli, graphs
from cumulantcalc.cumulants import _beta_key, nested_pair_partition
from cumulantcalc.graphs import (
    MixedGraph,
    anti_interval_digraph,
    anti_interval_graph,
    count_pyramids,
    crossing_graph,
    enumerate_pyramids,
    graph_to_json,
    tutte_eval,
)
from cumulantcalc.partitions import SetPartition, enumerate_partitions, partitions_of

from oracles import (
    acyclic_orientations_by_orders,
    graph_is_connected,
    partition_sum_identity_check,
    tutte_polynomial,
)

P = SetPartition.from_text

BIG16 = SetPartition.from_blocks(
    16, [[1, 10], [2, 6], [3, 5], [4, 7], [8, 16], [9, 12], [11, 14], [13, 15]]
)


def test_crossing_graph_basics():
    assert crossing_graph(P("1,4|2,3")).undirected == ()
    assert crossing_graph(P("1,3|2,4")).undirected == ((0, 1),)
    for pi in enumerate_partitions(6, "noncrossing"):
        assert crossing_graph(pi).undirected == ()


def test_sixteen_point_example_graphs():
    # blocks in canonical order: {1,10},{2,6},{3,5},{4,7},{8,16},{9,12},{11,14},{13,15}
    g = crossing_graph(BIG16)
    assert g.undirected == ((0, 4), (0, 5), (1, 3), (2, 3), (5, 6), (6, 7))
    gt = anti_interval_graph(BIG16)
    assert gt.undirected == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3),
        (4, 5), (4, 6), (4, 7), (5, 6), (6, 7),
    )
    gd = anti_interval_digraph(BIG16)
    assert gd.undirected == g.undirected
    assert gd.directed == ((0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 6), (4, 7))


def test_anti_interval_graph_basics():
    assert anti_interval_graph(P("1,2|3,4")).undirected == ()
    assert anti_interval_graph(P("1,3|2")).undirected == ((0, 1),)
    for pi in enumerate_partitions(6, "interval"):
        assert anti_interval_graph(pi).undirected == ()


def test_digraph_conventions():
    d = anti_interval_digraph(P("1,4|2,3"))
    assert d.directed == ((0, 1),) and d.undirected == ()
    d = anti_interval_digraph(P("1,3|2,4"))
    assert d.undirected == ((0, 1),) and d.directed == ()
    # a pair that crosses and nests at the same time stays undirected
    d = anti_interval_digraph(P("1,3,5|2,4"))
    assert d.undirected == ((0, 1),) and d.directed == ()


def test_mixed_graph_validation():
    with pytest.raises(ValueError):
        MixedGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        MixedGraph(2, (), ((0, 0),))


def test_partition_graphs_equal_the_checked_constructor():
    # the graphs skip the check and the sort: the edges are valid and sorted
    for n in range(1, 9):
        for pi in partitions_of(n):
            crossing, nesting = pi.block_pairs()
            k = pi.num_blocks
            assert crossing_graph(pi) == MixedGraph(k, tuple(crossing))
            assert anti_interval_graph(pi) == MixedGraph(k, tuple(crossing + nesting))
            assert anti_interval_digraph(pi) == MixedGraph(k, tuple(crossing), tuple(nesting))


def _oracle_value(g, x, y) -> Fraction:
    """T_G(x, y) summed from the subset-expansion oracle's coefficients."""
    x, y = Fraction(x), Fraction(y)
    return sum(c * x**i * y**j for (i, j), c in tutte_polynomial(g).items())


def test_tutte_eval_small_graphs():
    edgeless = MixedGraph(3)
    assert tutte_eval(edgeless) == 1 and type(tutte_eval(edgeless)) is int
    edge = MixedGraph(2, ((0, 1),))
    assert tutte_eval(edge) == 1  # bridge contributes x
    assert _oracle_value(edge, 7, 3) == 7
    loop = MixedGraph(1, (), (), (0,))
    assert tutte_eval(loop) == 0 and type(tutte_eval(loop)) is int
    assert _oracle_value(loop, 5, 3) == 3
    triangle = MixedGraph(3, ((0, 1), (0, 2), (1, 2)))
    # delete-contract by hand: T = x^2 + x + y
    assert tutte_polynomial(triangle) == {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert tutte_eval(triangle) == 2
    c4 = MixedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert tutte_eval(c4) == 3
    double_edge = MixedGraph(2, ((0, 1), (0, 1)))
    assert tutte_polynomial(double_edge) == {(1, 0): 1, (0, 1): 1}


def test_tutte_multigraph_cases():
    # contraction produces parallels and loops; check them directly
    theta = MixedGraph(2, ((0, 1), (0, 1), (0, 1)))
    assert tutte_polynomial(theta) == {(1, 0): 1, (0, 1): 1, (0, 2): 1}
    bridge_loop = MixedGraph(2, ((0, 1),), (), (0,))
    assert tutte_polynomial(bridge_loop) == {(1, 1): 1}
    assert tutte_eval(bridge_loop) == 0  # the loop kills T(1,0)
    assert type(tutte_eval(bridge_loop)) is int
    # orientation of directed edges is ignored by Tutte
    mixed = MixedGraph(3, ((0, 1),), ((2, 1),))
    plain = MixedGraph(3, ((0, 1), (1, 2)))
    assert tutte_polynomial(mixed) == tutte_polynomial(plain)
    # a directed edge still counts: it closes this triangle
    assert tutte_eval(MixedGraph(3, ((0, 1), (0, 2)), ((2, 1),))) == 2


def test_tutte_eval_matches_the_polynomial_oracle_at_1_0():
    # the multigraphs of test_tutte_multigraph_cases, then every crossing
    # and anti-interval graph of n <= 7
    cases = [
        MixedGraph(2, ((0, 1), (0, 1), (0, 1))),
        MixedGraph(2, ((0, 1),), (), (0,)),
        MixedGraph(3, ((0, 1),), ((2, 1),)),
        # a path, chordal, but 0 and 1 are earlier neighbours of 2 that
        # are not joined: not a perfect elimination order
        MixedGraph(3, ((0, 2), (1, 2))),
        MixedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))),  # C4, not chordal
        MixedGraph(2, ((0, 1), (0, 1))),  # a double edge: T(1,0) = 1
        MixedGraph(4, ((0, 1), (0, 2), (1, 2)), (), (3,)),  # a loop and a triangle
    ]
    for n in range(1, 8):
        for pi in partitions_of(n, "all"):
            cases += [crossing_graph(pi), anti_interval_graph(pi)]
    for g in cases:
        assert tutte_eval(g) == _oracle_value(g, 1, 0), g


def test_anti_interval_graphs_never_reach_deletion_contraction(capsys):
    # their vertex order is a perfect elimination order, so the product
    # answers and the memoized deletion-contraction is never entered
    graphs._tutte_10.cache_clear()
    assert cli.main(["table", "tutte", "8"]) == 0
    assert cli.main(["verify", "thm3_boolean2class_tutte", "7"]) == 0
    info = graphs._tutte_10.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    # a graph that fails the test does go through it
    assert tutte_eval(MixedGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))) == 3
    assert graphs._tutte_10.cache_info().misses > 0


def test_tutte_product_with_four_or_more_earlier_neighbours():
    # T(1,0) = prod max(d_v, 1) where some vertex has d_v >= 4; a factor
    # miscounted only there passes the catalog (the d_v of each graph in
    # its comment)
    cases = [
        (nested_pair_partition(5), 24),  # d_v = 0..4
        (nested_pair_partition(6), 120),  # d_v = 0..5
        (P("1,10|2,9|3,8|4,7|5|6"), 96),  # d_v = 0, 1, 2, 3, 4, 4
        (P("1,12|2,11|3,10|4,9|5,7|6,8"), 120),  # a crossing pair in four hulls
    ]
    for pi, value in cases:
        g = anti_interval_graph(pi)
        assert tutte_eval(g) == value == acyclic_orientations_by_orders(g, 0), pi


def test_tutte_edge_order_independence():
    # randomized-pivot deletion-contraction (no memo) gives the same values
    from oracles import tutte_random_order

    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 6)
        possible = list(combinations(range(n), 2))
        edges = tuple(sorted(rng.sample(possible, k=min(len(possible), rng.randint(1, 7)))))
        g = MixedGraph(n, edges)
        base = tutte_eval(g)
        for _ in range(3):
            assert tutte_random_order(list(edges), Fraction(1), Fraction(0), rng) == base, edges


def test_acyclic_orientation_counts():
    # the orientation oracle on graphs counted by hand, against T(1, 0)
    k2 = MixedGraph(2, ((0, 1),))
    assert acyclic_orientations_by_orders(k2, 0) == 1
    assert acyclic_orientations_by_orders(k2, 1) == 1
    assert tutte_eval(k2) == 1
    triangle = MixedGraph(3, ((0, 1), (0, 2), (1, 2)))
    # 8 orientations, 6 acyclic, 2 per choice of source
    for v in range(3):
        assert acyclic_orientations_by_orders(triangle, v) == 2
    assert tutte_eval(triangle) == 2


def test_disconnected_orientation_count_warns_zero():
    # Checks zero counts: a disconnected graph has no single-source acyclic
    # orientation, while T(1, 0) is the product over its components and so
    # no count of them.  Both enumerations give zero: the oracle over vertex
    # orders and the library's generator behind the pyramid counts.
    g = MixedGraph(3, ((0, 1),))
    assert tutte_eval(g) == 1
    for v in range(3):
        assert acyclic_orientations_by_orders(g, v) == 0
        assert list(graphs._acyclic_with_unique_source(g.n, list(g.undirected), v)) == []


def test_source_independence_random_graphs():
    rng = random.Random(11)
    found = 0
    while found < 50:
        n = rng.randint(2, 6)
        possible = list(combinations(range(n), 2))
        edges = tuple(sorted(rng.sample(possible, k=rng.randint(1, len(possible)))))
        g = MixedGraph(n, edges)
        if not graph_is_connected(g):
            continue
        found += 1
        counts = {acyclic_orientations_by_orders(g, v) for v in range(n)}
        assert len(counts) == 1
        assert counts.pop() == tutte_eval(g)


def test_pyramids_trivial_cases():
    top = SetPartition.one_block(4)
    assert count_pyramids(top, "crossing") == 1
    assert count_pyramids(top, "interval") == 1
    assert count_pyramids(P("1,3|2,4"), "crossing") == 1
    with pytest.raises(ValueError):
        list(enumerate_pyramids(P("1,2|3,4"), "interval"))
    with pytest.raises(ValueError):
        list(enumerate_pyramids(P("1,2,3|4,5"), "crossing"))
    with pytest.raises(ValueError):
        list(enumerate_pyramids(top, "banana"))


def test_eleven_point_interval_heap_example():
    # five blocks whose anti-interval graph is a fan with a pendant vertex
    pi = SetPartition.from_blocks(11, [[1, 4, 8], [2, 5], [3, 7], [6, 11], [9, 10]])
    g = anti_interval_graph(pi)
    assert g.undirected == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4))
    t = tutte_eval(g)
    assert t == 4
    pyramids = list(enumerate_pyramids(pi, "interval"))
    assert len(pyramids) == 4
    assert all(h.is_pyramid() for h in pyramids)
    assert t == acyclic_orientations_by_orders(g, 0)


def test_eight_point_crossing_heap_example():
    pi = SetPartition.from_blocks(8, [[1, 4], [2, 7], [3, 6], [5, 8]])
    g = crossing_graph(pi)
    assert g.undirected == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert tutte_eval(g) == 3
    assert acyclic_orientations_by_orders(g, 0) == 3
    assert count_pyramids(pi, "crossing") == 3


def test_three_way_agreement_small():
    for n in range(1, 7):
        for pi in partitions_of(n, "connected"):
            g = crossing_graph(pi)
            t = tutte_eval(g)
            assert t == acyclic_orientations_by_orders(g, 0)
            assert t == count_pyramids(pi, "crossing")
        for pi in partitions_of(n, "irreducible"):
            g = anti_interval_graph(pi)
            t = tutte_eval(g)
            assert t == acyclic_orientations_by_orders(g, 0)
            assert t == count_pyramids(pi, "interval")


def test_partition_sum_identity():
    single = MixedGraph(1)
    assert partition_sum_identity_check(single, Fraction(0)) == 1
    k2 = MixedGraph(2, ((0, 1),))
    assert partition_sum_identity_check(k2, Fraction(0)) == 1
    assert partition_sum_identity_check(MixedGraph(2), Fraction(0)) == 0
    with pytest.raises(ValueError):
        partition_sum_identity_check(k2, Fraction(1))
    with pytest.raises(ValueError, match="at least one vertex"):
        partition_sum_identity_check(MixedGraph(0), 2)


def test_partition_sum_matches_tutte_on_all_small_graphs():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for edge_count in range(0, min(len(pairs), 7) + 1):
            for edges in combinations(pairs, edge_count):
                g = MixedGraph(n, tuple(edges))
                connected = graph_is_connected(g)
                for q in (Fraction(0), Fraction(-1), Fraction(2)):
                    lhs = partition_sum_identity_check(g, q)
                    if not connected:
                        assert lhs == 0, (edges, q)
                    elif q == 0:
                        assert lhs == tutte_eval(g), edges
                    else:
                        assert lhs == _oracle_value(g, 1, q), (edges, q)


def test_digraph_key_and_serialization():
    # beta's memo key is the digraph's block count and edge lists
    assert _beta_key(P("1,4|2,3")) == (2, (), ((0, 1),))
    d = anti_interval_digraph(P("1,4|2,3"))
    js = graph_to_json(d)
    assert js == {"n": 2, "undirected": [], "directed": [[0, 1]], "loops": []}
