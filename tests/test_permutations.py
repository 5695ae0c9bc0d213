"""Permutation statistics, the heap bijection, and the involution."""

from collections import Counter
from itertools import permutations as iterperms
from math import factorial

import pytest

from cumulantcalc.graphs import HeapOrder, anti_interval_graph, enumerate_pyramids, tutte_eval
from cumulantcalc.partitions import SetPartition, partitions_of
from cumulantcalc.permutations import (
    Permutation,
    all_permutations,
    cycle_runs,
    cycles,
    cyclic_permutations,
    eulerian,
    eulerian_polynomial,
    phi,
    psi,
    psi_inverse,
    runs,
)

from oracles import identity_permutation

P = SetPartition.from_text


def test_permutation_basics():
    s = Permutation((2, 3, 1))
    assert s(1) == 2 and s.n == 3
    assert s.cycle_string() == "(1,2,3)"
    assert Permutation.from_cycles(3, [(1, 2, 3)]) == s
    assert Permutation.from_cycles(7, [(1, 3), (2, 5, 7)]).word == (3, 5, 1, 4, 7, 6, 2)
    # a permutation is its one-line word
    assert s == s.word and hash(s) == hash(s.word) and type(s.word) is tuple
    for name in ("word", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, (1, 2, 3))
    assert identity_permutation(4).is_interval_type()
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 9)])


def test_runs_examples():
    part, d = runs(identity_permutation(5))
    assert part == SetPartition.one_block(5) and d == 0
    part, d = runs(Permutation((5, 4, 3, 2, 1)))
    assert part == SetPartition.singletons(5) and d == 4
    part, d = runs(Permutation((1, 3, 2, 4)))
    assert part == P("1,3|2,4") and d == 1


def test_run_count_is_descents_plus_one():
    for n in range(1, 8):
        for s in all_permutations(n):
            part, d = runs(s)
            assert part.num_blocks == d + 1
            assert d == sum(1 for a, b in zip(s.word, s.word[1:]) if a > b)


def test_cycle_runs_examples():
    s = Permutation.from_cycles(9, [(1, 3), (2, 5, 7, 4, 6), (8, 9)])
    assert cycle_runs(s) == SetPartition.from_blocks(
        9, [[1, 3], [2, 5, 7], [4, 6], [8, 9]]
    )
    assert cycles(s) == SetPartition.from_blocks(9, [[1, 3], [2, 4, 5, 6, 7], [8, 9]])
    ident = identity_permutation(4)
    assert cycle_runs(ident) == SetPartition.singletons(4)
    assert cycles(ident) == SetPartition.singletons(4)
    full = Permutation.from_cycles(5, [range(1, 6)])
    assert cycle_runs(full) == SetPartition.one_block(5)


def test_cycle_runs_refines_cycles():
    for n in range(1, 7):
        for s in all_permutations(n):
            cr = cycle_runs(s)
            cy = cycles(s)
            from cumulantcalc.partitions import lattice_leq

            assert lattice_leq(cr, cy)


def test_cycleruns_of_full_cycles_are_irreducible():
    for n in range(1, 9):
        for s in cyclic_permutations(n):
            assert cycle_runs(s).is_irreducible(), s


def test_eulerian_numbers():
    assert eulerian(3, 1) == 4
    for n in range(8):
        assert eulerian(n, 0) == 1
    # against direct descent counting
    for n in range(1, 8):
        direct = [0] * n
        for w in iterperms(range(1, n + 1)):
            direct[sum(1 for a, b in zip(w, w[1:]) if a > b)] += 1
        for k in range(n):
            assert eulerian(n, k) == direct[k]
    assert eulerian_polynomial(3).evaluate(-1) == -2
    assert sum(eulerian(5, k) for k in range(5)) == factorial(5)


def test_psi_examples():
    full = Permutation.from_cycles(6, [range(1, 7)])
    heap = psi(full)
    assert heap.base == SetPartition.one_block(6)
    assert heap.above == ()
    big = Permutation.from_cycles(13, [(1, 6, 12, 4, 10, 7, 13, 9, 11, 3, 8, 2, 5)])
    heap = psi(big)
    assert heap.base == SetPartition.from_blocks(
        13, [[1, 6, 12], [2, 5], [3, 8], [4, 10], [7, 13], [9, 11]]
    )
    # arcs derived by hand: word order of the runs is blocks 0,3,4,5,2,1
    # and every hull-intersecting pair is oriented earlier -> later
    assert heap.above == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 1),
        (3, 1), (3, 2), (3, 4), (3, 5), (4, 2), (4, 5),
    )
    assert psi_inverse(heap) == big
    with pytest.raises(ValueError):
        psi(identity_permutation(3))


def test_psi_round_trips_exhaustively():
    for n in range(1, 8):
        for s in cyclic_permutations(n):
            assert psi_inverse(psi(s)) == s


def test_psi_inverse_round_trips_on_all_pyramids():
    for n in range(1, 7):
        for pi in partitions_of(n, "irreducible"):
            for heap in enumerate_pyramids(pi, "interval"):
                s = psi_inverse(heap)
                assert s.is_cyclic()
                assert cycle_runs(s) == pi
                assert psi(s) == heap


def test_psi_inverse_validation():
    with pytest.raises(ValueError):
        psi_inverse(HeapOrder(P("1,2|3,4"), ()))  # reducible base
    pi = P("1,4|2|3")
    g = anti_interval_graph(pi)
    # wrong orientation set: missing edges
    with pytest.raises(ValueError):
        psi_inverse(HeapOrder(pi, ((0, 1),)))
    # orientation with a non-pyramid source
    arcs = tuple((b, a) for a, b in g.undirected)
    with pytest.raises(ValueError):
        psi_inverse(HeapOrder(pi, arcs))


def test_cyclic_count_matches_tutte():
    for n in range(1, 9):
        counts = Counter(map(cycle_runs, cyclic_permutations(n)))
        # the word 1 a_2 ... a_n read as a permutation fixing 1 and read as
        # the full cycle (1 a_2 ... a_n) has the same increasing runs, which
        # is why cor_runs and thm4_cyclecruns share their right-hand side
        fix_counts = Counter(
            runs(Permutation((1,) + rest))[0] for rest in iterperms(range(2, n + 1))
        )
        assert fix_counts == counts, n
        for pi in partitions_of(n, "irreducible"):
            t = tutte_eval(anti_interval_graph(pi))
            assert counts.get(pi, 0) == t, pi
        # nothing outside the irreducible family shows up
        assert sum(counts.values()) == factorial(n - 1)


def test_phi_example_pair():
    a = Permutation.from_cycles(9, [(1, 3), (2, 5, 7, 4, 6), (8, 9)])
    b = Permutation.from_cycles(9, [(1, 3), (2, 5, 7), (4, 6), (8, 9)])
    assert phi(a) == b
    assert phi(b) == a


def test_phi_is_involution_with_invariants():
    for n in range(1, 7):
        for s in all_permutations(n):
            if s.is_interval_type():
                with pytest.raises(ValueError):
                    phi(s)
                continue
            t = phi(s)
            assert phi(t) == s
            assert cycle_runs(t) == cycle_runs(s)
            assert abs(cycles(t).num_blocks - cycles(s).num_blocks) == 1
            word_s = s.concatenated_cycle_word()
            word_t = t.concatenated_cycle_word()
            assert word_s == word_t  # same word, hence same last descent


def test_interval_type_detection():
    assert Permutation.from_cycles(5, [(1, 2), (3,), (4, 5)]).is_interval_type()
    assert not Permutation.from_cycles(3, [(1, 3), (2,)]).is_interval_type()
    for n in range(1, 7):
        for s in all_permutations(n):
            expected = all(
                c == tuple(range(min(c), max(c) + 1)) for c in s.standard_cycles()
            )
            assert s.is_interval_type() == expected
