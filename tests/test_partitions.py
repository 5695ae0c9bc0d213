"""Partitions: classes, closures, components, lattice, Moebius, enumeration."""

import random
from collections import Counter
from itertools import permutations, product
from math import factorial

import pytest

from cumulantcalc.forests import partition_tree_factorial
from cumulantcalc.limits import DEFAULT_LIMITS, ResourceLimitError, override
from cumulantcalc.partitions import (
    OrderedPartition,
    SetPartition,
    _CLASS_WALK,
    _rgs_irreducible,
    catalan_number,
    enumerate_monotone,
    enumerate_partitions,
    kreweras_complement,
    lattice_leq,
    lower_interval,
    mobius_to_top,
    partitions_of,
)

from oracles import (
    bell_number,
    block_pairs_by_predicates,
    blocks_cross_by_runs,
    catalan_direct,
    closure_brute,
    connected_by_union_find,
    interval_by_blocks,
    interval_closure_by_fixpoint,
    kreweras_by_separation,
    lattice_join,
    lattice_meet,
    mobius_brute,
    mobius_by_blocks,
    monotone_by_predicates,
    noncrossing_by_pairs,
    noncrossing_closure_by_fixpoint,
    ordered_text_by_blocks,
    partitions_by_growth,
    prune_interval,
    prune_noncrossing,
    rgs_by_prune,
    text_by_blocks,
    triangle_geq,
)

P = SetPartition.from_text


def test_canonical_form_and_text():
    pi = SetPartition.from_blocks(5, [[4, 5], [2], [3, 1]])
    assert pi.blocks == ((1, 3), (2,), (4, 5))
    assert pi.to_text() == "1,3|2|4,5"
    assert P("1,3|2|4,5") == pi
    assert SetPartition.from_json([[1, 3], [2], [4, 5]]) == pi
    assert pi.rgs == (0, 1, 0, 2, 2)


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2], [2, 3]])
    # a large label is rejected in time of the elements listed, not of [n]
    for build in (lambda: SetPartition.from_text("1,1000000000000"),
                  lambda: SetPartition.from_json([[1], [10**12]]),
                  lambda: SetPartition.from_blocks(10**12, [[1]])):
        with pytest.raises(ValueError, match=r"^blocks do not partition \[1000000000000\]$"):
            build()
    # n labels that are not 1..n
    with pytest.raises(ValueError, match="do not partition"):
        SetPartition.from_blocks(3, [[1, 2.5, 3]])
    for rgs in ((1, 0), (0, 2), (0, -1), (0, 1, 3)):
        with pytest.raises(ValueError):
            SetPartition(rgs)
    # entries that are not integers, bools included, as from_json rejects
    for rgs in ([0.0, 1.0], ["0"], [False, True]):
        with pytest.raises(ValueError, match="not a restricted growth string"):
            SetPartition(rgs)


def test_empty_partition_text_and_json_rejected():
    for text in ("", " ", "|"):
        with pytest.raises(ValueError, match="^empty partition$"):
            SetPartition.from_text(text)
    for data in ([], [[]]):
        with pytest.raises(ValueError, match="^empty partition$"):
            SetPartition.from_json(data)
    with pytest.raises(ValueError, match="empty block"):
        SetPartition.from_json([[1], []])
    for data in ([1, 2], ["12"], [[1.0]], [[True]], "1"):
        with pytest.raises(ValueError, match="list of lists"):
            SetPartition.from_json(data)


def test_blocks_cross_matches_run_count_oracle():
    # every ordered pair (a, b) of disjoint nonempty blocks of [9]: the
    # two-block partition of a | b, relabelled onto [|a | b|], has a
    # crossing pair iff a and b cross
    pairs = 0
    for owner in product((0, 1, 2), repeat=9):
        a = tuple(x for x, o in enumerate(owner, start=1) if o == 1)
        b = tuple(x for x, o in enumerate(owner, start=1) if o == 2)
        if a and b:
            rank = {x: r for r, x in enumerate(sorted(a + b), start=1)}
            pi = SetPartition.from_blocks(
                len(rank), [[rank[x] for x in a], [rank[x] for x in b]]
            )
            assert bool(pi.block_pairs()[0]) == blocks_cross_by_runs(a, b), (a, b)
            pairs += 1
    assert pairs == 3**9 - 2 * 2**9 + 1


def test_class_predicates_match_oracles():
    # every partition of n <= 9: the one-pass scans and the closures against
    # pairwise tests
    for n in range(1, 10):
        for pi in enumerate_partitions(n):
            assert pi.is_noncrossing() == noncrossing_by_pairs(pi), pi
            connected = pi.is_connected()
            nc_closure = pi.noncrossing_closure()
            assert nc_closure == noncrossing_closure_by_fixpoint(pi), pi
            assert connected == (nc_closure.num_blocks == 1), pi
            assert connected == connected_by_union_find(pi), pi
            interval_closure = interval_closure_by_fixpoint(pi)
            assert pi.is_irreducible() == (interval_closure.num_blocks == 1), pi
            assert pi.is_interval() == interval_by_blocks(pi), pi
            assert pi.block_sizes() == tuple(map(len, pi.blocks))
    for n in range(1, 7):
        for pi in enumerate_partitions(n):
            closure = closure_brute(pi, lambda s: s.is_noncrossing())
            assert pi.is_connected() == (closure.num_blocks == 1), pi


def test_text_from_the_rgs_matches_the_blocks():
    for n in range(1, 10):
        for pi in enumerate_partitions(n):
            assert pi.to_text() == text_by_blocks(pi), pi
    for op in enumerate_monotone(6):
        assert op.to_text() == ordered_text_by_blocks(op), op
    # the text extends a cached parent prefix: visit the strings out of
    # walk order, with ordered partitions' texts asked for in between
    rng = random.Random(3301)
    shuffled = list(enumerate_partitions(7))
    rng.shuffle(shuffled)
    reversed_nc = list(enumerate_partitions(9, "noncrossing"))[::-1]
    orders = list(enumerate_monotone(5))
    for i, pi in enumerate(shuffled + reversed_nc):
        assert pi.to_text() == text_by_blocks(pi), pi
        op = orders[i % len(orders)]
        assert op.to_text() == ordered_text_by_blocks(op), op
    # three-digit labels: a label table cut short would drop elements
    big = SetPartition.from_blocks(300, [range(r, 301, 7) for r in range(1, 8)])
    assert SetPartition.from_text(big.to_text()) == big


def test_counting_against_independent_formulas():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_partitions(n)) == bell_number(n)
        nc = sum(1 for _ in enumerate_partitions(n, "noncrossing"))
        assert nc == catalan_number(n) == catalan_direct(n)
        assert sum(1 for _ in enumerate_partitions(n, "interval")) == 2 ** (n - 1)


def test_enumeration_examples():
    assert len(list(enumerate_partitions(4))) == 15
    assert len(list(enumerate_partitions(4, "noncrossing"))) == 14
    for cls in _CLASS_WALK:
        assert list(enumerate_partitions(1, cls)) == [P("1")]


def test_enumeration_is_rgs_filter_order():
    # Every class, pruned walk and filter, equals P(n) in RGS order filtered
    # by the oracles' predicates.
    def irreducible(p):
        return interval_closure_by_fixpoint(p).num_blocks == 1

    oracle = {
        "all": lambda p: True,
        "noncrossing": noncrossing_by_pairs,
        "interval": interval_by_blocks,
        "irreducible": irreducible,
        "connected": connected_by_union_find,
        "irreducible-noncrossing":
            lambda p: noncrossing_by_pairs(p) and irreducible(p),
        "connected-noncrossing":
            lambda p: noncrossing_by_pairs(p) and connected_by_union_find(p),
    }
    assert set(oracle) == set(_CLASS_WALK)
    for n in range(1, 10):
        everything = partitions_by_growth(n)
        for cls, keep in oracle.items():
            filtered = [p for p in everything if keep(p)]
            assert list(enumerate_partitions(n, cls)) == filtered, (n, cls)
        # a connected noncrossing partition is its own noncrossing closure
        assert list(enumerate_partitions(n, "connected-noncrossing")) == [
            SetPartition.one_block(n)
        ]


def test_walks_equal_the_walk_that_tests_every_block():
    # the chain of enclosing blocks against a crossing test per block
    for n, walk, prune in ((10, "noncrossing", prune_noncrossing),
                           (11, "noncrossing", prune_noncrossing),
                           (12, "interval", prune_interval)):
        assert [p.rgs for p in enumerate_partitions(n, walk)] == list(rgs_by_prune(n, prune))


def test_irreducible_counts_are_a074664():
    counts = [1, 1, 2, 6, 22, 92, 426, 2146, 11624, 67146]
    assert [len(partitions_of(n, "irreducible")) for n in range(1, 11)] == counts


@pytest.mark.parametrize("cls, n, walk_reads", [
    ("connected", 10, 15_747),  # irreducible, with no singleton block
    ("connected-noncrossing", 12, 2_188),  # the members of NC(12) with 1 ~ 12 and none either
    ("irreducible", 10, 67_146),  # A074664(10): the members alone
    ("irreducible-noncrossing", 11, 16_796),  # C(10): the members alone
])
def test_connected_walks_skip_prefixes_with_too_many_singletons(
        monkeypatch, cls, n, walk_reads):
    # the filter reads only strings the restriction let through; without
    # it, it would read all of P(10) (115,975) or NC(n).  The irreducible
    # classes keep no filter, so their predicate stands in for one: it
    # reads no string outside the class
    walk, restriction, keep = _CLASS_WALK[cls]
    keep = keep or _rgs_irreducible
    read = []

    def counted(rgs):
        read.append(rgs)
        return keep(rgs)

    monkeypatch.setitem(_CLASS_WALK, cls, (walk, restriction, counted))
    stream = [p.rgs for p in enumerate_partitions(n, cls)]
    assert len(read) <= walk_reads
    monkeypatch.setitem(_CLASS_WALK, cls, (walk, None, keep))
    assert stream == [p.rgs for p in enumerate_partitions(n, cls)]


def test_partitions_of_limit_checked_on_every_call(monkeypatch):
    assert len(partitions_of(5, "all")) == 52  # fills the cache
    monkeypatch.setitem(DEFAULT_LIMITS, "all", 4)
    with pytest.raises(ResourceLimitError):
        partitions_of(5, "all")
    with pytest.raises(ResourceLimitError):
        partitions_of(5)
    with override(5):  # an override wins
        assert len(partitions_of(5, "all")) == 52
    assert len(partitions_of(4)) == 15


@pytest.mark.parametrize("key, classes", [
    ("ALL", ("all", "irreducible", "connected")),
    ("NONCROSSING", ("noncrossing", "irreducible-noncrossing", "connected-noncrossing")),
])
def test_classes_are_checked_against_their_walk(monkeypatch, key, classes):
    # a class costs what its walk costs, so the walk's key bounds it
    monkeypatch.setitem(DEFAULT_LIMITS, key.lower(), 5)
    for cls in classes:
        assert partitions_of(5, cls)
        with pytest.raises(ResourceLimitError, match=f"for '{key.lower()}'"):
            partitions_of(6, cls)
        with pytest.raises(ResourceLimitError, match=f"for '{key.lower()}'"):
            next(enumerate_partitions(6, cls))


def test_limit_keys_are_the_walks_and_the_other_tasks():
    assert set(DEFAULT_LIMITS) == {
        "all", "noncrossing", "interval", "monotone",
        "beta-blocks", "cumulant-classical", "cumulant-other",
    }


def test_partitions_of_rejects_n_below_one():
    for n in (0, -1):
        for cls in _CLASS_WALK:
            with pytest.raises(ValueError, match="^n must be positive$"):
                partitions_of(n, cls)


def test_enumeration_limit_errors():
    with pytest.raises(ResourceLimitError):
        list(enumerate_partitions(11))
    with pytest.raises(ResourceLimitError):
        list(enumerate_monotone(9))
    with override(11):  # an override wins
        assert sum(1 for _ in enumerate_partitions(11)) == bell_number(11)


def test_classify_examples():
    pi = P("1,3|2,4")
    assert (pi.is_noncrossing(), pi.is_connected(), pi.is_irreducible(), pi.is_interval()) == (
        False,
        True,
        True,
        False,
    )
    pi = P("1,2|3")
    assert (pi.is_noncrossing(), pi.is_interval(), pi.is_irreducible(), pi.is_connected()) == (
        True,
        True,
        False,
        False,
    )
    # nine-point example: irreducible but not connected
    pi = SetPartition.from_blocks(9, [[1, 7], [2, 4], [3, 5], [6, 8, 9]])
    assert pi.is_irreducible() and not pi.is_connected()


def test_irreducible_iff_1_sim_n_for_noncrossing():
    for n in range(1, 9):
        for pi in enumerate_partitions(n, "noncrossing"):
            assert pi.is_irreducible() == (pi.block_index_of(n) == 0)


def test_irreducibility_preserved_by_noncrossing_closure():
    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            assert pi.is_irreducible() == pi.noncrossing_closure().is_irreducible()


def test_block_pairs_match_pairwise_predicates():
    for n in range(1, 10):
        for pi in enumerate_partitions(n):
            assert pi.block_pairs() == block_pairs_by_predicates(pi), pi
    crossing, nesting = P("1,3,5|2,4|6,8|7").block_pairs()
    assert crossing == [(0, 1)] and nesting == [(2, 3)]


def test_closure_examples():
    assert P("1,3|2,4").noncrossing_closure() == P("1,2,3,4")
    assert P("1,4|2,6|3|5").noncrossing_closure() == P("1,2,4,6|3|5")
    assert interval_closure_by_fixpoint(P("1,3|2")) == P("1,2,3")
    assert interval_closure_by_fixpoint(P("1,2|3,5|4")) == P("1,2|3,4,5")


def test_closures_are_closure_operators():
    for n in range(1, 8):
        for pi in enumerate_partitions(n):
            for closure in (SetPartition.noncrossing_closure, interval_closure_by_fixpoint):
                c = closure(pi)
                assert lattice_leq(pi, c)  # increasing
                assert closure(c) == c  # idempotent
        # order preservation on a sample of comparable pairs
    for pi in enumerate_partitions(5):
        for sigma in enumerate_partitions(5):
            if lattice_leq(pi, sigma):
                assert lattice_leq(pi.noncrossing_closure(), sigma.noncrossing_closure())
                assert lattice_leq(interval_closure_by_fixpoint(pi),
                                   interval_closure_by_fixpoint(sigma))


def test_closures_agree_with_brute_force_minimum():
    for n in range(1, 7):
        for pi in enumerate_partitions(n):
            assert pi.noncrossing_closure() == closure_brute(
                pi, lambda s: s.is_noncrossing()
            )
            assert interval_closure_by_fixpoint(pi) == closure_brute(
                pi, lambda s: s.is_interval()
            )


def test_lattice_operations():
    z3 = SetPartition.singletons(3)
    assert lattice_meet(P("1,2|3"), P("1|2,3")) == z3
    assert lattice_join(P("1,3|2|4"), P("1|2,4|3")) == P("1,3|2,4")
    for pi in enumerate_partitions(4):
        assert lattice_leq(SetPartition.singletons(4), pi)
        assert lattice_leq(pi, SetPartition.one_block(4))
    with pytest.raises(ValueError):
        lattice_leq(P("1,2"), P("1,2,3"))


def test_lattice_join_meet_are_bounds():
    for pi in enumerate_partitions(4):
        for sigma in enumerate_partitions(4):
            j = lattice_join(pi, sigma)
            m = lattice_meet(pi, sigma)
            assert lattice_leq(pi, j) and lattice_leq(sigma, j)
            assert lattice_leq(m, pi) and lattice_leq(m, sigma)
            for rho in enumerate_partitions(4):
                if lattice_leq(pi, rho) and lattice_leq(sigma, rho):
                    assert lattice_leq(j, rho)
                if lattice_leq(rho, pi) and lattice_leq(rho, sigma):
                    assert lattice_leq(rho, m)


def test_triangle_order():
    assert not triangle_geq(SetPartition.one_block(4), P("1,3|2,4"))
    pi = P("1,3|2|4,5")
    assert triangle_geq(pi, pi)
    assert triangle_geq(P("1,2,3|4,5"), P("1,3|2|4,5"))


def test_monotone_enumeration_counts():
    assert len(list(enumerate_monotone(1))) == 1
    assert len(list(enumerate_monotone(2))) == 3
    assert len(list(enumerate_monotone(3))) == 12
    for n in range(1, 7):
        assert len(list(enumerate_monotone(n))) == factorial(n + 1) // 2


def test_monotone_enumeration_matches_brute_force():
    # the stream, in order: RGS order of the bases, then the lexicographic
    # order of the block permutations
    for n in range(1, 7):
        got = [(op.base, op.order) for op in enumerate_monotone(n)]
        brute = [
            (base, perm)
            for base in enumerate_partitions(n)
            for perm in permutations(range(base.num_blocks))
            if monotone_by_predicates(OrderedPartition(base, perm))
        ]
        assert got == brute
    # the order counts the ordered-monotone form relies on: |pi|! / tau(pi)!
    # for every noncrossing pi, and no other base
    counts = Counter(op.base for op in enumerate_monotone(7))
    assert counts == {
        pi: factorial(pi.num_blocks) // partition_tree_factorial(pi)
        for pi in partitions_of(7, "noncrossing")
    }


def test_ordered_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition(P("1,2|3"), (0, 0))


def test_kreweras_complement_classical_facts():
    # |pi| + |K(pi)| = n + 1, K lands in NC(n), and K reverses refinement
    for n in range(1, 8):
        members = partitions_of(n, "noncrossing")
        for pi in members:
            k = kreweras_complement(pi)
            assert k.is_noncrossing()
            assert pi.num_blocks + k.num_blocks == n + 1
    for n in range(1, 7):
        members = partitions_of(n, "noncrossing")
        for pi in members:
            for sigma in members:
                if lattice_leq(pi, sigma):
                    assert lattice_leq(
                        kreweras_complement(sigma), kreweras_complement(pi)
                    )


def test_kreweras_complement_matches_separation_oracle():
    for n in range(1, 11):
        for pi in partitions_of(n, "noncrossing"):
            assert kreweras_complement(pi) == kreweras_by_separation(pi), pi


def test_lower_interval_matches_refinement_scan():
    # the product walk against the members^2 lattice_leq scan, with the
    # carried mu against the per-pair product over the blocks of pi
    for n in range(1, 8):
        for lattice in ("all", "noncrossing", "interval"):
            members = partitions_of(n, lattice)
            for pi in members:
                walk = list(lower_interval(pi, lattice))
                below = {sigma for sigma in members if lattice_leq(sigma, pi)}
                assert len(walk) == len(below) and {s for s, _ in walk} == below
                for sigma, mu in walk:
                    assert SetPartition(sigma.rgs) == sigma  # a valid RGS
                    assert mu == mobius_by_blocks(sigma, pi, lattice), (lattice, sigma, pi)


def test_lower_interval_examples_and_rejections():
    pi = P("1,3|2")
    assert dict(lower_interval(pi, "all")) == {pi: 1, SetPartition.singletons(3): -1}
    assert dict(lower_interval(P("1,2,3"), "interval")) == {
        P("1,2,3"): 1, P("1|2,3"): -1, P("1,2|3"): -1, P("1|2|3"): 1,
    }
    with pytest.raises(ValueError):
        next(lower_interval(P("1,3|2,4"), "noncrossing"))
    with pytest.raises(ValueError):
        next(lower_interval(pi, "interval"))
    with pytest.raises(ValueError):
        next(lower_interval(pi, "Q"))
    # the per-size tables are cached; a hit still checks the limit
    top = SetPartition.one_block(5)
    assert len(list(lower_interval(top, "all"))) == bell_number(5)
    with override(4), pytest.raises(ResourceLimitError):
        next(lower_interval(top, "all"))


def test_lattices_and_classes_have_one_name_each():
    # a lattice is named by its class: no letters, no case folding, and no
    # class that is not a lattice
    pi = P("1,2|3")
    lattices = "; lattices: all, noncrossing, interval$"
    for name in ("P", "NC", "I", "All", "irreducible"):
        with pytest.raises(ValueError, match=f"^unknown lattice '{name}'{lattices}"):
            next(lower_interval(pi, name))
        with pytest.raises(ValueError, match=f"^unknown lattice '{name}'{lattices}"):
            mobius_to_top(pi, name)
    with pytest.raises(ValueError, match="^unknown partition class 'bogus'; classes: all, "):
        partitions_of(3, "bogus")
    with pytest.raises(ValueError, match="^unknown partition class 'NC'"):
        next(enumerate_partitions(3, "NC"))


def test_kreweras_complement_examples():
    assert kreweras_complement(P("1,3|2")) == P("1,2|3")
    assert kreweras_complement(SetPartition.singletons(3)) == SetPartition.one_block(3)
    assert kreweras_complement(SetPartition.one_block(3)) == SetPartition.singletons(3)
    # the message names the partition, also when `mobius_to_top` is called
    for call in (kreweras_complement, lambda pi: mobius_to_top(pi, "noncrossing")):
        with pytest.raises(ValueError, match=r"^1,3\|2,4 is not a noncrossing partition$"):
            call(P("1,3|2,4"))


def _mu_to(sigma, lattice):
    """mu(pi, sigma) for every pi <= sigma, as `lower_interval` carries it."""
    return dict(lower_interval(sigma, lattice))


def test_mobius_closed_forms():
    for n in range(1, 8):
        bottom = SetPartition.singletons(n)
        top = SetPartition.one_block(n)
        assert _mu_to(top, "all")[bottom] == (-1) ** (n - 1) * factorial(n - 1)
        assert _mu_to(top, "noncrossing")[bottom] == (-1) ** (n - 1) * catalan_number(n - 1)
        assert _mu_to(top, "interval")[bottom] == (-1) ** (n - 1)
    assert _mu_to(SetPartition.one_block(4), "all")[SetPartition.singletons(4)] == -6
    assert _mu_to(SetPartition.one_block(4), "noncrossing")[SetPartition.singletons(4)] == -5
    assert _mu_to(SetPartition.one_block(3), "interval")[SetPartition.singletons(3)] == 1


def test_mobius_agrees_with_brute_force_recursion():
    for n in range(1, 6):
        for lattice in ("all", "noncrossing", "interval"):
            members = partitions_of(n, lattice)
            for sigma in members:
                mu = _mu_to(sigma, lattice)
                for pi in members:
                    if lattice_leq(pi, sigma):
                        assert mu[pi] == mobius_brute(members, pi, sigma), (lattice, pi, sigma)


def test_weisner_lemma():
    # For b = top and any a < b: sum over x with x meet a = c of mu(x, top)
    # vanishes (checked on the full partition lattice).
    for n in range(2, 6):
        members = partitions_of(n, "all")
        top = SetPartition.one_block(n)
        mu = _mu_to(top, "all")
        for a in members:
            if a == top:
                continue
            for c in members:
                if not lattice_leq(c, a):
                    continue
                total = sum(
                    mu[x]
                    for x in members
                    if lattice_meet(x, a) == c
                )
                assert total == 0, (n, a, c)


def test_mobius_to_top_matches_interval_form():
    for n in range(1, 6):
        top = SetPartition.one_block(n)
        members = partitions_of(n, "all")
        for pi in members:
            assert mobius_to_top(pi, "all") == mobius_brute(members, pi, top)
