"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (rational arithmetic end to end); the stated n
ranges are the documented limits, not samples.  Run with `pytest -v
tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
from fractions import Fraction
from math import comb, factorial

from cumulantcalc.algebra import Polynomial, TruncatedSeries, bernoulli_number
from cumulantcalc.cumulants import (
    CumulantKind,
    beta_formula,
    boolean_poisson_kappa,
    cumulants_from_moments,
    determinant_cumulants,
    nested_pair_partition,
    tilde_transform,
)
from cumulantcalc.forests import alpha, depth, labelling_polynomial
from cumulantcalc.graphs import (
    anti_interval_digraph,
    anti_interval_graph,
    count_pyramids,
    crossing_graph,
    tutte_eval,
)
from cumulantcalc.identities import (
    IDENTITY_CATALOG,
    run_catalog,
    verify_identity,
)
from cumulantcalc.partitions import (
    SetPartition,
    catalan_number,
    enumerate_monotone,
    enumerate_partitions,
    lattice_leq,
    lower_interval,
    partitions_of,
)
from cumulantcalc.permutations import (
    cycle_runs,
    cyclic_permutations,
    eulerian,
    psi,
    psi_inverse,
)

from oracles import (
    acyclic_orientations_by_orders,
    all_planar_forests,
    bell_number,
    beta_by_coarsenings,
    catalan_direct,
    mobius_brute,
    nondecreasing_labellings_brute,
)

K, R, B, H = (
    CumulantKind.CLASSICAL,
    CumulantKind.FREE,
    CumulantKind.BOOLEAN,
    CumulantKind.MONOTONE,
)


def _ok(msg):
    print(f"PASS: {msg}")


def test_criterion_01_identity_sweep():
    import time

    start = time.monotonic()
    reports = run_catalog(5)
    elapsed5 = time.monotonic() - start
    bad = [r for r in reports if not r.holds]
    assert not bad, bad
    assert elapsed5 < 60, f"n<=5 sweep took {elapsed5:.1f}s (target < 60s)"
    start = time.monotonic()
    deep = [name for name in IDENTITY_CATALOG if IDENTITY_CATALOG[name].max_n >= 6]
    reports6 = [verify_identity(name, 6) for name in deep]
    elapsed6 = time.monotonic() - start
    bad = [r for r in reports6 if not r.holds]
    assert not bad, bad
    assert elapsed6 < 900, f"n=6 sweep took {elapsed6:.1f}s (target < 15min)"
    _ok(
        f"criterion 1 - identity sweep: {len(reports)} checks at n<=5 "
        f"({elapsed5:.1f}s) and {len(reports6)} checks at n=6 "
        f"({elapsed6:.1f}s) all hold exactly"
    )


def test_criterion_02_counting():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_monotone(n)) == factorial(n + 1) // 2
        assert sum(1 for _ in enumerate_partitions(n, "all")) == bell_number(n)
        nc = sum(1 for _ in enumerate_partitions(n, "noncrossing"))
        assert nc == catalan_number(n) == catalan_direct(n)
        assert sum(1 for _ in enumerate_partitions(n, "interval")) == 2 ** (n - 1)
    _ok("criterion 2 - counting: monotone, Bell, Catalan, interval counts for n<=8")


def test_criterion_03_mobius():
    for n in range(1, 8):
        bottom, top = SetPartition.singletons(n), SetPartition.one_block(n)
        mu = {
            lattice: dict(lower_interval(top, lattice))
            for lattice in ("all", "noncrossing", "interval")
        }
        assert mu["all"][bottom] == (-1) ** (n - 1) * factorial(n - 1)
        assert mu["noncrossing"][bottom] == (-1) ** (n - 1) * catalan_number(n - 1)
        assert mu["interval"][bottom] == (-1) ** (n - 1)
    for n in range(1, 7):
        for lattice in ("all", "noncrossing", "interval"):
            members = partitions_of(n, lattice)
            for sigma in members:
                mu = dict(lower_interval(sigma, lattice))
                for pi in members:
                    if lattice_leq(pi, sigma):
                        assert mu[pi] == mobius_brute(members, pi, sigma), (lattice, pi, sigma)
    _ok("criterion 3 - Moebius closed forms n<=7 and brute-force agreement n<=6")


def test_criterion_04_factorial_sum():
    for n in range(1, 8):
        per_k: dict[int, int] = {}
        for pi in partitions_of(n, "irreducible"):
            t = tutte_eval(anti_interval_graph(pi))
            per_k[pi.num_blocks] = per_k.get(pi.num_blocks, 0) + t
        assert sum(per_k.values()) == factorial(n - 1), n
        for k in range(1, n + 1):
            assert per_k.get(k, 0) == eulerian(n - 1, k - 1), (n, k)
    _ok("criterion 4 - anti-interval Tutte sums equal (n-1)! and Eulerian refinement, n<=7")


def test_criterion_05_three_way_tutte():
    checked = 0
    for n in range(1, 8):
        for pi in partitions_of(n, "connected"):
            g = crossing_graph(pi)
            t = tutte_eval(g)
            assert t == acyclic_orientations_by_orders(g, 0)
            assert t == count_pyramids(pi, "crossing")
            checked += 1
        for pi in partitions_of(n, "irreducible"):
            g = anti_interval_graph(pi)
            t = tutte_eval(g)
            assert t == acyclic_orientations_by_orders(g, 0)
            assert t == count_pyramids(pi, "interval")
            checked += 1
    _ok(f"criterion 5 - three-way Tutte agreement on {checked} partitions, n<=7")


def test_criterion_06_psi_bijection():
    for n in range(1, 8):
        counts: dict[SetPartition, int] = {}
        for s in cyclic_permutations(n):
            assert psi_inverse(psi(s)) == s
            part = cycle_runs(s)
            counts[part] = counts.get(part, 0) + 1
        for pi in partitions_of(n, "irreducible"):
            assert counts.get(pi, 0) == tutte_eval(anti_interval_graph(pi)), pi
        assert sum(counts.values()) == factorial(n - 1)
    _ok("criterion 6 - heap bijection round-trips and counts match Tutte, n<=7")


def test_criterion_07_beta():
    for n in range(1, 7):
        for pi in partitions_of(n, "all"):
            f = beta_formula(pi)
            assert f == beta_by_coarsenings(pi), pi
            if not pi.is_irreducible():
                assert f == 0, pi
        for pi in partitions_of(n, "irreducible"):
            if not anti_interval_digraph(pi).directed:
                expected = (-1) ** (pi.num_blocks - 1) * tutte_eval(
                    crossing_graph(pi)
                )
                assert beta_formula(pi) == expected, pi
        for pi in partitions_of(n, "irreducible-noncrossing"):
            if depth(pi) <= 2:
                assert beta_formula(pi) == Fraction(
                    (-1) ** (pi.num_blocks - 1), pi.num_blocks
                ), pi
    rep = verify_identity("logbessel_carlitz", 5)
    assert rep.holds
    assert rep.detail["sequence"] == ["1", "-1", "4", "-33", "456"]
    # the Carlitz convolution recursion on the unsigned sequence
    a = [(-1) ** k * int(v) for k, v in enumerate(rep.detail["sequence"])]
    for m in range(1, len(a)):
        assert a[m] == sum(
            comb(m, k) * comb(m, k - 1) * a[k - 1] * a[m - k] for k in range(1, m + 1)
        ), m
    assert [
        factorial(k) * beta_formula(nested_pair_partition(k)) for k in range(1, 6)
    ] == [1, -1, 4, -33, 456]
    _ok("criterion 7 - beta: two routes, vanishing, Tutte/depth cases, log-Bessel+Carlitz")


def test_criterion_08_classical_in_monotone_basis():
    for n in range(1, 7):
        assert verify_identity("beta_expansion", n).holds, n
    _ok("criterion 8 - K_n = sum beta(pi) H_pi exactly for n<=6")


def test_criterion_09_boolean_poisson():
    from cumulantcalc.permutations import eulerian_polynomial

    x = Polynomial.monomial(1, 1)
    for n in range(1, 9):
        kappa = boolean_poisson_kappa(n)  # raises on any mismatch
        assert kappa == x * eulerian_polynomial(n - 1).scale_argument(-1)
    _ok("criterion 9 - constant-Boolean classical cumulants are Eulerian, n<=8")


def test_criterion_10_series_layer():
    order = 9
    rng = random.Random(1009)
    one = TruncatedSeries.one(order)
    z = TruncatedSeries.z(order)
    for _ in range(25):
        m = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)]
        ms = TruncatedSeries([Fraction(1)] + m, order)
        rs = TruncatedSeries([Fraction(0)] + cumulants_from_moments(R, m), order)
        bs = TruncatedSeries([Fraction(0)] + cumulants_from_moments(B, m), order)
        assert one + rs.compose(z * ms) == ms  # 1 + R(zM) = M
        assert ms == (one - bs).reciprocal()  # M = 1/(1-B)
        assert one + rs.compose(z * (one - bs).reciprocal()) == (one - bs).reciprocal()
        assert one - bs.compose(z * (one + rs).reciprocal()) == (one + rs).reciprocal()
        assert tilde_transform(tilde_transform(m)) == m
    _ok("criterion 10 - series identities and tilde involution at order 9, 25 sequences")


def test_criterion_11_determinants():
    rng = random.Random(1011)
    for _ in range(25):
        n = 8
        m = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        assert determinant_cumulants("classical", m) == cumulants_from_moments(K, m)
        assert determinant_cumulants("boolean", m) == cumulants_from_moments(B, m)
    _ok("criterion 11 - determinant formulas match the Moebius route, n<=8, 25 sequences")


def test_criterion_12_labelling_polynomials():
    for size in range(1, 6):
        for forest in all_planar_forests(size):
            p = labelling_polynomial(forest)
            for colors in range(5):
                assert p.evaluate(colors) == nondecreasing_labellings_brute(
                    forest, colors
                )
    # the three worked alpha examples
    assert alpha(SetPartition.one_block(4)) == 1
    star = SetPartition.from_blocks(8, [[1, 8], [2, 3], [4, 5], [6, 7]])
    assert alpha(star) == bernoulli_number(3)
    star2 = SetPartition.from_blocks(6, [[1, 6], [2, 3], [4, 5]])
    assert alpha(star2) == bernoulli_number(2) == Fraction(1, 6)
    chain = nested_pair_partition(4)
    assert alpha(chain) == Fraction(1, 4)
    _ok("criterion 12 - labelling polynomials vs brute force and the alpha examples")
