"""The identity catalog: entry point behavior plus a small-n sweep."""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from cumulantcalc import cumulants, identities, limits, partitions
from cumulantcalc.algebra import MomentPolynomial, Polynomial, linear_combination, moment_monomial
from cumulantcalc.cumulants import CumulantKind
from cumulantcalc.forests import partition_tree_factorial
from cumulantcalc.identities import (
    IDENTITY_CATALOG,
    Report,
    _cumulant_sum,
    _symbol_cumulants,
    _type_sum,
    catalog_jobs,
    identity_names,
    run_catalog,
    verify_identity,
)
from cumulantcalc.limits import ResourceLimitError
from cumulantcalc.partitions import SetPartition, enumerate_monotone, partitions_of
from cumulantcalc.permutations import all_permutations, cycle_runs, cycles
from oracles import (
    catalan_direct,
    cycle_runs_sum_per_permutation,
    fd_cumulant,
    lattice_formula_by_intervals,
    lenczewski_sides_per_partition,
    runs_sum_per_word,
    univariate_sum_per_partition,
)


def test_catalog_is_complete():
    expected = {
        "free2boolean", "class2free", "class2boolean", "boolean2free",
        "free2class_tutte", "thm1_mono2boolean", "thm1_mono2free",
        "thm2_free2mono", "thm2_boolean2mono", "thm2_class2mono",
        "thm2_free2mono_mv", "thm2_boolean2mono_mv", "thm2_class2mono_mv",
        "thm3_boolean2class_tutte", "thm4_cyclecruns", "cor_runs",
        "moment_cumulant_K", "moment_cumulant_R", "moment_cumulant_B",
        "moment_cumulant_H", "mobius_inversions", "series_B", "series_R",
        "swap_identities", "tilde_lemma", "monotone_flow_integer",
        "lenczewski_sum", "beta_expansion", "thm5_reducible",
        "thm5_nonesting", "thm5_depth2", "cor9_factorial",
        "prop10_eulerian", "determinant_formulas", "logbessel_carlitz",
    }
    assert set(identity_names()) == expected
    for name in expected:
        assert IDENTITY_CATALOG[name].max_n >= 5


def test_multivariate_thm2_rows_are_their_univariate_rows_unidentified():
    for name in ("thm2_free2mono", "thm2_boolean2mono", "thm2_class2mono"):
        row, mv = IDENTITY_CATALOG[name], IDENTITY_CATALOG[f"{name}_mv"]
        assert row.univariate and not mv.univariate
        assert (mv.lhs, mv.rhs, mv.cls, mv.weight) == (row.lhs, row.rhs, row.cls, row.weight)


@pytest.mark.parametrize("name", [
    "thm2_free2mono", "thm2_boolean2mono", "prop10_eulerian", "determinant_formulas",
])
def test_rows_hold_at_their_cap_of_ten(name):
    # 0.3 s or less each at n = 10 on 2 vCPUs; n = 11 needs the default
    # `cumulant-other` or `all` limit (10) raised
    assert IDENTITY_CATALOG[name].max_n == 10
    assert verify_identity(name, 10).holds


def test_unknown_identity_and_bad_n():
    with pytest.raises(ValueError):
        verify_identity("bogus", 3)
    with pytest.raises(ValueError):
        verify_identity("free2boolean", 0)
    with pytest.raises(ResourceLimitError):
        verify_identity("moment_cumulant_K", 10)


def test_report_serialization():
    rep = verify_identity("cor9_factorial", 4)
    d = rep.to_dict()
    assert d["identity"] == "cor9_factorial"
    assert d["holds"] is True
    assert d["detail"]["sum"] == "6"
    assert "witness" not in d


def test_full_catalog_small_n():
    reports = run_catalog(4)
    assert len(reports) == 4 * len(IDENTITY_CATALOG)
    for rep, (name, n) in zip(reports, catalog_jobs(4)):
        assert isinstance(rep, Report)
        # every report is named by the catalog key of its row
        assert (rep.identity, rep.n) == (name, n)
        assert rep.holds, (rep.identity, rep.n, rep.witness)


@pytest.mark.parametrize("name, target, broken, checked, witness", [
    ("tilde_lemma", "tilde_transform", lambda real: list, 25,
     "seq#0: Boolean/free swap failed; seq#0: monotone negation failed; "
     "seq#1: Boolean/free swap failed"),
    ("series_B", "moment_series", lambda real: lambda *args: real(*args) + 1, 25,
     "seq#0; seq#1; seq#2"),
    ("thm5_depth2", "beta_formula", lambda real: lambda pi: Fraction(7), 13,
     "pi=1,2,3,4,5; pi=1,2,3,5|4; pi=1,2,4,5|3"),
    ("thm5_reducible", "beta_formula", lambda real: lambda pi: 1, 30,
     "pi=1,2,3,4|5; pi=1,2,3|4,5; pi=1,2,3|4|5"),
    ("lenczewski_sum", "labelling_polynomial_of", lambda real: lambda pi: Polynomial([0, 2]), 5,
     "N=1; N=2; N=3"),
    ("lenczewski_sum", "monotone_dilate", lambda real: lambda h, t: real(h, t + 1), 5,
     "N=1; N=2; N=3"),
    ("determinant_formulas", "determinant_cumulants",
     lambda real: lambda kind, m: real(kind, m)[:-1], 50,
     "seq#0:classical; seq#0:boolean; seq#1:classical"),
    # the lattice rows: one case per pi, 42 = |NC(5)| and 110 = 52 + 42 + 16
    # over P(5), NC(5) and I(5); the inverted form labels each by lattice.
    # Doubled, m_[k] or kind_k fails the recursion at every k, so every pi
    # fails
    ("moment_cumulant_R", "moment_monomial", lambda real: lambda pi: real(pi) + real(pi), 42,
     "pi=1,2,3,4,5; pi=1,2,3,4|5; pi=1,2,3,5|4"),
    ("mobius_inversions", "_cumulant_poly",
     lambda real: lambda kind, k: real(kind, k) + real(kind, k), 110,
     "all:1,2,3,4,5; all:1,2,3,4|5; all:1,2,3,5|4"),
])
def test_forced_failures_report_cases_and_labels(monkeypatch, name, target, broken,
                                                 checked, witness):
    # a broken library function fails every case: the report counts the
    # cases and lists the first three failure labels in order
    monkeypatch.setattr(identities, target, broken(getattr(identities, target)))
    assert verify_identity(name, 5).to_dict() == {
        "identity": name, "n": 5, "holds": False,
        "lhs_terms": checked, "rhs_terms": checked, "witness": witness,
    }


def _first_blocks_of_members(lattice, n):
    """The first block V of each member pi != 1_k of the lattice on [k],
    once per k <= n: the kind_V that the recursion for kind_k reads."""
    return sorted(
        first for k in range(1, n + 1)
        for first in {pi.blocks[0] for pi in partitions_of(k, lattice) if pi.num_blocks > 1}
    )


@pytest.mark.parametrize("kind", [CumulantKind.CLASSICAL, CumulantKind.FREE,
                                  CumulantKind.BOOLEAN])
@pytest.mark.parametrize("inverted", [False, True])
def test_lattice_formula_matches_per_pi_interval_sums(monkeypatch, kind, inverted):
    # the row checks kind_k once per block size k by its first-block
    # recursion, in both forms; the oracle sums the whole lower interval of
    # every pi.  The recursion for kind_k reads kind_V once for the first
    # block V of each member of the lattice on [k] other than 1_k, and no
    # other block cumulant
    real = identities._block_cumulant
    seen = []

    def recording(kind, block):
        seen.append(block)
        return real(kind, block)

    monkeypatch.setattr(identities, "_block_cumulant", recording)
    lattice = cumulants._LATTICE_OF_KIND[kind]
    for n in range(1, 8):
        expected = list(lattice_formula_by_intervals(kind, inverted, n))
        assert all(holds for _, holds in expected), (n, kind, inverted)
        seen.clear()
        outcomes = list(identities._lattice_formula([kind], inverted, n))
        assert outcomes == [[]] * len(expected)
        assert sorted(seen) == _first_blocks_of_members(lattice, n)


@pytest.mark.parametrize("name, lattice", [
    ("moment_cumulant_K", "all"),
    ("moment_cumulant_R", "noncrossing"),
    ("moment_cumulant_B", "interval"),
])
def test_lattice_rows_read_every_first_block(monkeypatch, name, lattice):
    # doubling kind_V for one block V that the recursion first reads at
    # k = 4 (a first block of L(4) that L(3) has not, 1_4 aside), or one
    # moment m_g of the rest that holds 4, fails the row at n = 4 and not
    # below.  The rest is [k] minus V for K, and its gaps for R and B:
    # those never read m_{2,4}, since 1,3|2,4 crosses
    real_block, real_symbol = identities._block_cumulant, MomentPolynomial.symbol
    firsts = set(_first_blocks_of_members(lattice, 4)) - set(_first_blocks_of_members(lattice, 3))
    assert (1, 2, 3) in firsts  # 1,2,3|4 opens with it; the others hold 4
    for first in firsts:
        def block(kind, v, first=first):
            out = real_block(kind, v)
            return out + out if v == first else out

        monkeypatch.setattr(identities, "_block_cumulant", block)
        assert verify_identity(name, 3).holds, first
        assert not verify_identity(name, 4).holds, first
    monkeypatch.setattr(identities, "_block_cumulant", real_block)
    for rest in [(2, 3, 4), (3, 4), (2, 4), (4,)]:
        def symbol(cls, g, rest=rest):
            out = real_symbol(g)
            return out + out if tuple(g) == rest else out

        monkeypatch.setattr(MomentPolynomial, "symbol", classmethod(symbol))
        assert verify_identity(name, 3).holds, rest
        assert verify_identity(name, 4).holds == (rest == (2, 4) and lattice != "all"), rest


@pytest.mark.parametrize("name, lattice", [
    ("moment_cumulant_K", "all"),
    ("moment_cumulant_R", "noncrossing"),
    ("moment_cumulant_B", "interval"),
])
@pytest.mark.parametrize("target", ["_partitioned_cumulant", "moment_monomial"])
def test_lattice_rows_read_every_sigma(monkeypatch, name, lattice, target):
    # every sigma of the lattice on [k] enters the row's check of kind_k.
    # kind_sigma: the recursion's rest, kind_V * prod m_g over the V and
    # gaps of `_first_blocks`, is the sum of kind_sigma over sigma != 1_k.
    # m_sigma: kind_k is the Moebius sum of the m_sigma, so doubling m_sigma
    # there for one sigma strictly between 0 and 1 on four elements fails
    # the row at n = 4 and not below; the caches built on m_sigma are
    # emptied before and after
    kind = {"all": CumulantKind.CLASSICAL, "noncrossing": CumulantKind.FREE,
            "interval": CumulantKind.BOOLEAN}[lattice]
    if target == "_partitioned_cumulant":
        for k in range(1, 5):
            rest = linear_combination(
                (1, prod(map(MomentPolynomial.symbol, gaps),
                         start=identities._block_cumulant(kind, first)))
                for first, gaps in identities._first_blocks(lattice, k)
            )
            sigmas = [s for s in partitions_of(k, lattice) if s.num_blocks > 1]
            assert rest == linear_combination(
                (1, cumulants._partitioned_cumulant(kind, s)) for s in sigmas), k
        return
    caches = (cumulants._cumulant_poly, cumulants._block_cumulant,
              cumulants._partitioned_cumulant)
    real = cumulants.moment_monomial
    ends = (SetPartition.singletons(4), SetPartition.one_block(4))
    try:
        for sigma in partitions_of(4, lattice):
            if sigma in ends:
                continue

            def corrupted(pi, sigma=sigma):
                out = real(pi)
                return out + out if pi == sigma else out

            for cached in caches:
                cached.cache_clear()
            monkeypatch.setattr(cumulants, "moment_monomial", corrupted)
            assert verify_identity(name, 3).holds, sigma
            assert not verify_identity(name, 4).holds, sigma
    finally:
        monkeypatch.setattr(cumulants, "moment_monomial", real)
        for cached in caches:
            cached.cache_clear()


def test_wrong_mobius_function_fails_the_moment_rows(monkeypatch):
    # mu(pi, 1) doubled on every two-block pi, in both modules that read it;
    # the caches built on mu are emptied before and after, so no corrupted
    # entry outlives the test.  mobius_inversions fails too: it checks the
    # Moebius sums kind_k against the recursions, which read no mu
    caches = (partitions._block_lattice_cached, cumulants._cumulant_poly,
              cumulants._block_cumulant, cumulants._partitioned_cumulant)
    real = partitions.mobius_to_top

    def doubled(pi, lattice):
        mu = real(pi, lattice)
        return 2 * mu if pi.num_blocks == 2 else mu

    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(partitions, "mobius_to_top", doubled)
    monkeypatch.setattr(cumulants, "mobius_to_top", doubled)
    try:
        for name in ("moment_cumulant_K", "moment_cumulant_R", "moment_cumulant_B",
                     "mobius_inversions"):
            for n in range(2, 7):
                assert not verify_identity(name, n).holds, (name, n)
    finally:
        for cached in caches:
            cached.cache_clear()


def test_cancelling_mobius_errors_fail_the_inverted_row(monkeypatch):
    # mu(12|34, 1) + 1 and mu(13|24, 1) - 1 in P(4): the errors cancel in
    # the univariate image of K_4, so only a multivariate check sees them.
    # The recursion reads no mu, so mobius_inversions fails from n = 4 on,
    # as moment_cumulant_K does; the caches built on mu are emptied before
    # and after
    caches = (cumulants._cumulant_poly, cumulants._block_cumulant,
              cumulants._partitioned_cumulant)
    real = cumulants.mobius_to_top
    shifts = {SetPartition.from_text("1,2|3,4"): 1, SetPartition.from_text("1,3|2,4"): -1}

    def shifted(pi, lattice):
        return real(pi, lattice) + (shifts.get(pi, 0) if lattice == "all" else 0)

    true_k4 = cumulants._cumulant_poly(CumulantKind.CLASSICAL, 4)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(cumulants, "mobius_to_top", shifted)
    try:
        k4 = cumulants._cumulant_poly(CumulantKind.CLASSICAL, 4)
        assert k4 != true_k4 and k4.univariate() == true_k4.univariate()
        for name in ("mobius_inversions", "moment_cumulant_K"):
            for n in range(1, 7):
                assert verify_identity(name, n).holds == (n < 4), (name, n)
    finally:
        for cached in caches:
            cached.cache_clear()


def test_wrong_cumulant_of_one_order_fails_the_inverted_row(monkeypatch):
    # kind_4 doubled where mobius_inversions checks it: the recursion for
    # kind_k reads the lower orders through `_block_cumulant`, so the row
    # holds below n = 4 and, from there on, fails exactly the pi of each
    # lattice that have a block of four
    real = identities._cumulant_poly

    def doubled(kind, k):
        out = real(kind, k)
        return out + out if k == 4 else out

    monkeypatch.setattr(identities, "_cumulant_poly", doubled)
    kinds = (CumulantKind.CLASSICAL, CumulantKind.FREE, CumulantKind.BOOLEAN)
    for n in range(1, 8):
        assert verify_identity("mobius_inversions", n).holds == (n < 4), n
        expected = [[f"{lattice}:{pi}"] if 4 in pi.block_sizes() else []
                    for lattice in ("all", "noncrossing", "interval")
                    for pi in partitions_of(n, lattice)]
        assert list(identities._lattice_formula(kinds, True, n)) == expected, n


def test_ordered_form_catches_a_miscounted_order_count(monkeypatch):
    # one order short on one base: the first (RGS order) that has two or
    # more orders and holds 1 and n in one block.  Such a base is
    # irreducible, so it is a member of every row below.  Both properties
    # are read off its nesting order (1 and n share block 0 iff every other
    # block is nested in it), so the count is made short on that order, and
    # no partition before the base has it
    short = {}
    for n in (4, 5):
        counts = identities._monotone_order_counts(n)
        short[n] = next(pi for pi in partitions_of(n, "noncrossing")
                        if counts[pi] >= 2 and pi[0] == pi[-1])
    orders_short = {(pi.num_blocks, tuple(pi.block_pairs()[1])) for pi in short.values()}
    real = identities._linear_extensions

    def one_short(k, nesting):
        count = real(k, nesting)
        return count - 1 if (k, nesting) in orders_short else count

    # the orders are counted once per n: the count is emptied before and
    # after, so the short count is read and does not outlive the test
    identities._monotone_order_counts.cache_clear()
    monkeypatch.setattr(identities, "_linear_extensions", one_short)
    try:
        for name in ("moment_cumulant_H", "thm1_mono2boolean", "thm1_mono2free"):
            for n in (4, 5):
                rep = verify_identity(name, n)
                assert not rep.holds, (name, n)
                assert rep.witness.startswith("ordered-partition form differs:"), (name, n)
                # the witness names the base and its count, one order short
                orders = factorial(short[n].num_blocks) // partition_tree_factorial(short[n])
                assert f" {short[n]} has {orders - 1} monotone orders," in rep.witness, (name, n)
                assert rep.detail == {"ordered_form_checked": True}, (name, n)
    finally:
        monkeypatch.undo()
        identities._monotone_order_counts.cache_clear()
    assert verify_identity("moment_cumulant_H", 5).holds


def test_grouped_form_catches_a_wrong_tree_factorial(monkeypatch):
    # tau(pi)! doubled on every three-block pi, in identities, the one
    # module of the package that reads it: H_n is built by the interval
    # flow, which reads no tau.  So the grouped form of moment_cumulant_H,
    # m_[n] = sum over NC(n) of H_pi / tau(pi)!, fails from n = 3 on with a
    # polynomial witness; the thm1 rows fail from n = 4 on, where their
    # first three-block member appears
    assert not hasattr(cumulants, "partition_tree_factorial")
    names = ("moment_cumulant_H", "thm1_mono2boolean", "thm1_mono2free")
    for name in names:
        for n in range(3, 7):
            assert verify_identity(name, n).holds, (name, n)
    real = identities.partition_tree_factorial

    def doubled(pi):
        tau = real(pi)
        return 2 * tau if pi.num_blocks == 3 else tau

    monkeypatch.setattr(identities, "partition_tree_factorial", doubled)
    for name in names:
        for n in range(3 if name == "moment_cumulant_H" else 4, 7):
            rep = verify_identity(name, n)
            assert not rep.holds, (name, n)
            assert "m{" in rep.witness and not rep.detail, (name, n)


def test_monotone_cumulants_and_order_counts_walk_nothing(monkeypatch):
    # H_n by the interval flow reads no partition class, and the order
    # counts walk no order of the blocks (`enumerate_monotone` walks them
    # by permutations); the oracles are the triangular solve over NC(n)
    # and the monotone partitions themselves
    expected = {n: Counter(op.base for op in enumerate_monotone(n)) for n in range(1, 8)}

    def walks(*args):
        raise AssertionError("the monotone layer walks no class and no order")

    monkeypatch.setattr(cumulants, "partitions_of", walks)
    monkeypatch.setattr(partitions, "permutations", walks)
    caches = (cumulants._cumulant_poly, cumulants._monotone_flow, cumulants._block_cumulant,
              identities._monotone_order_counts)
    for cached in caches:
        cached.cache_clear()
    try:
        for n in range(1, 8):
            h = cumulants._cumulant_poly(CumulantKind.MONOTONE, n)
            assert h.sorted_terms() == sorted(fd_cumulant(CumulantKind.MONOTONE, n).items()), n
            assert identities._monotone_order_counts(n) == expected[n], n
    finally:
        for cached in caches:
            cached.cache_clear()


def test_run_catalog_clamps_limits():
    # through a row that is cheap at its max_n (0.06 s at n = 10)
    jobs = catalog_jobs(11, ["moment_cumulant_B"])
    assert jobs == [("moment_cumulant_B", n) for n in range(1, 11)]
    assert all(verify_identity(*job).holds for job in jobs)
    with pytest.raises(ResourceLimitError):
        catalog_jobs(11, ["moment_cumulant_B"], strict=True)
    with pytest.raises(ValueError):
        catalog_jobs(3, ["nope"])


def test_nothing_to_check_raises_in_both_modes():
    for strict in (False, True):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                catalog_jobs(n_max, strict=strict)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            run_catalog(n_max)


def test_catalog_examples_from_the_identity_descriptions():
    # a couple of named spot checks at specific n
    assert verify_identity("thm1_mono2boolean", 4).holds
    assert verify_identity("thm4_cyclecruns", 3).holds
    rep = verify_identity("cor9_factorial", 5)
    assert rep.holds and rep.detail["sum"] == "24"
    rep = verify_identity("logbessel_carlitz", 5)
    assert rep.detail["sequence"] == ["1", "-1", "4", "-33", "456"]


def test_prop10_checker_reports_a_mismatch(monkeypatch):
    from cumulantcalc import identities as ids

    monkeypatch.setattr(ids, "boolean_poisson_kappa", lambda n: Polynomial([0, 2]))
    rep = verify_identity("prop10_eulerian", 3)
    assert not rep.holds and rep.witness
    assert rep.detail == {"kappa": Polynomial([0, 2]).to_json()}


def test_deterministic_reports():
    a = verify_identity("series_B", 6)
    b = verify_identity("series_B", 6)
    assert a == b


def test_univariate_caches_check_a_lowered_limit(monkeypatch):
    # the partition list and the labelling polynomials behind the Lenczewski
    # sum are cached; a warm call must still check the cumulant limits
    assert verify_identity("lenczewski_sum", 5).holds
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "cumulant-other", 3)
    with pytest.raises(ResourceLimitError):
        verify_identity("lenczewski_sum", 5)


@pytest.mark.parametrize("name, key, low", [
    ("thm2_free2mono", "cumulant-other", 3),
    ("thm2_class2mono", "cumulant-classical", 4),
    # the keys below are checked only for the cumulants summed over
    ("class2free", "cumulant-classical", 2),
    ("thm3_boolean2class_tutte", "interval", 2),
    ("thm4_cyclecruns", "cumulant-other", 2),
    ("thm4_cyclecruns", "interval", 2),
    ("moment_cumulant_R", "cumulant-other", 2),
])
def test_univariate_rows_check_a_lowered_limit(monkeypatch, name, key, low):
    # warm, the rows still check the cumulant and lattice limits, and they
    # bind at n itself
    assert verify_identity(name, 5).holds
    monkeypatch.setitem(limits.DEFAULT_LIMITS, key, 5)
    assert verify_identity(name, 5).holds
    for bound in (4, low):
        monkeypatch.setitem(limits.DEFAULT_LIMITS, key, bound)
        with pytest.raises(ResourceLimitError, match=key):
            verify_identity(name, 5)


@pytest.mark.parametrize("name, most", [
    *((name, 8) for name in (
        "free2boolean", "class2free", "class2boolean", "free2class_tutte", "cor_runs",
        "thm2_free2mono_mv",
    )),
    # the second checks read counts and check no cumulant limit: thm4's
    # lemma checks the interval walk only, the ordered form "monotone" only
    ("thm4_cyclecruns", 6),
    ("thm1_mono2free", 6),
    ("moment_cumulant_H", 4),
    # the lattice rows, per lattice: 1 for its members and 2 for the cumulant
    # limits; the recursions walk no lattice on k < n elements
    ("moment_cumulant_K", 3),
    ("moment_cumulant_R", 3),
    ("mobius_inversions", 3 * 3),
])
def test_warm_rows_check_each_limit_once(monkeypatch, name, most):
    # the limits are checked where the row chooses its work, not again for
    # every partitioned cumulant it reads
    assert verify_identity(name, 6).holds
    keys = []
    resolve = limits.limit_for

    def counting(key):
        keys.append(key)
        return resolve(key)

    monkeypatch.setattr(limits, "limit_for", counting)
    assert verify_identity(name, 6).holds
    assert len(keys) <= most, Counter(keys)


def _count_run_calls(monkeypatch) -> Counter:
    """Wrap `runs` and `cycle_runs` as the catalog reads them; the returned
    Counter records the calls of each."""
    calls = Counter()

    def counting(name):
        real = getattr(identities, name)

        def wrapper(sigma):
            calls[name] += 1
            return real(sigma)

        monkeypatch.setattr(identities, name, wrapper)

    counting("cycle_runs")
    counting("runs")
    return calls


def test_thm4_computes_each_cycle_run_partition_once(monkeypatch):
    calls = _count_run_calls(monkeypatch)
    # the walks are counted once per n: the counts are emptied before and
    # after, so this call walks and no count made through the wrappers
    # outlives the test
    for count in (identities._run_counts, identities._cycle_run_counts):
        count.cache_clear()
    try:
        assert verify_identity("thm4_cyclecruns", 6).holds
        # the runs of each word 1 a_2 ... a_6 are the cycle runs of the full
        # cycle (1 a_2 ... a_6), read once each; then the cancellation lemma
        # reads the cycle runs of every permutation once
        assert calls == {"runs": factorial(5), "cycle_runs": factorial(6)}
    finally:
        monkeypatch.undo()
        for count in (identities._run_counts, identities._cycle_run_counts):
            count.cache_clear()


def test_counts_hold_partitions_and_integers_and_total_their_walks():
    for n in range(1, 8):
        monotone = identities._monotone_order_counts(n)
        word_runs = identities._run_counts(n)
        cycle_runs = identities._cycle_run_counts(n)
        classes = identities._shape_type_counts(n)
        parts = [*monotone, *word_runs, *(pi for pi, _ in classes)]
        assert all(type(pi) is SetPartition for pi in parts)
        assert all(type(pi) is SetPartition and sign in (1, -1) for pi, sign in cycle_runs)
        sizes = [*monotone.values(), *word_runs.values(), *cycle_runs.values(),
                 *(c for _, c in classes)]
        assert all(type(c) is int and c > 0 for c in sizes)
        assert sum(word_runs.values()) == factorial(n - 1), n
        assert sum(cycle_runs.values()) == factorial(n), n
        assert sum(c for _, c in classes) == catalan_direct(n), n
        assert sum(monotone.values()) == factorial(n + 1) // 2, n


def test_counted_run_sums_match_the_per_permutation_sums():
    row = IDENTITY_CATALOG["cor_runs"]
    for n in range(1, 8):
        weighted = [(row.weight(pi), pi) for pi in partitions_of(n, row.cls)]
        assert _cumulant_sum(row.rhs, n, weighted) == runs_sum_per_word(n), n
        # thm4's lemma in polynomial form, and the signed counts it reads
        # instead, recounted one permutation at a time
        assert cycle_runs_sum_per_permutation(n) == moment_monomial(SetPartition.one_block(n)), n
        signed = Counter()
        for s in all_permutations(n):
            signed[cycle_runs(s)] += identities._sign(cycle_runs(s)) * identities._sign(cycles(s))
        counted = Counter()
        for (part, sign), c in identities._cycle_run_counts(n).items():
            counted[part] += identities._sign(part) * sign * c
        assert counted == signed, n


def test_run_rows_fail_on_a_wrong_run_count(monkeypatch):
    # one count off by one, at the one-block partition that every n has:
    # both run rows read the counts through the `cor_runs` weight
    real = identities._run_counts

    def off_by_one(n):
        counts = Counter(real(n))
        counts[SetPartition.one_block(n)] += 1
        return counts

    real.cache_clear()
    monkeypatch.setattr(identities, "_run_counts", off_by_one)
    try:
        for n in range(1, 8):
            for name in ("cor_runs", "thm4_cyclecruns"):
                rep = verify_identity(name, n)
                assert not rep.holds and rep.witness, (name, n)
    finally:
        monkeypatch.undo()
        real.cache_clear()


@pytest.mark.parametrize("case", ["identity sign flipped", "non-interval count moved"])
def test_thm4_lemma_fails_on_a_wrong_cycle_run_count(monkeypatch, case):
    # (a) the identity permutation's sign flipped, at every n: its cycle
    # runs 1|2|...|n are an interval partition, whose signed count becomes
    # -1; (b) at n = 3, the count of (1,3|2, -1) moved onto (1,3|2, +1):
    # the signed count of that non-interval partition becomes -2, a
    # negative count that the lemma must read
    real = identities._cycle_run_counts

    def wrong(n):
        counts = Counter(real(n))
        if case == "identity sign flipped":
            pi = SetPartition.singletons(n)
            sign = identities._sign(pi)  # the identity has n cycles
        elif n == 3:
            pi, sign = SetPartition.from_text("1,3|2"), -1
        else:
            return counts
        counts[pi, -sign] += counts.pop((pi, sign))
        return counts

    real.cache_clear()
    monkeypatch.setattr(identities, "_cycle_run_counts", wrong)
    try:
        failing = [n for n in range(1, 8) if not verify_identity("thm4_cyclecruns", n).holds]
        # the lemma runs at n <= 6 only
        assert failing == ([1, 2, 3, 4, 5, 6] if case == "identity sign flipped" else [3])
        rep = verify_identity("thm4_cyclecruns", 3)
        assert rep.witness == "signed full-symmetric-group sum differs"
        assert rep.detail == {"cancellation_lemma_checked": True}
    finally:
        monkeypatch.undo()
        real.cache_clear()
    assert verify_identity("thm4_cyclecruns", 3).holds


def test_ordered_form_rows_meet_the_count_checks_precondition():
    # the count orders(pi) * tau(pi)! == |pi|! stands for the ordered sum
    # only over monotone cumulants with no zero weight, and only on
    # noncrossing pi: a crossing pi has no monotone orders
    rows = {name: row for name, row in IDENTITY_CATALOG.items()
            if getattr(row, "ordered_max_n", 0) > 0}
    assert set(rows) == {"thm1_mono2boolean", "thm1_mono2free", "moment_cumulant_H"}
    for name, row in rows.items():
        assert type(row) is identities.FamilySum and row.rhs is CumulantKind.MONOTONE, name
        assert row.ordered_max_n <= min(row.max_n, limits.DEFAULT_LIMITS["monotone"]), name
        for n in range(1, row.ordered_max_n + 1):
            members = partitions_of(n, row.cls)
            assert set(members) <= set(partitions_of(n, "noncrossing")), (name, n)
            assert all(row.weight(pi) != 0 for pi in members), (name, n)


def test_warm_monotone_count_checks_a_lowered_limit(monkeypatch):
    assert verify_identity("moment_cumulant_H", 7).holds
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "monotone", 6)
    with pytest.raises(ResourceLimitError, match="'monotone'"):
        verify_identity("moment_cumulant_H", 7)


def test_cold_run_counts_start_no_walk_past_a_lowered_limit(monkeypatch):
    calls = _count_run_calls(monkeypatch)
    for count in (identities._run_counts, identities._cycle_run_counts):
        count.cache_clear()
    monkeypatch.setitem(limits.DEFAULT_LIMITS, "interval", 4)
    try:
        with pytest.raises(ResourceLimitError, match="'interval'"):
            verify_identity("thm4_cyclecruns", 5)
        assert not calls
    finally:
        monkeypatch.undo()
        for count in (identities._run_counts, identities._cycle_run_counts):
            count.cache_clear()


def test_type_sum_matches_per_partition_oracle():
    for name in ("thm2_free2mono", "thm2_boolean2mono", "thm2_class2mono"):
        row = IDENTITY_CATALOG[name]
        for n in range(1, 8):
            weighted = [(row.weight(pi), pi) for pi in partitions_of(n, row.cls)]
            expected = univariate_sum_per_partition(row.rhs, weighted)
            assert _type_sum(row.rhs, n, weighted) == expected, (name, n)
    # both sides of the Lenczewski sum: the free side adds one term per
    # (shape, type) class, the monotone side is `monotone_dilate`
    for n in range(1, 8):
        assert list(identities._lenczewski_sides(n)) == list(lenczewski_sides_per_partition(n)), n


def test_univariate_rows_convert_each_kind_once(monkeypatch):
    # the univariate rows share one conversion of the moment symbols per
    # (kind, n): the four rows at n = 6 need H, R, B and K
    converted = []
    real = identities.cumulants_from_moments

    def counting(kind, moments):
        converted.append(kind)
        return real(kind, moments)

    monkeypatch.setattr(identities, "cumulants_from_moments", counting)
    _symbol_cumulants.cache_clear()
    for name in ("thm2_free2mono", "thm2_boolean2mono", "thm2_class2mono", "lenczewski_sum"):
        assert verify_identity(name, 6).holds, name
    assert Counter(converted) == Counter(CumulantKind)
