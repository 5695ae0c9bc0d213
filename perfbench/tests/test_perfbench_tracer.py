"""Self-tests of the benchmark's tracer: span arithmetic, patch and restore."""

from __future__ import annotations

import contextlib
import gc
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import cumulantcalc  # noqa: E402
from cumulantcalc import algebra, cli, cumulants, graphs, identities, partitions  # noqa: E402
from tracer import Tracer  # noqa: E402


def _add_span(tr: Tracer, name: str, start: float, end: float, parent: int) -> int:
    idx = len(tr.start)
    tr.name_of.append(tr.name_id(name))
    tr.parent.append(parent)
    tr.op_of.append(0)
    tr.start.append(start)
    tr.end.append(end)
    return idx


def test_self_time_of_nested_spans():
    tr = Tracer()
    a = _add_span(tr, "identities.x", 0.0, 10.0, -1)
    b = _add_span(tr, "cumulants.y", 1.0, 4.0, a)
    _add_span(tr, "algebra.z", 2.0, 3.0, b)
    d = _add_span(tr, "algebra.z", 5.0, 9.0, a)
    tr.gc_spans.append((6.0, 7.0, d))
    tr.gc_spans.append((10.5, 11.0, -1))

    dur, self_s = tr.span_times()
    assert dur == [10.0, 3.0, 1.0, 4.0]
    assert self_s == [3.0, 2.0, 1.0, 3.0]
    totals = tr.totals()
    assert totals["algebra.z"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert totals["identities.x"]["self_s"] == 3.0
    assert tr.gc_seconds() == 1.5
    assert tr.root_seconds() == 10.5
    # self times and collections add up to the time under the root spans
    assert sum(self_s) + tr.gc_seconds() == tr.root_seconds()


def test_recorded_spans_nest_by_call():
    tr = Tracer()

    def inner():
        return tr.span("algebra.inner", lambda: 1)

    assert tr.span("cumulants.outer", inner) == 1
    assert list(tr.parent) == [-1, 0]
    assert tr.names == ["cumulants.outer", "algebra.inner"]
    assert not tr.stack


def _bindings():
    """Every binding the tracer must replace, with its original value."""
    mp = algebra.MomentPolynomial
    return {
        "graphs.tutte_eval": graphs.tutte_eval,
        "identities.tutte_eval": identities.tutte_eval,
        "cli.tutte_eval": cli.tutte_eval,
        "package.tutte_eval": cumulantcalc.tutte_eval,
        "cli.convert_sequence": cli.convert_sequence,
        "cumulants.tilde_transform": cumulants.tilde_transform,
        "cumulants.partitions_of": cumulants.partitions_of,
        "partitions.partitions_of": partitions.partitions_of,
        "cumulants.cumulant_poly": cumulants.cumulant_poly,
        "cli.main": cli.main,
        "MomentPolynomial.__mul__": mp.__dict__["__mul__"],
        "MomentPolynomial.__rmul__": mp.__dict__["__rmul__"],
        "MomentPolynomial.__add__": mp.__dict__["__add__"],
        "TruncatedSeries.compose": algebra.TruncatedSeries.__dict__["compose"],
    }


def test_install_patches_every_binding_and_restore_puts_them_back():
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        during = _bindings()
        for name, original in before.items():
            assert during[name] is not original, name
        # one wrapper per function, whichever namespace binds it
        assert during["graphs.tutte_eval"] is during["cli.tutte_eval"]
        assert during["graphs.tutte_eval"] is during["package.tutte_eval"]
        assert during["MomentPolynomial.__mul__"] is during["MomentPolynomial.__rmul__"]
        # lru-cache handles stay reachable through the wrappers
        assert during["partitions.partitions_of"].cache_info() == partitions.partitions_of.cache_info()
        assert hasattr(during["cumulants.cumulant_poly"], "cache_clear")
        assert tr._gc_callback in gc.callbacks

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "tilde_lemma", "2"]) == 0
            assert cli.main(["verify", "free2boolean", "3"]) == 0
        totals = tr.totals()
        # the function-local `from .cumulants import tilde_transform` is traced
        assert totals["cumulants.tilde_transform"]["calls"] > 0
        assert totals["cli.main"]["calls"] == 2
        assert totals["identities.tilde_lemma"]["calls"] == 2
        assert totals["algebra.mpoly_mul"]["calls"] > 0
        assert tr.counters["algebra.mpoly_mul.term_pairs"] > 0
        assert not tr.stack
    finally:
        tr.restore()
    after = _bindings()
    for name, original in before.items():
        assert after[name] is original, name
    assert tr._gc_callback not in gc.callbacks


def test_generator_spans_count_items():
    tr = Tracer()
    tr.install()
    try:
        items = list(partitions.enumerate_partitions(4, "noncrossing"))
    finally:
        tr.restore()
    assert len(items) == 14
    assert tr.counters["partitions.enumerate_partitions.items"] == 14
    # one span per item plus the one that meets the end
    assert tr.totals()["partitions.enumerate_partitions"]["calls"] == 15
