"""Self-tests of the benchmark driver: statistics, checks, traced children."""

from __future__ import annotations

import json
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from child import CalibratedClock  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import chain_starts  # noqa: E402

SMALL_OPS = [
    ["verify", "free2boolean", "4"],
    ["verify", "tilde_lemma", "3"],
    ["table", "beta", "5"],
    ["enumerate", "6", "noncrossing"],
    {"chain": ["1", "-1/2", "3", "2/3", "0"]},
]


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        run.percentile([], 50)
    # the fewest samples that leave ten beyond p50, p90 and p95
    for q, n in ((50, 20), (90, 100), (95, 200)):
        run.percentile(range(n), q)
        with pytest.raises(ValueError):
            run.percentile(range(n - 1), q)


def test_independent_recursions_match_known_cumulants():
    # standard Gaussian: moments 0, 1, 0, 3, 0, 15
    m = [Fraction(v) for v in (0, 1, 0, 3, 0, 15)]
    assert run.classical_from_moments(m) == [0, 1, 0, 0, 0, 0]
    assert run.boolean_from_moments([Fraction(1)] * 4) == [1, 0, 0, 0]


def test_chain_problem_spots_a_wrong_step():
    good = [["1", "2"], ["1", "1"], ["1", "1"], ["1", "1"], ["1", "1"], ["1", "2"]]
    assert run.chain_problem(good) is None
    wrong_end = good[:5] + [["1", "3"]]
    assert "input" in run.chain_problem(wrong_end)
    wrong_classical = [good[0], ["1", "2"]] + good[2:]
    assert "classical" in run.chain_problem(wrong_classical)


def test_check_pass_flags_exit_codes_and_digests():
    ok = {"key": "verify x 1", "code": 0, "digest": "aa", "error": None, "stderr": ""}
    bad_digest = dict(ok, key="verify y 1", digest="bb")
    bad_exit = dict(ok, key="verify z 1", code=2, stderr="error: nope")
    unrecorded = dict(ok, key="verify w 1")
    expected = {"verify x 1": "aa", "verify y 1": "cc", "verify z 1": "aa"}
    failures = run.check_pass(
        {"ops": [ok, bad_digest, bad_exit, unrecorded], "chains": []}, expected)
    assert len(failures) == 3
    assert "digest" in failures[0] and "exit 2" in failures[1]


def _small_child(tmp_path: Path, trace: bool) -> dict:
    cache = tmp_path / f"cache-{int(trace)}"
    spec = {"ops": SMALL_OPS, "cache_dir": str(cache), "trace": trace}
    return run.spawn(spec, tmp_path)


def test_traced_child_matches_untraced_digests_and_accounts_for_wall(tmp_path):
    plain = _small_child(tmp_path, trace=False)
    traced = _small_child(tmp_path, trace=True)
    for a, b in zip(plain["passes"], traced["passes"]):
        assert [r["digest"] for r in a["ops"]] == [r["digest"] for r in b["ops"]]
        assert a["chains"] == b["chains"]
    for child in (plain, traced):
        _, failures = run.check_child(child, {})
        # nothing is recorded for these ops, so only digests may differ
        assert all("digest differs" in line for line in failures), failures
        assert child["passes"][0]["chains"][0][-1] == SMALL_OPS[-1]["chain"]

    metrics = run.layer_metrics(traced, plain)
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(metrics)
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    accounted = (layer_sum + metrics["runtime.gc_s"]["value"]
                 + metrics["bench.remainder_s"]["value"])
    traced_wall = (metrics["bench.traced_wall_s"]["value"]
                   + metrics["bench.traced_warm_wall_s"]["value"])
    assert accounted == pytest.approx(traced_wall, abs=1e-6)
    assert 0 <= metrics["bench.remainder_s"]["value"] < traced_wall
    # the cold pass fills the table cache and the warm pass reads it
    assert metrics["cli.table_cache.hits"]["value"] == 1
    assert metrics["cumulants.tilde_transform.self_s"]["value"] > 0


def test_benchmark_json_names_the_printed_metrics(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    child = _small_child(tmp_path, trace=True)
    layer_names = set(run.layer_metrics(child, child))
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "warm_wall_s", "peak_rss_mb",
                   "convert_p50_ms", "convert_p90_ms"}


def test_chain_starts_follow_the_seed():
    assert chain_starts(5) == chain_starts(5)
    assert chain_starts(5) != chain_starts(6)
    assert all(len(start) == 8 for start in chain_starts(5))


def test_calibrated_clock_is_monotonic_and_stops():
    clock = CalibratedClock()
    clock.start()
    try:
        readings = []
        end = perf_counter() + 0.25
        while perf_counter() < end:
            readings.append(clock())
    finally:
        clock.stop()
    assert readings == sorted(readings)
    assert readings[-1] > readings[0]
    assert len(clock.kernels) > 3  # the ticks ran
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
