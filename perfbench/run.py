"""Benchmark of cumulantcalc: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload sequences --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each timed run is a closed loop from one
client: it starts fresh child processes (`child.py`, with
`PYTHONPATH=<checkout>/src`, one at a time) until `--seconds` are used up,
and each child runs the workload's op list twice in one process, cold then
warm.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs one
untraced and one traced child and prints the per-layer metrics.

Every op's output is checked: a nonzero exit, an exception, a stdout whose
SHA-256 differs from `expected_digests.json`, or a convert chain that does
not return its input exactly is a failure.  Failures are listed on stderr
and make the run exit 1.  The last stdout line is the result object; the
line before it holds the run's context (machine, seed, sample counts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    CHAIN_KINDS,
    POLY_IDENTITIES,
    SEQUENCE_IDENTITIES,
    WORKLOADS,
    chain_starts,
    ops_for,
)

DIGESTS = HERE / "expected_digests.json"
WORK = ROOT / ".perfbench-tmp"
#: import-only children per timed run, on top of one per workload child
SETUP_PROBES = 9
#: longest a child may run before it is killed, which fails the run
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile; it needs ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {max(0, len(ordered) - rank)} "
            f"beyond it; at least ten are needed"
        )
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def child_env(workdir: Path) -> dict:
    """A hermetic environment: no CUMULANTCALC_* knobs, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUMULANTCALC_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(workdir))
    return env


def spawn(spec: dict, workdir: Path) -> dict:
    """Run one child; returns its result with `setup_s` and `file` added.

    setup_s is the time from starting the process until it has imported
    cumulantcalc and printed its ready line.
    """
    err_path = workdir / "child-stderr.txt"
    with open(err_path, "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=child_env(workdir), cwd=workdir, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(json.dumps(spec))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child died early; its exit code says so below
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if code != 0 or not ready.startswith("{"):
        raise ChildError(f"child exited with {code}: {stderr[-2000:]}")
    result = json.loads(rest) if rest.strip() else {}
    result.update(json.loads(ready), setup_s=setup_s)
    if Path(result["file"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise ChildError(f"cumulantcalc was imported from {result['file']}, not from src/")
    return result


class ChildError(RuntimeError):
    """A child process crashed, hung or imported the wrong library."""


def run_child(workload: str, seed: int, workdir: Path, trace=False, timed=False) -> dict:
    """One workload child, with a fresh table cache that is deleted afterwards.

    A timed child measures with the calibrated clock and, on the
    workloads that convert nothing, samples convert latency after its warm
    pass.  Traced children and their untraced twins use `perf_counter`.
    """
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    spec = {"ops": ops_for(workload, seed), "cache_dir": str(cache), "trace": trace,
            "calibrate": timed}
    if timed and workload != "sequences":
        # The chains of `sequences`, three times over: 300 samples spread
        # over more of the machine's speed phases than two passes would be.
        spec["probe"] = [{"chain": start} for start in chain_starts(seed)] * 3
    try:
        return spawn(spec, workdir)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def classical_from_moments(m: list[Fraction]) -> list[Fraction]:
    """k_n = m_n - sum_{j<n} C(n-1, j-1) k_j m_{n-j}, independent of the library."""
    k: list[Fraction] = []
    for n in range(1, len(m) + 1):
        k.append(m[n - 1] - sum(comb(n - 1, j - 1) * k[j - 1] * m[n - j - 1]
                                for j in range(1, n)))
    return k


def boolean_from_moments(m: list[Fraction]) -> list[Fraction]:
    """b_n = m_n - sum_{j<n} b_j m_{n-j}, independent of the library."""
    b: list[Fraction] = []
    for n in range(1, len(m) + 1):
        b.append(m[n - 1] - sum(b[j - 1] * m[n - j - 1] for j in range(1, n)))
    return b


def chain_problem(steps: list[list[str]]) -> str | None:
    """Why a whole convert chain is wrong, or None when it is right."""
    seqs = [[Fraction(v) for v in step] for step in steps]
    moments = seqs[0]
    if seqs[5] != moments:
        return "chain does not return its input"
    if seqs[1] != classical_from_moments(moments):
        return "classical cumulants differ from the recursion"
    if seqs[3] != boolean_from_moments(moments):
        return "Boolean cumulants differ from the recursion"
    return None


def check_pass(run: dict, expected: dict) -> list[str]:
    """One line per failed op of one pass."""
    failures = []
    for rec in run["ops"]:
        if rec["code"] != 0:
            why = rec["error"] or rec["stderr"] or f"exit {rec['code']}"
            failures.append(f"{rec['key'][:80]}: exit {rec['code']}: {why.strip()[-300:]}")
        elif not rec.get("convert") and rec["digest"] != expected.get(rec["key"]):
            failures.append(f"{rec['key']}: stdout digest differs from the recorded one")
    for steps in run["chains"]:
        # a chain cut short has its failing op counted above
        problem = len(steps) == len(CHAIN_KINDS) and chain_problem(steps)
        if problem:
            failures.append(f"convert chain from {steps[0]}: {problem}")
    return failures


def child_runs(child: dict) -> list[dict]:
    return child["passes"] + ([child["probe"]] if "probe" in child else [])


def check_child(child: dict, expected: dict) -> tuple[int, list[str]]:
    """(ops attempted, failure lines) over every pass of a child."""
    attempted, failures = 0, []
    for run in child_runs(child):
        attempted += len(run["ops"])
        failures += check_pass(run, expected)
    return attempted, failures


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, list]:
    """End-to-end metrics: children back to back until the time is used."""
    start = perf_counter()
    spawn({"setup_only": True}, workdir)  # fills the bytecode cache, not timed
    setups = [spawn({"setup_only": True}, workdir)["setup_s"] for _ in range(SETUP_PROBES)]
    children = []
    while True:
        t0 = perf_counter()
        children.append(run_child(workload, seed, workdir, timed=True))
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            break
    setups += [c["setup_s"] for c in children]
    latencies = [
        rec["latency_s"] * 1000
        for c in children for run in child_runs(c) for rec in run["ops"] if rec.get("convert")
    ]
    samples = {
        "setup_s": setups,
        "wall_s": [c["passes"][0]["wall_s"] for c in children],
        "warm_wall_s": [c["passes"][1]["wall_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    metrics = {
        "setup_s": metric(statistics.median(samples["setup_s"]), "s"),
        "wall_s": metric(statistics.median(samples["wall_s"]), "s"),
        "warm_wall_s": metric(statistics.median(samples["warm_wall_s"]), "s"),
        "peak_rss_mb": metric(statistics.median(samples["peak_rss_mb"]), "MB"),
        "convert_p50_ms": metric(percentile(latencies, 50), "ms"),
        "convert_p90_ms": metric(percentile(latencies, 90), "ms"),
    }
    counts = {name: len(v) for name, v in samples.items()}
    counts["convert_p50_ms"] = counts["convert_p90_ms"] = len(latencies)
    raw = {
        "wall_s": statistics.median(c["passes"][0]["raw_wall_s"] for c in children),
        "warm_wall_s": statistics.median(c["passes"][1]["raw_wall_s"] for c in children),
        "kernel_s": statistics.median(c["kernel_s"] for c in children),
    }
    return metrics, {"samples": counts, "uncalibrated": raw}, children


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of one traced child, given an untraced twin."""
    tr = traced["trace"]
    totals, counters = tr["totals"], tr["counters"]

    def stat(name: str, field: str):
        return totals.get(name, {}).get(field, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(
            sum(row["self_s"] for name, row in totals.items() if name.split(".")[0] == layer), "s")
    for name in ("partitions.enumerate_partitions", "partitions.lattice_leq",
                 "algebra.mpoly_add", "algebra.mpoly_mul", "algebra.mpoly_relabel",
                 "algebra.mpoly_univariate", "algebra.series", "algebra.poly",
                 "cumulants.cumulant_poly", "cumulants.partitioned_cumulant",
                 "cumulants.convert", "cumulants.tilde_transform", "cumulants.determinant",
                 "cumulants.beta", "graphs.tutte_eval"):
        out[f"{name}.self_s"] = metric(stat(name, "self_s"), "s")
    for name in ("partitions.lattice_leq", "algebra.mpoly_add", "algebra.mpoly_mul",
                 "algebra.series", "cumulants.convert", "cumulants.beta", "forests.alpha",
                 "graphs.tutte_eval", "graphs.anti_interval_digraph"):
        out[f"{name}.calls"] = metric(stat(name, "calls"), "count")
    for name in ("partitions.enumerate_partitions", "partitions.enumerate_monotone"):
        out[f"{name}.items"] = metric(counters.get(f"{name}.items", 0), "count")
    out["permutations.items"] = metric(sum(
        v for k, v in counters.items() if k.startswith("permutations.") and k.endswith(".items")
    ), "count")
    out["algebra.mpoly_mul.term_pairs"] = metric(
        counters.get("algebra.mpoly_mul.term_pairs", 0), "count")
    for prefix, cache in tr["caches"].items():
        out[f"{prefix}.hit_ratio"] = metric(_ratio(cache["hits"], cache["lookups"]), "ratio")
        out[f"{prefix}.lookups"] = metric(cache["lookups"], "count")
    for name, _ in POLY_IDENTITIES + SEQUENCE_IDENTITIES:
        out[f"identities.{name}.total_s"] = metric(stat(f"identities.{name}", "total_s"), "s")
    records = [rec for run in traced["passes"] for rec in run["ops"]]
    out["cli.stdout_bytes"] = metric(sum(rec["stdout_bytes"] for rec in records), "B")
    out["cli.table_cache.hits"] = metric(sum(bool(rec.get("cache_hit")) for rec in records),
                                         "count")
    out["runtime.gc_s"] = metric(tr["gc_s"], "s")
    out["runtime.gc_collections"] = metric(tr["gc_collections"], "count")
    traced_walls = [run["wall_s"] for run in traced["passes"]]
    untraced_walls = [run["wall_s"] for run in untraced["passes"]]
    out["bench.traced_wall_s"] = metric(traced_walls[0], "s")
    out["bench.traced_warm_wall_s"] = metric(traced_walls[1], "s")
    out["bench.untraced_wall_s"] = metric(untraced_walls[0], "s")
    out["bench.untraced_warm_wall_s"] = metric(untraced_walls[1], "s")
    out["bench.trace_overhead"] = metric(sum(traced_walls) / sum(untraced_walls), "ratio")
    # layer self times + gc_s + remainder_s == traced_wall_s + traced_warm_wall_s
    out["bench.remainder_s"] = metric(sum(traced_walls) - tr["root_s"], "s")
    out["bench.spans"] = metric(tr["spans"], "count")
    return out


def traced_run(workload: str, seed: int, workdir: Path) -> tuple[dict, dict, list]:
    """Per-layer metrics from one traced child, next to one untraced child."""
    untraced = run_child(workload, seed, workdir)
    traced = run_child(workload, seed, workdir, trace=True)
    metrics = layer_metrics(traced, untraced)
    return metrics, {"samples": {name: 1 for name in metrics}}, [untraced, traced]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cumulantcalc" / "cli.py").is_file():
        print(f"error: no cumulantcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(DIGESTS.read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            metrics, context, children = traced_run(args.workload, args.seed, workdir)
        else:
            metrics, context, children = timed_run(args.workload, args.seed, args.seconds,
                                                   workdir)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    attempted, failures = 0, []
    for child in children:
        a, f = check_child(child, expected)
        attempted += a
        failures += f
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **context,
        "fail_ratio": len(failures) / attempted,
        "children": len(children),
        "cumulantcalc_file": children[0]["file"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
