"""One benchmark client process: import the library, run the ops, report.

Reads a JSON spec on stdin, imports `cumulantcalc` (from `PYTHONPATH`),
prints a `{"ready": ...}` line, then runs the op list once cold and once
warm through `cumulantcalc.cli.main(argv)` with stdout captured, and
prints one JSON result line.  Run it through `run.py`, which builds the
spec and the environment; the spec keys are:

- `ops`: the op list of `workloads.ops_for`;
- `cache_dir`: the `--cache-dir` given to `table` ops;
- `probe`: convert chains run after the last pass, for their latencies;
- `calibrate`: time with `CalibratedClock` instead of `perf_counter`;
- `trace`: wrap the library with `tracer.Tracer` and report per-layer data;
- `setup_only`: stop after the ready line.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

from workloads import CHAIN_KINDS, op_key


#: what the calibration kernel takes at the reference speed
KERNEL_REF_S = 0.0004
#: how often the calibrated clock samples the machine's speed, and over
#: how many samples (a median) it takes the speed
TICK_S = 0.02
RATE_TICKS = 5


def kernel_seconds() -> float:
    """Time of a fixed loop of rational and dict arithmetic.

    The loop does what the library does most, so the two slow down
    together when the machine is busy.  Collection is held off so that no
    library garbage is collected on the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        d: dict = {}
        for i in range(1, 80):
            acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i)
            d[i % 31] = d.get(i % 31, 0) + i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class CalibratedClock:
    """Seconds at the reference speed, for a machine whose speed drifts.

    Every TICK_S a SIGALRM handler times the kernel (its own time is left
    out of the clock) and the clock then runs at KERNEL_REF_S over the
    median of the last RATE_TICKS kernel times until the next tick.  A
    pass that takes 10 s while the kernel takes 1.25 times its reference
    reads 8 s.
    """

    def __init__(self):
        self.kernels: list[float] = []
        self._value = 0.0
        self._gen = 0

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        now = perf_counter()
        if self.kernels:
            self._value += (now - self._since) * self._rate
        self.kernels.append(kernel_seconds())
        self._rate = KERNEL_REF_S / statistics.median(self.kernels[-RATE_TICKS:])
        self._since = perf_counter()
        self._gen += 1

    def __call__(self) -> float:
        while True:  # a tick may land between the reads below
            gen = self._gen
            value = self._value + (perf_counter() - self._since) * self._rate
            if gen == self._gen:
                return value


def _run_cli(cli, argv: list[str], clock) -> dict:
    """Run one CLI op; returns its stdout, exit code, latency and errors."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = clock()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a failed op is reported, and the pass goes on
            code, error = None, traceback.format_exc(limit=-3)
    latency = clock() - t0
    return {"stdout": out.getvalue(), "code": code, "latency_s": latency,
            "stderr": err.getvalue()[-400:], "error": error}


def _cache_state(path: str) -> dict:
    try:
        return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(path)}
    except FileNotFoundError:
        return {}


def run_pass(cli, ops: list, cache_dir: str, tracer=None, clock=perf_counter) -> dict:
    """Run the op list once; the timed region is the whole loop."""
    records = []
    chains = []
    t0, raw_t0 = clock(), perf_counter()
    for op in ops:
        if isinstance(op, dict):
            values = op["chain"]
            steps = [values]
            for src, dst in zip(CHAIN_KINDS, CHAIN_KINDS[1:]):
                argv = ["convert", src, dst, json.dumps(values)]
                if tracer is not None:
                    tracer.op_id += 1
                rec = _run_cli(cli, argv, clock)
                rec["key"] = op_key(argv)
                rec["convert"] = True
                records.append(rec)
                if rec["code"] != 0:
                    break
                values = json.loads(rec["stdout"])
                steps.append(values)
            chains.append(steps)
            continue
        argv = list(op)
        if tracer is not None:
            tracer.op_id += 1
        if argv[0] == "table":
            # a hit leaves the cache directory exactly as it found it
            before = _cache_state(cache_dir)
            rec = _run_cli(cli, ["--cache-dir", cache_dir] + argv, clock)
            rec["cache_hit"] = bool(before) and _cache_state(cache_dir) == before
        else:
            rec = _run_cli(cli, argv, clock)
        rec["key"] = op_key(op)
        records.append(rec)
    wall, raw_wall = clock() - t0, perf_counter() - raw_t0
    for rec in records:
        text = rec.pop("stdout")
        data = text.encode()
        rec["stdout_bytes"] = len(data)
        rec["digest"] = hashlib.sha256(data).hexdigest()
    return {"wall_s": wall, "raw_wall_s": raw_wall, "ops": records, "chains": chains}


def main() -> int:
    spec = json.load(sys.stdin)
    import cumulantcalc
    import cumulantcalc.cli as cli

    real_stdout = sys.stdout
    print(json.dumps({"ready": True, "file": cumulantcalc.__file__}), flush=True)
    result = {} if spec.get("setup_only") else run_spec(cli, spec)
    real_stdout.write(json.dumps(result) + "\n")
    real_stdout.flush()
    return 0


def run_spec(cli, spec: dict) -> dict:
    """Run the passes (and the probe) of a spec; returns the child's report."""
    tracer = clock = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec.get("calibrate"):
        clock = CalibratedClock()
        clock.start()
    passes = []
    try:
        for _ in ("cold", "warm"):
            passes.append(run_pass(cli, spec["ops"], spec["cache_dir"], tracer,
                                   clock or perf_counter))
        # the workload's peak, before the probe can add to it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe = spec.get("probe") and run_pass(cli, spec["probe"], spec["cache_dir"],
                                               clock=clock or perf_counter)
    finally:
        if tracer is not None:
            tracer.restore()
        if clock is not None:
            clock.stop()
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb}
    if clock is not None:
        result["kernel_s"] = statistics.median(clock.kernels)
    if probe:
        result["probe"] = probe
    if tracer is not None:
        from tracer import cache_stats

        result["trace"] = {
            "totals": tracer.totals(),
            "counters": dict(tracer.counters),
            "gc_s": tracer.gc_seconds(),
            "gc_collections": len(tracer.gc_spans),
            "root_s": tracer.root_seconds(),
            "spans": len(tracer.start),
            "caches": cache_stats(),
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
