"""Benchmark of dunkl-lab, in one process (see benchmark/README.md).

    python3 benchmark/run.py --workload verify_all|domain_hardy|sharpness
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The line before it records the environment.  The
exit code is 0 only when every verdict passed the correctness gate, and 2
when the package source is missing.
"""

from __future__ import annotations

import os

# thread pins, before numpy is imported anywhere in this process or its
# set-up probes
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from statistics import median  # noqa: E402

from stats import tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="benchmark/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("verify_all", "domain_hardy", "sharpness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", help="inject a named fault (faults.py)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be >= 0 and seconds positive")
    if args.fault and args.trace:
        parser.error("--fault needs --trace 0")
    return args


# ---------------------------------------------------------------------------
# environment


def host_probe() -> dict:
    """Fixed Fraction and numpy loops; recorded to recognise slow host
    periods, never used to scale a metric."""
    import numpy as np

    def fraction_loop():
        s = Fraction(0)
        for i in range(1, 5001):
            s = (s + Fraction(i % 7, 3)) * Fraction(1, 2)

    x = np.linspace(0.0, 1.0, 100_000)

    def numpy_loop():
        for _ in range(30):
            np.sin(x) * np.exp(-x)

    out = {}
    for name, fn in (("fraction_s", fraction_loop), ("numpy_s", numpy_loop)):
        times = []
        for _ in range(3):
            start = perf_counter()
            fn()
            times.append(perf_counter() - start)
        out[name] = median(times)
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "fault": args.fault,
        "cpus": sorted(os.sched_getaffinity(0)),
        "host_before": host_probe(),
    }


def setup_seconds(workload: str, seed: int, outdir: Path) -> list:
    """Set-up time in SETUP_PROBES fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(outdir)],
            capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# running ops


class Tally:
    """Verdicts attempted and passed, and op latencies of the timed ops."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.completed = 0  # verdicts of ops that returned
        self.latencies = []


def run_op(workload, ctx, op, tally: Tally, timed: bool = True):
    """Execute one op, gate its output and record it.  An op that raises
    counts all of its verdicts as failed."""
    expected = workload.expected_verdicts(ctx, op)
    start = perf_counter()
    try:
        raw = workload.execute(ctx, op)
    except Exception:  # a failing op must not end the run
        traceback.print_exc(file=sys.stderr)
        raw = None
    elapsed = perf_counter() - start
    flags = []
    if raw is not None:
        try:
            flags = workload.check(ctx, op, raw)
        except Exception:  # malformed output fails its verdicts
            traceback.print_exc(file=sys.stderr)
    tally.attempted += expected
    if len(flags) == expected:
        tally.passed += sum(bool(f) for f in flags)
    if timed:
        tally.latencies.append(elapsed)
        if raw is not None:
            tally.completed += expected
    return elapsed


def measure(workload, ctx, seed: int, seconds: float) -> Tally:
    """Untimed warm-up op, then whole ops until ``seconds`` have passed; the
    op in progress at the deadline completes and counts."""
    ops = workload.schedule(ctx, seed)
    run_op(workload, ctx, next(ops), Tally(), timed=False)
    tally = Tally()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        run_op(workload, ctx, next(ops), tally)
    return tally


def end_to_end(tally: Tally, setup: list, info: dict) -> dict:
    tail_s, pct, beyond = tail(tally.latencies)
    info.update(ops=len(tally.latencies), op_tail_percentile=pct,
                op_tail_beyond=beyond, setup_samples_s=setup)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (median(setup), "s"),
        "verdicts_per_s": (tally.completed / sum(tally.latencies), "1/s"),
        "op_p50_s": (median(tally.latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "pass_ratio": (tally.passed / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(workload, ctx_factory, seconds: float, info: dict):
    """Per-layer metrics: set-up and the fixed op list traced, untraced and
    traced passes of the list alternating until ``seconds`` have passed."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tally = Tally()
    try:
        tracer.active = True
        ctx = ctx_factory()
        tracer.active = False
        setup = tracer.take()
        ops = workload.trace_ops(ctx)
        for op in ops:  # warm-up, untraced
            run_op(workload, ctx, op, Tally(), timed=False)
        passes, ratios = [], []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not passes:
            plain = sum(run_op(workload, ctx, op, tally) for op in ops)
            tracer.active = True
            wall = 0.0
            for op in ops:
                tracer.begin_op()
                wall += run_op(workload, ctx, op, tally)
            tracer.active = False
            passes.append(tracer.take())
            ratios.append(wall / plain)
    finally:
        tracer.active = False
        tracer.uninstall()
    info.update(trace_passes=len(passes), trace_ops=len(ops))
    return tracer.metrics(setup, passes, median(ratios)), tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dunkl_lab" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'dunkl_lab'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    outdir = OUT / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)

    def make_context():
        ctx = workload.setup(args.seed, outdir)
        ctx.reference = workloads.load_reference(workload.name)
        return ctx

    info = {}
    try:
        if args.trace:
            env = environment(args)
            metrics, tally = traced(workload, make_context, args.seconds, info)
        else:
            setup = setup_seconds(args.workload, args.seed, outdir)
            ctx = make_context()
            env = environment(args)
            if args.fault:
                from faults import FAULTS
                from patching import Patches

                FAULTS[args.fault](Patches())
            tally = measure(workload, ctx, args.seed, args.seconds)
            metrics = end_to_end(tally, setup, info)
        env["host_after"] = host_probe()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = tally.attempted - tally.passed
    correct = failed == 0 and tally.attempted > 0
    print(json.dumps({"env": env, "run": info}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
