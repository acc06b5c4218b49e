"""Benchmark of the schwarzbundles library and CLI.

One closed-loop client in one process: each op starts after the previous
one returned. Run from the root of a checkout:

    python3 benchmarks/run.py --workload sections --seed 1 --seconds 25 --trace 0

Workloads are `sections`, `sweep` and `queries` (see workloads.py). With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced cycles of the op list, reports the per-layer
metrics of the traced ones and the tracing overhead, and writes its spans to
benchmarks/out/. `--smoke` runs reduced-size inputs.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it records the seed,
the machine and the library versions. Exit code 2 means the benchmark could
not run (for example, no package sources in the checkout).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = "schwarzbundles"

# One client, so BLAS runs single-threaded (at most nproc; OpenBLAS would
# otherwise start up to 64 threads for lstsq). Set before numpy is imported.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The CLI reads these as fallbacks; the benchmark pins every input itself.
CLEARED_VARS = ("SCHWARZ_N", "SCHWARZ_TOL")

SETUP_REPEATS = 3           # before the loop; more follow during it
SETUP_INTERVAL = 2.0        # seconds between set-ups during the loop
# at least ten latency samples beyond the 90th percentile
MIN_SAMPLES = 100
# each op's latency is the median of its repeats
MIN_REPEATS = 5
# median time of Clock.reference on an idle 2-core x86_64 host (Xeon, 2.0 GHz)
REFERENCE_MS = 0.93
REFERENCE_POLY = (1.0, 0.3, 0.1, 0.05)

WORKLOADS = ("sections", "sweep", "queries")
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("answered_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def package_modules():
    return [name for name in sys.modules
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def import_package():
    """Fresh import of the package from this checkout's sources."""
    for name in package_modules():
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def environment(np, args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Clock:
    """Times a call and a fixed reference kernel just before and after it.

    Other tenants of a shared host slow every process on it, for seconds to
    minutes at a time and by up to 1.9x on the host this was built on. The
    reference kernel (scalar numpy calls in a Python loop, then vector ops,
    like the package) slows with it. `factor` is the kernel's time around
    the call over REFERENCE_MS, and elapsed / factor is the call's time at
    the reference speed.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.exp(1j * np.linspace(0.0, 6.0, 2048))

    def reference(self):
        """Seconds for the kernel's second of two back-to-back passes, so
        that the cache state the previous call left does not count."""
        np, x = self.np, self.x
        for _ in range(2):
            start = time.perf_counter()
            acc = 0j
            for k in range(120):
                acc += complex(np.polyval(REFERENCE_POLY, x[k]))
            for _ in range(4):
                acc += np.sum(x / (np.roll(x, -1) - 2.0))
            elapsed = time.perf_counter() - start
        return elapsed

    def call(self, fn):
        """(result or raised exception, elapsed seconds, factor)."""
        before = self.reference()
        start = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # the caller counts it as a failure
            outcome = exc
        elapsed = time.perf_counter() - start
        after = self.reference()
        return outcome, elapsed, (before + after) / (2e-3 * REFERENCE_MS)


class Tally:
    """Latencies (per op name) and verdicts of the measured ops."""

    def __init__(self):
        self.latencies = {}     # op name -> [(elapsed, factor)]
        self.attempted = self.failed = self.answers = self.refused = 0
        self.wrong = False
        self.reported = set()

    def add(self, op, elapsed, factor, verdict):
        self.latencies.setdefault(op.name, []).append((elapsed, factor))
        self.attempted += 1
        self.answers += verdict.answers
        self.refused += verdict.refused
        if not verdict.ok:
            self.failed += 1
            self.wrong |= verdict.wrong
            if op.name not in self.reported:
                self.reported.add(op.name)
                print(f"op {op.name} failed: {verdict.note}", file=sys.stderr)

    def merge(self, other):
        for name, runs in other.latencies.items():
            self.latencies.setdefault(name, []).extend(runs)
        self.attempted += other.attempted
        self.failed += other.failed
        self.answers += other.answers
        self.refused += other.refused
        self.wrong |= other.wrong


def run_op(op, wl, clock):
    """Time op.run, then check its result; an unexpected raise is a failure."""
    outcome, elapsed, factor = clock.call(op.run)
    if isinstance(outcome, Exception):
        return elapsed, factor, wl.Verdict(ok=False, wrong=False,
                                           note=f"raised {describe(outcome)}")
    try:
        return elapsed, factor, op.check(outcome)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        return elapsed, factor, wl.Verdict(ok=False, wrong=True,
                                           note=f"unreadable output: {describe(exc)}")


def describe(exc):
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def run_cycle(ops, wl, clock, tally, tracer=None, between=None):
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        elapsed, factor, verdict = run_op(op, wl, clock)
        if tally is not None:
            tally.add(op, elapsed, factor, verdict)
        if between is not None:
            between()


def timed_setup(clock, wl, specs, workload, sizes):
    """Import the package afresh and set the workload up; returns the
    package, its context and the seconds taken at the reference speed."""
    def setup():
        package = import_package()
        return package, wl.setup(package, specs, workload, sizes)

    outcome, elapsed, factor = clock.call(setup)
    if isinstance(outcome, Exception):
        raise outcome
    return (*outcome, elapsed / factor)


def side_setup(clock, wl, specs, workload, sizes):
    """timed_setup on a side copy of the package; the modules the ops use
    are put back afterwards."""
    saved = {name: sys.modules[name] for name in package_modules()}
    try:
        return timed_setup(clock, wl, specs, workload, sizes)[2]
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def percentiles(values):
    """Median and 90th percentile, linear between order statistics."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def op_latencies(tally):
    """Each op's median latency at the reference speed."""
    return {name: statistics.median(e / f for e, f in runs)
            for name, runs in tally.latencies.items()}


def end_to_end(tally, setup_times):
    """End-to-end metrics. Timings are at the reference speed (see Clock).
    Each op's latency is the median of its repeats; percentiles and
    throughput are taken over the op mix, each op weighted once."""
    typical = op_latencies(tally)
    samples = tally.attempted
    beyond = samples - math.ceil(0.9 * samples)
    if beyond < 10:
        print(f"only {beyond} samples beyond the 90th percentile; "
              "run longer", file=sys.stderr)
    p50, p90 = percentiles(list(typical.values()))
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(typical) / sum(typical.values()),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "answered_frac": 1.0 - tally.refused / tally.answers,
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    mix = f"{len(typical)} ops x {samples // len(typical)} cycles"
    counts = {"setup_s": f"{len(setup_times)} set-ups", "latency_p50_ms": mix,
              "latency_p90_ms": mix, "throughput_ops_s": mix,
              "ok_frac": f"{tally.attempted} ops", "answered_frac": f"{tally.answers} answers"}
    factors = []
    for name, runs in tally.latencies.items():
        factors += [f for _, f in runs]
        raw = statistics.median(e for e, _ in runs)
        print(f"op {name}: {typical[name] * 1e3:.4g} ms (measured {raw * 1e3:.4g} ms)")
    print(f"host slowdown factor: median {statistics.median(factors):.3f}, "
          f"max {max(factors):.3f}")
    for name, unit in END_TO_END:
        suffix = f" (n = {counts[name]})" if name in counts else ""
        print(f"{name} = {values[name]:.6g} {unit}{suffix}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"refused_frac = {tally.refused / tally.answers:.6g}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure(ops, wl, clock, seconds, min_cycles, min_samples, side):
    """Whole cycles of the op list until `seconds` have passed, at least
    `min_cycles` cycles and at least `min_samples` ops ran. `side` is called
    every SETUP_INTERVAL seconds between ops, so the set-up samples spread
    over the run."""
    tally = Tally()
    start = last = time.perf_counter()

    def between():
        nonlocal last
        if time.perf_counter() - last >= SETUP_INTERVAL:
            side()
            last = time.perf_counter()

    cycles = 0
    while True:
        run_cycle(ops, wl, clock, tally, between=between)
        cycles += 1
        if time.perf_counter() - start >= seconds and cycles >= min_cycles \
                and tally.attempted >= min_samples:
            return tally


def measure_traced(ops, wl, clock, tracing, package, seconds):
    """Alternate untraced and traced cycles until `seconds` have passed.
    Returns the tally of all cycles, the tracer and the per-layer metrics
    per traced cycle; the overhead is the traced over the untraced sum of
    typical op latencies, minus 1."""
    tallies, tracer = {False: Tally(), True: Tally()}, tracing.Tracer()
    cycles = {False: 0, True: 0}
    start = time.perf_counter()
    while not cycles[True] or time.perf_counter() - start < seconds:
        traced = cycles[False] > cycles[True]
        if traced:
            tracer.install(package)
        try:
            run_cycle(ops, wl, clock, tallies[traced], tracer if traced else None)
        finally:
            tracer.uninstall()
        cycles[traced] += 1
    on, off = (sum(op_latencies(tallies[t]).values()) for t in (True, False))
    layers = tracer.layer_metrics(cycles[True], on / off - 1.0)
    units = dict(tracing.LAYER_METRICS)
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {units[name]}")
    tally = tallies[False]
    tally.merge(tallies[True])
    return tally, tracer, {name: {"value": value, "unit": units[name]}
                           for name, value in layers.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is imported only here, after the thread variables are pinned
    import numpy as np

    import tracing
    import workloads as wl

    clock = Clock(np)
    sizes = wl.SMOKE if args.smoke else wl.FULL
    specs = wl.curve_specs(np.random.default_rng([args.seed, 0]))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        package, ctx, seconds = timed_setup(clock, wl, specs, args.workload, sizes)
        setup_times.append(seconds)
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        print(f"{PACKAGE} imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    make_ops = wl.WORKLOAD_OPS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    try:
        files = wl.write_curve_files(specs, workdir)
        ops = make_ops(package, ctx, np.random.default_rng([args.seed, 1]), sizes, files)
        if not args.smoke:
            # warm-up pass on reduced inputs, so lazy set-up is not timed
            warm = wl.setup(package, specs, args.workload, wl.SMOKE)
            run_cycle(make_ops(package, warm, np.random.default_rng([args.seed, 1]),
                               wl.SMOKE, files), wl, clock, None)
        if args.trace:
            tally, tracer, metrics = measure_traced(ops, wl, clock, tracing, package,
                                                    args.seconds)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            min_cycles, min_samples = (1, 1) if args.smoke else (MIN_REPEATS, MIN_SAMPLES)
            tally = measure(ops, wl, clock, args.seconds, min_cycles, min_samples,
                            lambda: setup_times.append(
                                side_setup(clock, wl, specs, args.workload, sizes)))
            metrics = end_to_end(tally, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# " + json.dumps(environment(np, args), sort_keys=True))
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    for var in CLEARED_VARS:
        os.environ.pop(var, None)
    sys.exit(main())
