"""Kernel passes and side decisions in one steady-state cycle of the
`sections` and `sweep` benchmark workloads.

Each workload's ops are built by benchmarks/workloads.py at full size for
the given seed. One cycle runs first, so that what a grid keeps (its
kernel operands, its verification points with their sides) is formed
there; then the calls of `curve.sides` and `curve.kernel_sums` made in a
second cycle are counted, at every module name through which the package
reaches them, with the points and the node count n of each kernel pass.

Usage: python scripts/workload_passes.py [seed]   (default 1)
Output: one line per workload, `<workload> sides <count> kernel_sums <count>
rows <points of each pass> n <node count of each pass>`, each list
comma-separated, or - without a pass.
"""

import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import schwarzbundles as sb

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import workloads as wl  # noqa: E402

WORKLOADS = ("sections", "sweep")


def install_counters(calls):
    """Wrap `sides` and `kernel_sums` at every module name that binds them,
    appending (name, points, n) per call; returns the undo list."""
    undo = []
    for module in (sb.curve, sb.transforms, sb.bundles, sb.quaddom):
        for name in ("sides", "kernel_sums"):
            if name in vars(module):
                original = getattr(module, name)

                def counted(grid, points, *rest, name=name, original=original):
                    calls.append((name, np.size(points), grid.n))
                    return original(grid, points, *rest)

                setattr(module, name, counted)
                undo.append((module, name, original))
    return undo


def cycle_calls(workload, seed, directory):
    """(name, points, n) of each counted call in the second cycle of the ops."""
    specs = wl.curve_specs(np.random.default_rng([seed, 0]))
    ctx = wl.setup(sb, specs, workload, wl.FULL)
    files = wl.write_curve_files(specs, directory)
    ops = wl.WORKLOAD_OPS[workload](sb, ctx, np.random.default_rng([seed, 1]), wl.FULL, files)
    for op in ops:
        op.run()
    calls = []
    undo = install_counters(calls)
    try:
        for op in ops:
            op.run()
    finally:
        for module, name, original in reversed(undo):
            setattr(module, name, original)
    return calls


def main(seed):
    importlib.import_module("schwarzbundles.cli")  # `sweep` runs its lattices through it
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            calls = cycle_calls(workload, seed, Path(tmp))
            passes = [(points, n) for name, points, n in calls if name == "kernel_sums"]
            decisions = sum(name == "sides" for name, _, _ in calls)
            rows, nodes = zip(*passes) if passes else ((), ())
            print(f"{workload} sides {decisions} kernel_sums {len(passes)} "
                  f"rows {','.join(map(str, rows)) or '-'} n {','.join(map(str, nodes)) or '-'}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
