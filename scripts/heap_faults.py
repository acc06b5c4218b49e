"""Minor page faults per op of the `sweep` benchmark's ops, and the
transient memory peak of one lattice kernel pass.

One cycle is the benchmark's `sweep` mix: two `plotdata` 40 x 40 lattices
of |E| on the disk at n = 1024 through the CLI (w exterior and w interior),
rational fits on the cardioid and the benchmark's quartic at n = 512, and the
moment check on the cardioid at n = 4096. After two warm-up cycles, each
op's minor faults (`resource.getrusage`) are summed over the given number
of cycles and printed per op, then per cycle. A fault here is the heap
handing pages back to the system and taking them again: a pass that leaves
memory mapped, or reuses it, faults 0 times per op.

The fits run first alone, the same way, before any lattice. glibc maps an
array above its dynamic mmap threshold (128 kB at start) afresh per call,
and freeing a larger mapping raises the threshold, so what ran before can
hide what a fit faults. A lattice no longer frees such a mapping: its
band rows are decided from node blocks (`curve.near_rows`), and it makes
no kernel pass, or one over a single row (`scripts/workload_passes.py`),
where its 1 MB of kernel buffers once raised the threshold.

The peak is `tracemalloc`'s for one `double_cauchy_batch` over the
exterior w's lattice: the band test's node gathers, w's density and the
kernel pass's block buffers when a row off the band is left to sum, the
closed rows' factor tables, and the outputs.

Usage: python scripts/heap_faults.py [cycles]   (default 20)
Output: one line per fit of the fits-only pass, `fits_only_faults_per_op
<op> <value>`, one line per op of the cycle, `faults_per_op <op> <value>`,
then `faults_per_cycle <value>` and `batch_peak_mb <value>`.
"""

import contextlib
import io
import json
import resource
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

import schwarzbundles as sb
from schwarzbundles import cli

QUARTIC = [0, 1, 0.1, 0.04, 0.02]


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def lattice_op(path, w):
    argv = ["plotdata", str(path), "--quantity", "exp-transform-abs", "--n=1024",
            "--grid=-2:2:40,-2:2:40", f"--w={float(w.real)!r},{float(w.imag)!r}"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit("plotdata refused the lattice")
    return run


def fit_op(grid, count):
    scale = np.abs(grid.z).max()
    samples = 1.6 * scale * np.exp(2j * np.pi * (np.arange(count) + 0.3) / count)
    degree = grid.curve.degree
    return lambda: sb.fit_rational_structure(grid, degree, degree, samples)


def batch_peak_mb(grid, w):
    xs = np.linspace(-2.0, 2.0, 40)
    lattice = (xs[None, :] + 1j * xs[:, None]).ravel()
    sb.double_cauchy_batch(grid, lattice, w)  # the grid's kept operands are formed here
    tracemalloc.start()
    try:
        sb.double_cauchy_batch(grid, lattice, w)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def faults_per_op(ops, cycles):
    """{op: minor faults per call} over `cycles` cycles after two warm-up ones."""
    faults = {name: 0 for name, _ in ops}
    for cycle in range(cycles + 2):
        for name, op in ops:
            before = minor_faults()
            op()
            if cycle >= 2:
                faults[name] += minor_faults() - before
    return {name: count / cycles for name, count in faults.items()}


def main(cycles):
    disk = sb.build_circle(0.0, 1.0)
    cardioid = sb.build_polynomial_curve([0, 1, 0.3], 0.7)
    quartic = sb.build_polynomial_curve(QUARTIC, 0.75)
    w_out, w_in = 2.5 * np.exp(1j), 0.5 * np.exp(2j)
    fits = [("fit/cardioid", fit_op(sb.sample(cardioid, 512), 12)),
            ("fit/quartic", fit_op(sb.sample(quartic, 512), 24))]
    alone = faults_per_op(fits, cycles)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "disk.json"
        path.write_text(json.dumps(sb.curve_to_json(disk)))
        ops = [("lattice/w-exterior", lattice_op(path, w_out)),
               ("lattice/w-interior", lattice_op(path, w_in)),
               *fits,
               ("moment-check", partial(sb.moment_expansion_check, sb.sample(cardioid, 4096), 6))]
        mixed = faults_per_op(ops, cycles)
    for name, count in alone.items():
        print(f"fits_only_faults_per_op {name} {count:.2f}")
    for name, count in mixed.items():
        print(f"faults_per_op {name} {count:.2f}")
    print(f"faults_per_cycle {sum(mixed.values()):.2f}")
    print(f"batch_peak_mb {batch_peak_mb(sb.sample(disk, 1024), w_out):.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
