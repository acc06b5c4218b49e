"""The CLI's CSV tables through the vectorised renderer against the
per-value loop they replaced.

Three tables, each printed to an in-memory stdout as the CLI prints it
(`cli._print_csv` and its blocks) and by the loop of `tests/oracles.py`
(one f"{x:.17g}" per value, one joined text): the `sweep` benchmark's
40 x 40 |E| lattice on the disk at n = 1024 and an exterior w, blank in the
curve's band (its values computed once); the cardioid's
exp-Schwarz section density at n = 4096; and a 512-row moment table of the
cardioid at n = 1024. Each time is the best and the median over the rounds,
the two versions alternating; the last column says whether their bytes are
equal.

Usage: python scripts/csv_render.py [rounds]   (default 200)
Output: one line per table: name, rows, loop and renderer time in us
(best / median), and the loop's best time over the renderer's.
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import schwarzbundles as sb
from schwarzbundles import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402


def printed(write):
    """(seconds, text) of one call of write with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        write()
        seconds = time.perf_counter() - start
    return seconds, out.getvalue()


def lattice():
    grid = sb.sample(sb.build_circle(0, 1, rho=0.5), 1024)
    xs, ys = np.linspace(-1.98, 2.02, 40), np.linspace(-2.01, 1.99, 40)
    zs = xs[None, :] + 1j * ys[:, None]
    abs_e = np.exp(sb.double_cauchy_batch(grid, zs, 2.1 + 1.3j).real).reshape(zs.shape)
    return (lambda: cli._print_csv("x,y,abs_E", cli._lattice_blocks(xs, ys, abs_e)),
            lambda: print("\n".join(oracles.lattice_csv_lines(xs, ys, abs_e))), abs_e.size)


def section_density(curve):
    section = sb.canonical_section(sb.exp_schwarz_bundle(curve), sb.sample(curve, 4096))
    columns = section.grid.t, section.density.real, section.density.imag
    header = "t,re_density,im_density"
    return (lambda: cli._print_csv(header, cli._table_blocks(*columns)),
            lambda: sys.stdout.write(oracles.table_csv_loop(header, *columns)), columns[0].size)


def moments(curve):
    table = sb.harmonic_moments(sb.sample(curve, 1024), 0, 511)
    return (lambda: cli._print_moments_csv(table),
            lambda: sys.stdout.write(oracles.moments_csv_loop(table)), len(table))


def main(rounds):
    cardioid = sb.build_polynomial_curve([0, 1, 0.3], 0.7)
    tables = {"lattice-40x40": lattice(), "section-density-4096": section_density(cardioid),
              "moments-512": moments(cardioid)}
    print(f"{'table':22s} {'rows':>5s} {'loop us':>15s} {'renderer us':>15s} "
          f"{'speedup':>8s}  identical")
    for name, (render, loop, rows) in tables.items():
        times = {"loop": [], "render": []}
        texts = {}
        for _ in range(rounds):
            for version, write in (("loop", loop), ("render", render)):
                seconds, texts[version] = printed(write)
                times[version].append(seconds * 1e6)
        best = {version: min(values) for version, values in times.items()}
        cells = {version: f"{best[version]:6.0f} / {statistics.median(values):6.0f}"
                 for version, values in times.items()}
        print(f"{name:22s} {rows:5d} {cells['loop']:>15s} {cells['render']:>15s} "
              f"{best['loop'] / best['render']:8.2f}  {texts['loop'] == texts['render']}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
