"""Timing of the kernel pass's far rows against the largest far ratio q
(`curve.FAR_RATIO`): for each q, the best time of the two calls behind
the comment on FAR_RATIO. They are two 40 x 40 lattices of
`double_cauchy_batch` on the disk at n = 1024, one with w exterior and one
with w interior (the `sweep` benchmark's calls that take far rows). Rows
inside the nodes' annulus with q up to the given value may be expanded;
rows beyond it stay direct. Rows outside take the pullback route at any q.
The q values take turns within each round, so a drift of the host's speed
spreads over all of them. The far share is that of the exterior lattice:
its rows taken by the expansion.

Usage: python scripts/far_ratio_study.py [rounds]   (default 5)
"""

import sys
import time

import numpy as np

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod

RATIOS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85)


def far_share(grid, pts, density):
    with np.errstate(all="ignore"):
        routes = curve_mod._routes(grid, pts, *curve_mod._columns(grid, density))
        return sum(rows.size for kind, rows, *_ in routes if kind == "inside") / pts.size


def main(rounds):
    disk = sb.sample(sb.build_circle(0.0, 1.0), 1024)
    xs = np.linspace(-2.0, 2.0, 40)
    lattice = (0.03 + 0.02j + xs[None, :] + 1j * xs[:, None]).ravel()
    calls = [("exterior w", lambda: sb.double_cauchy_batch(disk, lattice, 2.5 * np.exp(1j))),
             ("interior w", lambda: sb.double_cauchy_batch(disk, lattice, 0.5 * np.exp(2j)))]
    best = {(q, label): np.inf for q in RATIOS for label, _ in calls}
    share = {}
    saved = curve_mod.FAR_RATIO
    try:
        for _ in range(rounds):
            for q in RATIOS:
                curve_mod.FAR_RATIO = q
                share[q] = far_share(disk, lattice, np.log(np.conjugate(disk.z) - 2.5))
                for label, call in calls:
                    start = time.perf_counter()
                    call()
                    best[q, label] = min(best[q, label], time.perf_counter() - start)
    finally:
        curve_mod.FAR_RATIO = saved
    print(f"best of {rounds} rounds, ms")
    print("q      far   " + "".join(f"{label:>13s}" for label, _ in calls) + "      sum")
    for q in RATIOS:
        times = [1e3 * best[q, label] for label, _ in calls]
        print(f"{q:<5.2f}  {share[q]:4.2f} " + "".join(f"{t:13.2f}" for t in times)
              + f"{sum(times):9.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
