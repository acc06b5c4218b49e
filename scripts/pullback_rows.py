"""The kernel pass's pullback route on 40 x 40 lattices at n = 1024.

For the disk, the cardioid, the benchmark's quartic and the Taylor
polynomials of degree 6 ((e^(1.5 zeta) - 1)/1.5), 12 ((e^(2 zeta) - 1)/2)
and 30 (e^zeta - 1), a lattice over c + [-2R, 2R]^2 (c the conformal
center, R the nodes' largest |z - c|) is summed with the two density
columns `double_cauchy_batch` uses at an exterior w.

The first table gives the rows per route (outside and inside the nodes'
annulus) and each side's M; the worst distance of a route row's sums from
the term-by-term complex sum, as a ratio to the bound `kernel_sums` states;
and the best time of the pass over the route's rows alone, by the route and
with the route off (the direct pass). The second takes each lattice's
interior rows (inside the nodes' annulus, clear of the band): the rows the
inside route takes, the worst ratio over them, and the pass over them as
the library routes it against the direct pass. The route sums inside at
degree 1 only, so at every other degree the two times are the same pass.
The third takes the rows outside the nodes' annulus, clear of the band, and
times the pass over them with PULLBACK_DEGREE lifted (the route where its
bound takes a row, the direct pass elsewhere) against the direct pass
alone; it gives the degrees where the route makes that pass faster.

Usage: python scripts/pullback_rows.py [rounds]   (default 7)
"""

import math
import sys
import time

import numpy as np

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod
from schwarzbundles import transforms

EPS = np.finfo(float).eps
N = 1024
CURVES = [("disk", [0, 1], 0.5), ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75),
          ("taylor-6", [0.0] + [1.5 ** (j - 1) / math.factorial(j) for j in range(1, 7)], 0.7),
          ("taylor-12", [0.0] + [2.0 ** (j - 1) / math.factorial(j) for j in range(1, 13)], 0.7),
          ("taylor-30", [0.0] + [1.0 / math.factorial(j) for j in range(1, 31)], 0.7)]


def best(calls, rounds):
    """The best time of each call in ms, the calls taking turns in each round
    so that a drift of the host's speed spreads over all of them."""
    times = [math.inf] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            call()
            times[i] = min(times[i], time.perf_counter() - start)
    return [1e3 * t for t in times]


def lattice_pass(grid):
    """The lattice and its density columns [D, -conj D] at an exterior w."""
    c, big, _ = grid._node_annulus
    xs = np.linspace(-2.0 * big, 2.0 * big, 40)
    lattice = (c + xs[None, :] + 1j * xs[:, None]).ravel()
    density = transforms._pole_density(grid, c + 2.5 * big * np.exp(0.3j), False)
    return lattice, np.stack([density, -np.conjugate(density)], axis=1)


def routes(grid, pts, columns):
    """{kind: (rows, M)} of the route's sides on this batch."""
    with np.errstate(all="ignore"):
        found = curve_mod._routes(grid, pts, *curve_mod._columns(grid, columns))
        return {kind: (rows, m) for kind, rows, _, m, _ in found}


def worst_ratio(grid, pts, columns):
    """Largest |sum - term-by-term sum| / stated bound over the rows and columns."""
    if not pts.size:
        return 0.0
    _, winding, sums = sb.kernel_sums(grid, pts, columns)
    nums = np.column_stack([grid.dz, columns * grid.dz[:, None]])
    got = np.column_stack([winding, sums])
    worst = 0.0
    for p, row in zip(pts, got):
        terms = grid.weight * nums / (grid.z - p)[:, None]
        want = terms.sum(axis=0) / (2j * np.pi)
        want[0] = want[0].real
        bound = 8 * grid.n * EPS * np.abs(terms).sum(axis=0)
        worst = max(worst, float((np.abs(row - want) / bound).max()))
    return worst


def with_setting(name, value, call):
    """call() with curve_mod.<name> set to value."""
    def run():
        saved = getattr(curve_mod, name)
        setattr(curve_mod, name, value)
        try:
            return call()
        finally:
            setattr(curve_mod, name, saved)
    return run


def timed(grid, pts, columns, rounds, setting="PULLBACK_ROWS", value=math.inf):
    """(as routed, with the setting changed) best times of the pass over pts."""
    call = lambda: sb.kernel_sums(grid, pts, columns)  # noqa: E731
    return best([call, with_setting(setting, value, call)], rounds)


def clear(grid, pts, inside):
    """The points clear of the band on one side of the nodes' annulus."""
    c, big, small = grid._node_annulus
    gap = np.abs(pts - c)
    lower = (small - gap) - 8 * EPS * (small + gap) if inside \
        else (gap - big) - 8 * EPS * (gap + big)
    return pts[lower >= grid.exclusion_band]


def main(rounds):
    grids = {name: sb.sample(sb.build_polynomial_curve(coeffs, rho), N)
             for name, coeffs, rho in CURVES}
    print(f"40 x 40 lattices at n = {N}; best of {rounds} rounds, ms")
    print("curve      degree  outside  inside  direct  M out/in  worst/bound   route     off")
    for name, grid in grids.items():
        pts, columns = lattice_pass(grid)
        found = routes(grid, pts, columns)
        out, inn = (found.get(kind, (np.empty(0, int), "-")) for kind in ("outside", "inside"))
        line = (f"{name:10s} {grid.curve.degree:6d}  {out[0].size:7d}  {inn[0].size:6d}"
                f"  {pts.size - out[0].size - inn[0].size:6d}  {out[1]!s:>4s}/{inn[1]!s:4s}")
        if found:
            rows = np.concatenate([out[0], inn[0]])
            route, off = timed(grid, pts[rows], columns, rounds)
            line += f"  {worst_ratio(grid, pts[rows], columns):10.2e}   {route:6.2f}  {off:6.2f}"
        print(line)

    print("\nrows inside the nodes' annulus: the pass as routed against the direct pass, ms")
    print("curve      degree  rows  taken   M    worst/bound   routed   direct")
    for name, grid in grids.items():
        pts, columns = lattice_pass(grid)
        inner = clear(grid, pts, True)
        rows, m = routes(grid, inner, columns).get("inside", (np.empty(0, int), "-"))
        routed, direct = timed(grid, inner, columns, rounds)
        print(f"{name:10s} {grid.curve.degree:6d}  {inner.size:4d}  {rows.size:5d}  {m!s:>4s}"
              f"  {worst_ratio(grid, inner[rows], columns):10.2e}    {routed:6.2f}  {direct:7.2f}")

    print("\nrows outside the nodes' annulus: the pass with PULLBACK_DEGREE lifted "
          "against the direct pass, ms")
    print("curve      degree  rows  taken   M     route   direct")
    faster = []
    for name, grid in grids.items():
        pts, columns = lattice_pass(grid)
        outside = clear(grid, pts, False)
        found = with_setting("PULLBACK_DEGREE", math.inf,
                             lambda: routes(grid, outside, columns))()
        rows, m = found.get("outside", (np.empty(0, int), "-"))
        lifted = with_setting("PULLBACK_DEGREE", math.inf,
                              lambda: sb.kernel_sums(grid, outside, columns))
        direct = with_setting("PULLBACK_ROWS", math.inf,
                              lambda: sb.kernel_sums(grid, outside, columns))
        route, off = best([lifted, direct], rounds)
        if route < off:
            faster.append(grid.curve.degree)
        print(f"{name:10s} {grid.curve.degree:6d}  {outside.size:4d}  {rows.size:5d}   {m!s:4s}"
              f"  {route:6.2f}  {off:7.2f}")
    print(f"\nthe route makes the pass faster at degrees {faster}; "
          f"PULLBACK_DEGREE = {curve_mod.PULLBACK_DEGREE}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
