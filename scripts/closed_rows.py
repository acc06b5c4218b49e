"""The rows `double_cauchy_batch` closes on 40 x 40 lattices, their error
and the batch's time; and the route and time of one-point `double_cauchy`
per quadrant.

For the disk, the cardioid, the test quartic and the Taylor polynomials of
degree 6 ((e^(1.5 zeta) - 1)/1.5), 12 ((e^(2 zeta) - 1)/2) and 30 (e^zeta -
1), at n = 256 and 1024, a lattice over c + [-2R, 2R]^2 (c the conformal
center, R the nodes' largest |z - c|) is evaluated at an interior w, an
exterior w and a far w = c + 1e6 i; a w in the exclusion band is skipped.
Each row gives the lattice's rows closed outside the nodes' annulus, closed
inside it (degree 1 only) and summed by the kernel pass; the worst
distance of a closed row's C from the one-point trapezoidal C, as a ratio
to the bound the kernel states for it; and the best time of the whole
batch. The one-point C sums, term by term, the unwrapped log of 1/(S -
conj w), divided by (z_k - w) at interior w, with its constant; the bound
is 8 n eps sum_k |w num_k/(z_k - p)| per sum (two at interior z and
exterior w) plus 2 eps |C|. Without the constant, at far w, the bound
would be about the rounding of the roots' cancelling factors.

The second table takes one z and one w on each side of the disk, the
cardioid and the quartic at n = 1024 (z at 0.3 r or 1.5 R about c, r the
nodes' smallest |z - c|; w at 0.2 r or 2.5 R, at other angles). Each row
gives the quadrant, the route the one-point call takes (closed when
`clear_rows` places z, outside or, at degree 1, inside; else the kernel
pass), its best time over `rounds` rounds of 200 calls, and z, w and C in
%.17g, so that C can be checked against the one-point trapezoidal C.

Usage: python scripts/closed_rows.py [rounds]   (default 7)
"""

import math
import sys
import timeit

import numpy as np

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod
from schwarzbundles import transforms

EPS = np.finfo(float).eps
CURVES = [("disk", [0, 1], 0.5), ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72),
          ("taylor-6", [0.0] + [1.5 ** (j - 1) / math.factorial(j) for j in range(1, 7)], 0.7),
          ("taylor-12", [0.0] + [2.0 ** (j - 1) / math.factorial(j) for j in range(1, 13)], 0.7),
          ("taylor-30", [0.0] + [1.0 / math.factorial(j) for j in range(1, 31)], 0.7)]


def trapezoid(grid, density, z):
    """(sum, bound): (1/2 pi i) sum_k w density_k dz_k/(z_k - z) term by
    term, and 8 n eps sum_k |w density_k dz_k/(z_k - z)|."""
    terms = grid.weight * density * grid.dz / (grid.z - z)
    return terms.sum() / (2j * np.pi), 8 * grid.n * EPS * np.abs(terms).sum()


def worst_ratio(grid, zs, w, got, rows):
    """Largest |C - trapezoidal C| / bound over the given rows."""
    interior = bool(curve_mod.off_band(grid, [w])[0][0])
    values = transforms._pole_transition(grid, w)
    density = transforms.unwrap_log(values / (grid.z - w) if interior else values)[0]
    worst = 0.0
    for z, c in zip(zs[rows], got[rows]):
        want, bound = trapezoid(grid, density, z)
        z_inside = bool(curve_mod.sides(grid, [z])[1][0])
        if z_inside and interior:
            want += math.log(abs(z - w) ** 2)
        elif z_inside:
            other, more = trapezoid(grid, -np.conjugate(density), z)
            want, bound = want + np.conjugate(other), bound + more
        worst = max(worst, abs(c - want) / (bound + 2 * EPS * abs(want)))
    return worst


def main(rounds):
    print(f"40 x 40 lattices; best of {rounds} batches, ms")
    print("curve         n  degree  w         outside  inside  direct  worst/bound     ms")
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        for n in (256, 1024):
            grid = sb.sample(curve, n)
            c, big, small = grid._node_annulus
            xs = np.linspace(-2.0 * big, 2.0 * big, 40)
            zs = (c + xs[None, :] + 1j * xs[:, None]).ravel()
            outside, inside = curve_mod.clear_rows(grid, zs)
            inside &= curve.degree == 1
            for label, w in (("interior", c + 0.3 * small * np.exp(0.4j)),
                             ("exterior", c + 1.5 * big * np.exp(0.3j)), ("far", c + 1e6j)):
                if curve_mod.sides(grid, [w])[0][0]:
                    continue
                got = sb.double_cauchy_batch(grid, zs, w)
                ratio = worst_ratio(grid, zs, w, got, outside | inside)
                best = min(timeit.repeat(lambda: sb.double_cauchy_batch(grid, zs, w),
                                         number=1, repeat=rounds))
                print(f"{name:10s} {n:4d}  {curve.degree:6d}  {label:8s}  {outside.sum():7d}"
                      f"  {inside.sum():6d}  {zs.size - outside.sum() - inside.sum():6d}"
                      f"  {ratio:11.2e}  {1e3 * best:5.2f}")
    print()
    print(f"one point at n = 1024; best of {rounds} rounds of 200 calls, us")
    print("curve      quadrant  route      us  re_z im_z re_w im_w re_C im_C")
    for name, coeffs, rho in CURVES[:3]:
        grid = sb.sample(sb.build_polynomial_curve(coeffs, rho), 1024)
        c, big, small = grid._node_annulus
        for z in (c + 1.5 * big * np.exp(0.3j), c + 0.3 * small * np.exp(0.4j)):
            for w in (c + 2.5 * big * np.exp(2.1j), c + 0.2 * small * np.exp(1.1j)):
                tv = sb.double_cauchy(grid, z, w)
                outside, inside = curve_mod.clear_rows(grid, [z])
                closed = outside[0] or (inside[0] and grid.curve.degree == 1)
                best = min(timeit.repeat(lambda: sb.double_cauchy(grid, z, w),
                                         number=200, repeat=rounds)) / 200
                print(f"{name:10s} {transforms.quadrant_tag(tv.quadrant):8s}"
                      f"  {'closed' if closed else 'kernel':6s}  {1e6 * best:6.1f}  "
                      + " ".join(f"{x:.17g}" for x in (z.real, z.imag, w.real, w.imag,
                                                       tv.C.real, tv.C.imag)))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
