"""Audit of the kernel pass's far rows, those that leave the direct pass
for the pullback route (outside the nodes' annulus, and inside it on a map
of degree 1): for each curve, node count and density, on a 40 x 40 lattice
and 150 points inside the nodes' annulus, the share of far rows in the
batch and the worst distance of a row's sums from the term-by-term complex
sum, as a ratio to the bound `kernel_sums` states (8 n eps sum_k |w num_k /
(z_k - p)|), over far rows and over direct rows; then the share of far
rows in four batches the library's verbs pass to the kernel.

Usage: python scripts/far_field_audit.py
"""

import numpy as np

import schwarzbundles as sb
from schwarzbundles import curve as curve_mod
from schwarzbundles import quaddom

CURVES = [("disk", [0, 1], 0.5), ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72)]
EPS = np.finfo(float).eps


def far_mask(grid, pts, density):
    mask = np.zeros(pts.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _, rows, *_ in curve_mod._routes(grid, pts, *curve_mod._columns(grid, density)):
            mask[rows] = True
    return mask


def term_sums(grid, num, pts, block=64):
    """(1/2 pi i) sum_k w num_k/(z_k - p) term by term in complex
    arithmetic, and the stated bound 8 n eps sum_k |w num_k/(z_k - p)|."""
    sums, bounds = np.empty(pts.size, dtype=complex), np.empty(pts.size)
    for lo in range(0, pts.size, block):
        terms = grid.weight * num / (grid.z[None, :] - pts[lo:lo + block, None])
        sums[lo:lo + block] = terms.sum(axis=1) / (2j * np.pi)
        bounds[lo:lo + block] = 8 * grid.n * EPS * np.abs(terms).sum(axis=1)
    return sums, bounds


def audit_points(grid, rng):
    """A 40 x 40 lattice over c + [-2R, 2R]^2 and 150 points inside the
    nodes' annulus about c, off the nodes."""
    c, big, small = grid._node_annulus
    xs = np.linspace(-2.0 * big, 2.0 * big, 40)
    lattice = (c + xs[None, :] + 1j * xs[:, None]).ravel()
    inside = c + small * rng.uniform(0.0, 0.65, 150) * np.exp(2j * np.pi * rng.uniform(size=150))
    pts = np.concatenate([lattice, inside])
    return pts[np.abs(grid.z[None, :] - pts[:, None]).min(axis=1) > 0.0]


def densities(grid, rng):
    return [("conj z^2", np.conjugate(grid.z) ** 2),
            ("log|z - a|^2", np.log(np.abs(grid.z - (0.3 + 0.1j)) ** 2)),
            ("normal", rng.normal(size=grid.n))]


def main():
    rng = np.random.default_rng(2024)
    print("curve     n     density        rows  far    far/bound  direct/bound")
    worst = 0.0
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        for n in (256, 1024, 4096):
            grid = sb.sample(curve, n)
            pts = audit_points(grid, rng)
            for label, dens in densities(grid, rng):
                _, winding, sums = sb.kernel_sums(grid, pts, dens)
                far = far_mask(grid, pts, dens)
                ratio = np.zeros(pts.size)
                for num, got in ((grid.dz, winding), (dens * grid.dz, sums)):
                    want, bound = term_sums(grid, num, pts)
                    if got is winding:
                        want = want.real
                    ratio = np.maximum(ratio, np.abs(got - want) / bound)
                far_worst = ratio[far].max() if far.any() else 0.0
                worst = max(worst, far_worst)
                print(f"{name:9s} {n:<5d} {label:13s} {pts.size:5d}  {far.mean():4.2f}"
                      f"   {far_worst:9.2e}  {ratio[~far].max():11.2e}")
    print(f"\nworst far row: {worst:.2e} of the stated bound")

    print("\nbatch                                   rows  columns  far")
    disk = sb.sample(sb.build_circle(0.0, 1.0), 1024)
    cardioid = sb.build_polynomial_curve([0, 1, 0.3], 0.7)
    quartic = sb.sample(sb.build_polynomial_curve(*CURVES[2][1:]), 512)
    xs = np.linspace(-2.0, 2.0, 40)
    ring_grid = sb.sample(cardioid, 4096)
    ring = 2.0 * np.abs(ring_grid.z).max() * np.exp(2j * np.pi * np.arange(256) / 256)
    samples = sb.default_exterior_samples(quartic, 24)
    section_grid = sb.sample(cardioid, 1024)
    batches = [
        ("plotdata lattice, disk n=1024", disk, (xs[None, :] + 1j * xs[:, None]).ravel(),
         np.log(np.conjugate(disk.z) - 2.5)),
        ("moment check ring, cardioid n=4096", ring_grid, ring, np.conjugate(ring_grid.z)),
        ("fit samples, quartic n=512", quartic, samples,
         quaddom._pole_density(quartic, samples, False)),
        ("verification points, cardioid n=1024", section_grid,
         sb.annulus_verification_points(section_grid, 32), np.conjugate(section_grid.z)),
    ]
    for label, grid, pts, density in batches:
        columns = 1 + density.size // grid.n
        share = far_mask(grid, pts, density).mean()
        print(f"{label:38s} {pts.size:5d}  {columns:7d}  {share:4.2f}")


if __name__ == "__main__":
    main()
