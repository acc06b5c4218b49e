"""Independent slow oracles used to freeze expected values.

These deliberately avoid the package's contour machinery: plain midpoint
summation over the region, central finite differences, and one-point
trapezoidal sums and loops written out the way the package evaluated them
before its blocked kernel pass, so that batched results can be compared
with them bit for bit.
"""

import cmath
import math

import numpy as np


def central_difference(fn, z, h=1e-6):
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def area_integral_pullback(curve, integrand, n=400):
    """integral over the domain of integrand(z) dA via midpoint summation on
    an n x n polar decomposition of the pullback disk (exact geometry)."""
    r = (np.arange(n) + 0.5) / n
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    zeta = r[:, None] * np.exp(1j * th[None, :])
    z = curve.phi(zeta)
    jac = np.abs(curve.dphi(zeta)) ** 2
    cell = (1.0 / n) * (2.0 * np.pi / n)
    return complex(np.sum(integrand(z) * jac * r[:, None]) * cell)


def double_cauchy_area_oracle(curve, z, w, n=400):
    """C(z, w) as the plain area integral -(1/pi) * integral of
    dA / ((zeta - z)(conj zeta - conj w))."""
    def integrand(pts):
        return 1.0 / ((pts - z) * (np.conjugate(pts) - np.conjugate(w)))

    return -area_integral_pullback(curve, integrand, n) / np.pi


def polygon_area_integral(polygon, integrand, n=400):
    """Midpoint box rule over the polygon's bounding box."""
    verts = np.asarray(polygon.vertices)
    x0, x1 = verts.real.min(), verts.real.max()
    y0, y1 = verts.imag.min(), verts.imag.max()
    xs = x0 + (x1 - x0) * (np.arange(n) + 0.5) / n
    ys = y0 + (y1 - y0) * (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, ys)
    pts = gx + 1j * gy
    px, py = verts.real, verts.imag
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    inside = np.zeros(gx.shape, dtype=bool)
    for ax, ay, bx, by in zip(px, py, qx, qy):
        cond = (ay > gy) != (by > gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = ax + (gy - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (gx < xcross)
    cell = (x1 - x0) * (y1 - y0) / n ** 2
    return complex(np.sum(integrand(pts[inside])) * cell)


# one-point trapezoidal kernel sums and the loops built on them

def trapezoid_cauchy(grid, density, z):
    """(1/2 pi i) * sum of weight * density * dz / (z_j - z) at one point."""
    return complex((grid.weight / (2j * np.pi))
                   * np.sum(np.asarray(density) * grid.dz / (grid.z - z)))


def trapezoid_winding(grid, z):
    return float(((grid.weight / (2j * np.pi)) * np.sum(grid.dz / (grid.z - z))).real)


def nearest_node_distance(grid, z):
    return np.abs(grid.z - z).min()


def _side(grid, z):
    if nearest_node_distance(grid, z) < grid.exclusion_band:
        return None
    return "int" if trapezoid_winding(grid, z) > 0.5 else "ext"


def double_cauchy_one_point(grid, z, w):
    """C(z, w) quadrant by quadrant from one-point sums; None where refused
    (either argument in the exclusion band, or coincident interior points)."""
    z, w = complex(z), complex(w)
    z_side, w_side = _side(grid, z), _side(grid, w)
    if z_side is None or w_side is None:
        return None
    if z_side == w_side == "int" and abs(z - w) <= 1e-12 * (1.0 + abs(z)):
        return None
    if z_side == "int" and w_side == "ext":
        dens = np.log(np.abs(grid.z - z) ** 2)
        return np.conjugate(-trapezoid_cauchy(grid, dens, w))
    if w_side == "ext":
        # the continuous log of conj(zeta) - conj(w), anchored at node 0
        v = np.conjugate(grid.z) - np.conjugate(w)
        steps = np.angle(np.roll(v, -1) / v)
        phases = np.angle(v[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
        dens = np.log(np.abs(v)) + 1j * phases
    else:
        dens = np.log(np.abs(grid.z - w) ** 2)
    c = -trapezoid_cauchy(grid, dens, z)
    if z_side == "int":
        c = c + math.log(abs(z - w) ** 2)
    return c


def exterior_f_matrix(grid, zs):
    """F(zs[s], zs[u]) = exp C(zs[s], zs[u]), one sample pair at a time."""
    return np.array([[cmath.exp(double_cauchy_one_point(grid, zi, wj)) for wj in zs]
                     for zi in zs])


def moment_expansion_loop(grid, k_max, n_fft=256):
    """max_k |coeff_k + M_k| with the ring's band test as one distance matrix
    and its Cauchy integrals one point at a time."""
    n_fft = max(int(n_fft), 4 * (k_max + 2))
    radius = 2.0 * np.abs(grid.z).max()
    ring = radius * np.exp(1j * 2.0 * np.pi * np.arange(n_fft) / n_fft)
    if np.abs(ring[:, None] - grid.z[None, :]).min() < grid.exclusion_band:
        return None
    vals = np.array([trapezoid_cauchy(grid, np.conjugate(grid.z), p) for p in ring])
    coeff = np.fft.ifft(vals)
    pref = grid.weight / (2j * np.pi)
    zbar_dz = np.conjugate(grid.z) * grid.dz
    residual = 0.0
    for k in range(k_max + 1):
        moment = complex(pref * np.sum(grid.z ** k * zbar_dz))
        residual = max(residual, abs(coeff[k + 1] * radius ** (k + 1) + moment))
    return residual


def far_pair_gap_all_pairs(z, min_sep=8):
    """Smallest |z[i] - z[j]| over cyclic separations >= min_sep, from the
    full n x n distance matrix."""
    n = z.size
    diff = np.abs(z[:, None] - z[None, :])
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    sep = np.minimum(sep, n - sep)
    return diff[sep >= min_sep].min()


def verification_points_full_pass(grid, n_points=32, spacings=6.0):
    """The verification-point search with the full distance pass at every
    pullback radius 1 - s, s = spacings * 2 pi / n * 1.3^k; None where the
    radius leaves the validated annulus before every point clears the band."""
    curve = grid.curve
    half = max(1, int(n_points) // 2)
    base = np.exp(1j * 2.0 * np.pi * (np.arange(half) + 0.37) / half)
    s = spacings * (2.0 * np.pi / grid.n)
    while True:
        r = 1.0 - s
        if r <= curve.rho * 1.02 or 1.0 / r >= (1.0 / curve.rho) * 0.98:
            return None
        pts = np.concatenate([curve.phi(r * base), curve.phi((1.0 / r) * base)])
        gap = np.abs(grid.z[None, :] - pts[:, None]).min(axis=1)
        if not np.any(gap < grid.exclusion_band):
            return pts
        s *= 1.3
