"""Independent slow oracles used to freeze expected values.

These deliberately avoid the package's contour machinery: plain midpoint
summation over the region, central finite differences, and one-point
trapezoidal sums and loops written out the way the package evaluated them
before its blocked kernel pass. Batched Cauchy sums are compared with them
within the stated bound `kernel_row_bound`; index and assembly work (the
fit's dense least-squares systems) bit for bit. The radial tangent tracker
(`pullback_tangent_loop`) is the reference for the closed-form tangent. The
rational fit's dense least squares over all sample pairs (`dense_fit`) is
the reference for the package's block-eliminated and Kronecker solves, and
the conjugate-swap route (`double_cauchy_conjugate_swap`), which needs no
branch of a complex log in the mixed quadrant, is the reference for the
package's C(z, w) from the Schwarz-pole section. The scalar polygon loops
(`polygon_refusal`) are the reference for the blocked validation pass.
"""

import cmath
import math

import numpy as np

from schwarzbundles.errors import CurveNotSimpleError, DegenerateEdgeError, ParseError


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
    """C(z, w) quadrant by quadrant from one-point sums of w's Schwarz-pole
    density; None where refused (either argument in the exclusion band, or
    coincident interior points). Interior z adds log|z - w|^2 at interior w
    and, at exterior w, the conjugate of the sum of -conj(density)."""
    z, w = complex(z), complex(w)
    z_side, w_side = _side(grid, z), _side(grid, w)
    if z_side is None or w_side is None:
        return None
    if z_side == w_side == "int" and abs(z - w) <= 1e-12 * (1.0 + abs(z)):
        return None
    dens = _pole_density(grid, w, w_side)
    c = trapezoid_cauchy(grid, dens, z)
    if z_side == "int" and w_side == "int":
        c = c + math.log(abs(z - w) ** 2)
    elif z_side == "int":
        c = c + np.conjugate(trapezoid_cauchy(grid, -np.conjugate(dens), z))
    return c


def _unwrap(v):
    """The continuous log of a cyclic sequence, anchored at node 0."""
    steps = np.angle(np.roll(v, -1) / v)
    phases = np.angle(v[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    return np.log(np.abs(v)) + 1j * phases


def _pole_density(grid, w, w_side):
    """The continuous log of 1/(S - conj w) at the nodes, divided by
    (z_k - w) for interior w."""
    v = schwarz_pole_at(grid.curve, w, grid.zeta)
    if w_side == "int":
        v = v * (grid.z - w) ** (-1)
    return _unwrap(v)


def double_cauchy_conjugate_swap(grid, z, w):
    """C(z, w) by the independent reference route, from one-point sums;
    None where refused. Exterior w sums -log(conj zeta - conj w), interior
    w -log|zeta - w|^2, at z, and interior z adds log|z - w|^2; the mixed
    quadrant (z interior, w exterior) is the conjugate-swapped real-density
    sum conj(-sum of log|zeta - z|^2 at w), with no branch to choose."""
    z, w = complex(z), complex(w)
    z_side, w_side = _side(grid, z), _side(grid, w)
    if z_side is None or w_side is None:
        return None
    if z_side == w_side == "int" and abs(z - w) <= 1e-12 * (1.0 + abs(z)):
        return None
    if z_side == "int" and w_side == "ext":
        dens = np.log(np.abs(grid.z - z) ** 2)
        return np.conjugate(-trapezoid_cauchy(grid, dens, w))
    c = -trapezoid_cauchy(grid, _swap_density(grid, w, w_side), z)
    if z_side == "int":
        c = c + math.log(abs(z - w) ** 2)
    return c


def _swap_density(grid, w, w_side):
    if w_side == "ext":
        return _unwrap(np.conjugate(grid.z) - np.conjugate(w))
    return np.log(np.abs(grid.z - w) ** 2)


EPS = np.finfo(float).eps


def same_bits(a, b):
    """Same shape and the same bytes, b taken in a's dtype."""
    a, b = np.asarray(a), np.asarray(b, dtype=np.asarray(a).dtype)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_row_bound(grid, num, p):
    """8 n eps * sum_k |w num_k/(z_k - p)|: the bound curve.kernel_sums states
    for one row's BLAS sum against its one-point sum (num = dz for the
    winding, density * dz for the Cauchy sum)."""
    with np.errstate(all="ignore"):
        terms = np.abs(grid.weight * np.asarray(num) / (grid.z - p))
    return 8 * grid.n * EPS * float(np.sum(terms))


def double_cauchy_bound(grid, z, w, value):
    """Bound on |C - double_cauchy_one_point(grid, z, w)| at a pair where
    neither refuses: kernel_row_bound of each sum that carries C, plus
    2 eps |C| for the closed correction or the conjugate added at interior z."""
    z, w = complex(z), complex(w)
    z_side, w_side = _side(grid, z), _side(grid, w)
    sums = 2 if z_side == "int" and w_side == "ext" else 1
    num = _pole_density(grid, w, w_side) * grid.dz
    return sums * kernel_row_bound(grid, num, z) + 2 * EPS * abs(value)


def conjugate_swap_bound(grid, z, w, value):
    """The same bound for `double_cauchy_conjugate_swap`. In the mixed
    quadrant z's density log|z_k - z|^2, taken from the squared distance,
    differs from the one-point log by a few eps absolute, hence the + 1."""
    z, w = complex(z), complex(w)
    z_side, w_side = _side(grid, z), _side(grid, w)
    if z_side == "int" and w_side == "ext":
        dens = np.abs(np.log(np.abs(grid.z - z) ** 2)) + 1.0
        return kernel_row_bound(grid, dens * grid.dz, w)
    dens = _swap_density(grid, w, w_side)
    return kernel_row_bound(grid, dens * grid.dz, z) + 2 * EPS * abs(value)


def exterior_f_matrix(grid, zs):
    """F(zs[s], zs[u]) = exp C(zs[s], zs[u]), one sample pair at a time."""
    return np.array([[cmath.exp(double_cauchy_one_point(grid, zi, wj)) for wj in zs]
                     for zi in zs])


def exact_moment(coeffs, k):
    """M_k, k >= 0, of the image of the unit circle under the polynomial
    phi with these coefficients: the coefficient sum conj(a_j) [zeta^(j-1)]
    phi^k phi', exact polynomial algebra."""
    a = np.asarray(coeffs, dtype=complex)
    prod = np.polynomial.polynomial.polymul(np.polynomial.polynomial.polypow(a, k),
                                            np.polynomial.polynomial.polyder(a))
    return complex(sum(np.conj(a[j]) * prod[j - 1]
                       for j in range(1, len(a)) if j - 1 < len(prod)))


def moment_expansion_loop(grid, k_max, n_fft=256):
    """max_k |coeff_k + M_k| with the ring's band test as one distance matrix,
    its Cauchy integrals one point at a time and M_k by `exact_moment`."""
    n_fft = max(int(n_fft), 4 * (k_max + 2))
    radius = 2.0 * np.abs(grid.z).max()
    ring = radius * np.exp(1j * 2.0 * np.pi * np.arange(n_fft) / n_fft)
    if np.abs(ring[:, None] - grid.z[None, :]).min() < grid.exclusion_band:
        return None
    vals = np.array([trapezoid_cauchy(grid, np.conjugate(grid.z), p) for p in ring])
    coeff = np.fft.ifft(vals)
    residual = 0.0
    for k in range(k_max + 1):
        moment = exact_moment(grid.curve.coeffs, k)
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


def polygon_refusal(vertices):
    """(error class, message) of the first refusal of the scalar polygon
    validation the package ran before its blocked pair pass, or None for a
    valid polygon: an edge loop, a double loop over the vertex pairs and a
    double loop over the non-adjacent edge pairs with a scalar crossing test."""
    vs = [complex(v) for v in vertices]
    if not np.isfinite(vs).all():
        return ParseError, "polygon vertices must be finite"
    n = len(vs)
    if n < 3:
        return CurveNotSimpleError, "polygon needs at least 3 vertices"
    extent = max(math.hypot(v.real, v.imag) for v in vs)
    if not extent * extent < math.inf:
        return ParseError, f"curve extent {extent:.3g} overflows when squared"

    def zero(length):
        return length < 1e-14 * (extent or 1.0)

    for j in range(n):
        if zero(abs(vs[j] - vs[(j + 1) % n])):
            return DegenerateEdgeError, f"edge {j} has zero length"
    for i in range(n):
        for j in range(i + 1, n):
            if zero(abs(vs[i] - vs[j])):
                return CurveNotSimpleError, "repeated vertices"

    def orient(p, q, r):
        return np.sign(((q - p).conjugate() * (r - p)).imag)

    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            c, d = vs[j], vs[(j + 1) % n]
            o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
            if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
                return CurveNotSimpleError, "polygon edges cross"
    return None


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


# the rational fit's dense least squares: both stages as full systems over
# all sample pairs, solved by numpy's lstsq

def _scalar_product(a, b):
    """a * b for complex arrays as (ac - bd) + i(ad + bc) in real arithmetic,
    the rounding of numpy's complex scalar product; its vectorised complex
    loops may round differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def denominator_system(zs, fmat, deg_q, deg_p):
    """Stage one: row s * n_s + u holds zs[s]^j, j <= deg_q, in column block
    u (the numerator of slice u) and -F zs[s]^j, j < deg_p, in the shared P
    columns; the right-hand side is F zs[s]^deg_p, F = fmat[s, u]."""
    n_s, n_num = zs.size, deg_q + 1
    zpow = zs[:, None] ** np.arange(max(deg_q, deg_p) + 1)[None, :]
    amat = np.zeros((n_s, n_s, n_s * n_num + deg_p), dtype=complex)
    blocks = np.arange(n_s)[:, None]
    amat[:, blocks, blocks * n_num + np.arange(n_num)] = zpow[:, None, :n_num]
    amat[:, :, n_s * n_num:] = -fmat[:, :, None] * zpow[:, None, :deg_p]
    rhs = _scalar_product(fmat, zpow[:, deg_p, None])
    return amat.reshape(n_s * n_s, -1), rhs.ravel()


def numerator_system(zs, fmat, deg_q, p_coeffs):
    """Stage two: row s * n_s + u holds zs[s]^j conj(zs[u])^k and the
    right-hand side F P(zs[s]) conj(P(zs[u])), F = fmat[s, u]."""
    n_s, n_num = zs.size, deg_q + 1
    zpow = zs[:, None] ** np.arange(n_num)[None, :]
    wpow = np.conjugate(zs)[:, None] ** np.arange(n_num)[None, :]
    a2 = zpow[:, None, :, None] * wpow[None, :, None, :]
    pvals = np.polynomial.polynomial.polyval(zs, p_coeffs)
    b2 = _scalar_product(_scalar_product(fmat, pvals[:, None]),
                         np.conjugate(pvals)[None, :])
    return a2.reshape(n_s * n_s, n_num * n_num), b2.ravel()


def dense_fit(zs, fmat, deg_q, deg_p):
    """(q_coeffs, p_coeffs, residual) of both stages solved densely by
    lstsq, or the RankDeficientError text where a stage is rank deficient."""
    n_s = zs.size
    ncols = n_s * (deg_q + 1) + deg_p
    amat, rhs = denominator_system(zs, fmat, deg_q, deg_p)
    sol, _, rank, _ = np.linalg.lstsq(amat, rhs, rcond=None)
    if rank < ncols:
        return f"denominator stage rank {rank} < {ncols}"
    p_coeffs = np.concatenate([sol[n_s * (deg_q + 1):], [1.0 + 0j]])

    a2, b2 = numerator_system(zs, fmat, deg_q, p_coeffs)
    qsol, _, rank2, _ = np.linalg.lstsq(a2, b2, rcond=None)
    if rank2 < (deg_q + 1) ** 2:
        return f"numerator stage rank {rank2} < {(deg_q + 1) ** 2}"
    q_coeffs = qsol.reshape(deg_q + 1, deg_q + 1)
    q_coeffs = 0.5 * (q_coeffs + q_coeffs.conj().T)
    resid = np.linalg.norm(a2 @ q_coeffs.ravel() - b2) / max(np.linalg.norm(b2), 1e-300)
    return q_coeffs, p_coeffs, float(resid)


# the rational fit's least-squares systems, assembled one sample pair at a time

def denominator_system_loop(zs, fmat, deg_q, deg_p):
    n_s = zs.size
    n_num = deg_q + 1
    ncols = n_s * n_num + deg_p
    rows = n_s * n_s
    amat = np.zeros((rows, ncols), dtype=complex)
    rhs = np.zeros(rows, dtype=complex)
    zpow = zs[:, None] ** np.arange(max(deg_q, deg_p) + 1)[None, :]
    for s in range(n_s):
        for u in range(n_s):
            r = s * n_s + u
            amat[r, u * n_num:(u + 1) * n_num] = zpow[s, :n_num]
            if deg_p:
                amat[r, n_s * n_num:] = -fmat[s, u] * zpow[s, :deg_p]
            rhs[r] = fmat[s, u] * zs[s] ** deg_p
    return amat, rhs


def numerator_system_loop(zs, fmat, deg_q, p_coeffs):
    n_s = zs.size
    n_num = deg_q + 1
    rows = n_s * n_s
    zpow = zs[:, None] ** np.arange(n_num)[None, :]
    pvals = np.polynomial.polynomial.polyval(zs, p_coeffs)
    a2 = np.zeros((rows, n_num ** 2), dtype=complex)
    b2 = np.zeros(rows, dtype=complex)
    wpow = np.conjugate(zs)[:, None] ** np.arange(n_num)[None, :]
    for s in range(n_s):
        for u in range(n_s):
            r = s * n_s + u
            a2[r] = np.outer(zpow[s, :n_num], wpow[u]).ravel()
            b2[r] = fmat[s, u] * pvals[s] * np.conjugate(pvals[u])
    return a2, b2


def pullback_tangent_loop(curve, zeta, steps=8):
    """The holomorphic unit tangent by radial tracking in `steps` steps from
    the circle, one radius at a time."""
    zeta = np.asarray(zeta, dtype=complex)
    r, base = np.abs(zeta), zeta / np.abs(zeta)
    root = 1.0
    for k in range(steps + 1):
        zz = base * (1.0 + (r - 1.0) * k / steps)
        cand = np.sqrt(curve.dphi(zz) * curve.dphi_reflected(zz))
        root = np.where(np.abs(cand - root) > np.abs(cand + root), -cand, cand)
    return 1j * zeta * curve.dphi(zeta) / root


# closed forms of the built-in transitions lambda12 at pullback points zeta

def exp_schwarz_at(curve, zeta):
    return np.exp(curve.phi_reflected(zeta))


def schwarz_pole_at(curve, w, zeta):
    return 1.0 / (curve.phi_reflected(zeta) - np.conjugate(complex(w)))


def tangent_power_at(curve, m, zeta):
    return pullback_tangent_loop(curve, zeta) ** (-int(m))
