"""Analytic Jordan curves, contour grids, and point classification.

Curves come in two flavors: images of the unit circle under a univalent
polynomial map (used by every transform and bundle construction), and simple
polygons (used only by the corner quadrature path). Contour grids are uniform
in the circle parameter, which makes the trapezoidal rule spectrally accurate
for the periodic analytic integrands that arise throughout the package.

Every boundary integral against the Cauchy kernel dz/(z - p) goes through one
pass, `kernel_sums`: for a batch of points it gives a distance to the nodes,
the winding number and, given densities, the trapezoidal Cauchy sums.
`locate`, `winding_number` and the Cauchy integral of `transforms` are that
pass for one point. Direct rows, and every one-point call, are real
arithmetic on blocks of squared distances (`distance_blocks`) and give the
exact nearest-node distance. Far rows, well outside or inside the nodes'
annulus about the conformal center, take the exact Laurent or Taylor
expansion of the same sum where that is cheaper, truncated within an eighth
of the bound stated at `kernel_sums`, and report a lower bound on the
distance that clears the exclusion band: the band and side decisions are
those of the direct pass.

The band and side decision lives here alone: `sides` turns a kernel pass
into the points in the exclusion band, the interior points and the sums,
and `off_band` refuses a batch with a point in the band. Every caller that
classifies points goes through them.

All objects are immutable after construction; evaluation functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BadNodeCountError,
    CurveNotSimpleError,
    DegenerateEdgeError,
    DegenerateTangentError,
    NearBoundaryError,
    NoConvergenceError,
    NonPositiveRadiusError,
    NotConformalMapCurveError,
    ParseError,
)

TWO_PI = 2.0 * np.pi

# Evaluation closer to the curve than this many node spacings is refused:
# Cauchy-kernel quadrature degrades there and refusal beats a silent error.
EXCLUSION_SAFETY_FACTOR = 5.0

MIN_NODES = 16
MAX_NODES = 2 ** 16

# Node-point pairs per block of the kernel pass; rows stay contiguous and
# each of a pass's four real buffers stays at a quarter megabyte.
KERNEL_BLOCK = 2 ** 15

# Largest ratio q of a far row (`_far_rows`), the measured optimum: two
# 40 x 40 disk lattices at n = 1024 and a moment ring at n = 4096 took
# 14.7, 14.1, 13.3, 12.6, 13.3 ms at q = 0.6, 0.65, ..., 0.8 (2-core x86_64).
FAR_RATIO = 0.7

EPS = np.finfo(float).eps


class Location(Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    NEAR_BOUNDARY = "near-boundary"


@dataclass(frozen=True)
class ConformalMapCurve:
    """Curve z(t) = phi(e^{it}) for a polynomial phi = a0 + a1 z + ... + an z^n,
    validated to be univalent on the annulus rho <= |zeta| <= 1/rho."""

    coeffs: tuple
    rho: float
    _dcoeffs: tuple = field(init=False, repr=False, compare=False)
    _ccoeffs: tuple = field(init=False, repr=False, compare=False)
    _cdcoeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        dcs = tuple((k + 1) * cs[k + 1] for k in range(len(cs) - 1)) or (0j,)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "_dcoeffs", dcs)
        object.__setattr__(self, "_ccoeffs", tuple(c.conjugate() for c in cs))
        object.__setattr__(self, "_cdcoeffs", tuple(c.conjugate() for c in dcs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def conformal_center(self):
        return self.coeffs[0]

    def phi(self, zeta):
        return npoly.polyval(zeta, self.coeffs)

    def dphi(self, zeta):
        return npoly.polyval(zeta, self._dcoeffs)

    def phi_reflected(self, zeta):
        """conj(phi(1/conj(zeta))), the Schwarz function in pullback form."""
        return npoly.polyval(1.0 / zeta, self._ccoeffs)

    def dphi_reflected(self, zeta):
        """Derivative of the conjugated-coefficient polynomial at 1/zeta."""
        return npoly.polyval(1.0 / zeta, self._cdcoeffs)

    def point(self, t):
        return self.phi(np.exp(1j * np.asarray(t, dtype=float)))

    def velocity(self, t):
        zeta = np.exp(1j * np.asarray(t, dtype=float))
        return 1j * zeta * self.dphi(zeta)


@dataclass(frozen=True)
class PolygonCurve:
    """Simple counterclockwise polygon; only the corner quadrature uses it."""

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(complex(v) for v in self.vertices))

    @property
    def n_vertices(self):
        return len(self.vertices)

    def edge(self, j):
        v = self.vertices
        return v[j % len(v)], v[(j + 1) % len(v)]

    def signed_area(self):
        v = np.asarray(self.vertices)
        w = np.roll(v, -1)
        return 0.5 * np.sum(v.real * w.imag - v.imag * w.real)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Uniform-parameter nodes z = phi(zeta), zeta = radius e^{it} (radius 1
    off the rings of `_ring`), trapezoidal weights and the refusal
    `exclusion_band`."""

    curve: ConformalMapCurve
    n: int
    radius: float
    t: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    weight: float
    exclusion_band: float

    @cached_property
    def _node_parts(self):
        """Re z and Im z of the nodes as contiguous real arrays, formed once
        per grid for the kernel pass."""
        return self.z.real.copy(), self.z.imag.copy()

    @cached_property
    def _node_annulus(self):
        """(c, R, r): the conformal center c and the largest and smallest
        |z_k - c|, formed once per grid for the kernel's far rows."""
        c = self.curve.conformal_center
        gap = np.abs(self.z - c)
        return c, float(gap.max()), float(gap.min())


def build_circle(center, radius, rho=0.5):
    """Circle as the affine map phi(zeta) = center + radius*zeta."""
    center, radius = complex(center), complex(radius)
    if not np.isfinite([center, radius]).all():
        raise ParseError(f"center and radius must be finite, got {center}, {radius}")
    if radius.imag != 0.0 or radius.real <= 0.0:
        raise NonPositiveRadiusError(f"radius must be a positive real, got {radius}")
    return ConformalMapCurve((center, radius.real), float(rho))


def build_polynomial_curve(coeffs, rho, n_check=512):
    """Validate and build the curve phi(unit circle) for polynomial phi.

    Checks phi' nonvanishing on the closed disk of radius 1/rho (via
    polynomial roots) and, at sample resolution, injectivity of the boundary
    image. By the argument principle the tangent i zeta phi'(zeta) then winds
    exactly once, counterclockwise, around the circle.
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ParseError(f"rho must lie in (0, 1), got {rho}")
    cs = tuple(complex(c) for c in coeffs)
    if not np.isfinite(cs).all():
        raise ParseError("map coefficients must be finite")
    if len(cs) < 2 or all(abs(c) == 0.0 for c in cs[1:]):
        raise CurveNotSimpleError("map must have degree at least one")
    curve = ConformalMapCurve(cs, rho)

    dcs = curve._dcoeffs
    # trim high-order coefficients too small to put a root anywhere near the
    # validation disk (they only overflow the companion matrix)
    tiny = max(abs(c) for c in dcs) * 1e-290
    deg = len(dcs)
    while deg > 1 and abs(dcs[deg - 1]) <= tiny:
        deg -= 1
    if deg > 1:
        roots = np.roots(list(reversed(dcs[:deg])))
        if np.any(np.abs(roots) <= (1.0 / rho) * (1.0 + 1e-12)):
            raise CurveNotSimpleError(
                "phi' vanishes inside the validation disk |zeta| <= 1/rho")

    th = TWO_PI * np.arange(n_check) / n_check
    z = curve.point(th)
    adjacent = np.abs(np.roll(z, -1) - z)
    min_adjacent = adjacent.min()
    if _far_pair_gap(z) < 0.5 * min_adjacent:
        raise CurveNotSimpleError("boundary image self-intersects at sample resolution")
    return curve


def _far_pair_gap(z, min_sep=8):
    """Smallest |z[i] - z[j]| over the cyclic pairs at least min_sep apart.

    Row i of the wrapped window holds z[i + k mod n] for k <= n/2, so the
    pairs (i, i + k) with min_sep <= k <= n/2 meet every such pair once or
    twice; |a - b| = |b - a| exactly, so this is the all-pairs minimum.
    """
    half = z.size // 2
    ring = np.concatenate([z, z[:half + 1]])
    window = np.lib.stride_tricks.sliding_window_view(ring, half + 1)[:z.size]
    return np.abs(window[:, min_sep:] - z[:, None]).min()


def build_polygon(vertices):
    """Validate a simple polygon; orientation is normalized counterclockwise."""
    vs = [complex(v) for v in vertices]
    if not np.isfinite(vs).all():
        raise ParseError("polygon vertices must be finite")
    if len(vs) < 3:
        raise CurveNotSimpleError("polygon needs at least 3 vertices")
    scale = max(abs(v) for v in vs) or 1.0
    for j in range(len(vs)):
        if abs(vs[j] - vs[(j + 1) % len(vs)]) < 1e-14 * scale:
            raise DegenerateEdgeError(f"edge {j} has zero length")
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if abs(vs[i] - vs[j]) < 1e-14 * scale:
                raise CurveNotSimpleError("repeated vertices")
    if _polygon_self_intersects(vs):
        raise CurveNotSimpleError("polygon edges cross")
    poly = PolygonCurve(tuple(vs))
    if poly.signed_area() < 0.0:
        poly = PolygonCurve(tuple(reversed(vs)))
    return poly


def _segments_cross(a, b, c, d):
    """Proper intersection test for open segments ab and cd."""
    def orient(p, q, r):
        v = (q - p).conjugate() * (r - p)
        return np.sign(v.imag)

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _polygon_self_intersects(vs):
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = vs[j], vs[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                return True
    return False


def sample(curve, n):
    """Contour grid with n uniform parameter nodes (n a power of two, >= 16)."""
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError(
            "grids are only defined for conformal-map curves")
    n = int(n)
    if n < MIN_NODES or n & (n - 1):
        raise BadNodeCountError(f"node count must be a power of two >= 16, got {n}")
    return _ring(curve, n, 1.0)


def _ring(curve, n, radius):
    """Grid on the image of the pullback ring |zeta| = radius (the curve at 1)."""
    t = TWO_PI * np.arange(n) / n
    zeta = radius * np.exp(1j * t)
    z = curve.phi(zeta)
    dz = 1j * zeta * curve.dphi(zeta)
    band = EXCLUSION_SAFETY_FACTOR * np.abs(np.roll(z, -1) - z).max()
    return ContourGrid(curve=curve, n=n, radius=radius, t=t, zeta=zeta, z=z,
                       dz=dz, weight=TWO_PI / n, exclusion_band=band)


def distance_blocks(grid, points):
    """Yield (rows, dr, di, d2) for blocks of points, one row per point:
    dr + i di = z_k - p over the nodes z_k, and d2 = dr^2 + di^2, all real.

    A block holds about KERNEL_BLOCK node-point pairs. Every block is
    written into the same buffers, which the caller may overwrite and must
    not keep: one allocation per pass, not per block. Each entry is
    formed the same way in any block, so d2 of a point does not depend on
    the batch. Large |z_k - p| may overflow d2 to inf; callers ignore the
    warning.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    rows = max(1, min(pts.size, KERNEL_BLOCK // grid.n))
    zr, zi = grid._node_parts
    dr, di, d2, sq = (np.empty((rows, grid.n)) for _ in range(4))
    for lo in range(0, pts.size, rows):
        p = pts[lo:lo + rows]
        m = p.size
        x, y, dist2, y2 = dr[:m], di[:m], d2[:m], sq[:m]  # views of this block
        np.subtract(zr, p.real[:, None], out=x)
        np.subtract(zi, p.imag[:, None], out=y)
        np.multiply(x, x, out=dist2)
        np.multiply(y, y, out=y2)
        dist2 += y2
        yield slice(lo, lo + m), x, y, dist2


def kernel_sums(grid, points, density=None):
    """One pass of the trapezoidal Cauchy kernel over the nodes.

    Returns (nearest, winding, sums), one entry per point: a distance from
    the point to the nodes (below), the pre-rounding winding number
    (1/2 pi i) * sum w dz/(z - p) and, when a density is given, the Cauchy
    sum (1/2 pi i) * sum w density dz/(z - p) (else None). A density of
    shape (n,) gives sums of shape (points,); one of shape (n, m) holds m
    densities as columns and gives sums of shape (points, m).

    Direct rows are real arithmetic on `distance_blocks`: nearest is the
    distance to the nearest node, sqrt(min d2), the same in any batch;
    1/(z - p) = (dr - i di)/d2, and the winding and sums are real matrix
    products with the parts of g = [dz, density[:, 0] dz, ...].

    Far rows (`_far_rows`) lie outside or inside the annulus R >= |z_k - c|
    >= r of the nodes about c = curve.conformal_center, at q = R/|p - c| or
    |p - c|/r <= FAR_RATIO, and clear the exclusion band by their distance
    to it; they are taken where that is cheaper, never for one point. Their
    sums are the exact expansions cut after M terms: sum g_k/(z_k - p) =
    -sum_j A_j/(p - c)^(j+1), A_j = sum_k g_k (z_k - c)^j, outside, and
    sum_j (p - c)^j B_j, B_j = sum_k g_k/(z_k - c)^(j+1), inside. nearest is
    exact on direct rows; on far rows it is the lower bound |p - c| - R or
    r - |p - c|, less eight ulps, at or above the band, so `sides` decides
    as the direct pass would.

    Bound: a row's winding and sums differ from the same sum for the point
    alone, or taken term by term in complex arithmetic, by at most 8 n eps *
    sum_k |w num_k/(z_k - p)|, num = dz or density dz. Direct rows differ by
    BLAS summation order, which depends on the batch. On far rows the tail
    sum_k |g_k| q^M/((1 - q) rho), rho = |p - c| outside and r inside, is at
    most an eighth of the bound, and the rounding is that of sums of n + 2M
    terms at most (1 + q)/(1 - q) < 5.7 times the direct ones, M < n.

    A point on a node gives NaN; such rows lie inside the exclusion band,
    are computed without warnings and are the caller's to discard.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if density is None:
        cols = grid.dz
    else:
        dens = np.asarray(density)
        cols = np.empty((grid.n, 1 + dens.size // grid.n), dtype=complex)
        cols[:, 0] = grid.dz
        np.multiply(dens.reshape(grid.n, -1), grid.dz[:, None], out=cols[:, 1:])
    parts = cols.view(float).reshape(grid.n, -1)  # Re and Im of each column
    nearest = np.empty(pts.size)
    re_k, im_k = np.empty((2, pts.size, parts.shape[1]))
    with np.errstate(all="ignore"):
        far = _far_rows(grid, pts, parts.shape[1] // 2) if pts.size > 1 else []
        direct = None  # the direct rows: all, or these indices
        if far:
            keep = np.ones(pts.size, dtype=bool)
            keep[np.concatenate([f[0] for f in far])] = False
            direct = np.flatnonzero(keep)
        for rows, dr, di, d2 in distance_blocks(grid, pts if direct is None else pts[direct]):
            if direct is not None:
                rows = direct[rows]
            nearest[rows] = np.sqrt(d2.min(axis=1))
            np.reciprocal(d2, out=d2)
            re_k[rows] = np.multiply(dr, d2, out=dr) @ parts
            im_k[rows] = np.multiply(di, d2, out=di) @ parts
        for rows, bound, terms, outside in far:
            # a row of S = sum g/(z - p) stored as R = S, I = 0 (see below)
            nearest[rows] = bound
            re_k.view(complex)[rows] = _expansion(grid, cols, pts[rows], terms, outside)
            im_k[rows] = 0.0
    # S = sum (dr - i di)/d2 * (a + i b): Re S = dr.a + di.b, Im S = dr.b - di.a;
    # (w/2 pi i) S = (w/2 pi) (Im S - i Re S). Read as complex, a row of re_k
    # holds R = dr.c and one of im_k I = di.c per column c, so S = R - i I
    # and (w/2 pi i) S = (w/2 pi) (-i R - I), the same two real operations.
    scale = grid.weight / TWO_PI
    winding = scale * (re_k[:, 1] - im_k[:, 0])
    if density is None:
        return nearest, winding, None
    sums = scale * (-1j * re_k.view(complex)[:, 1:] - im_k.view(complex)[:, 1:])
    return nearest, winding, sums.reshape(pts.shape + dens.shape[1:])


def _far_rows(grid, pts, columns):
    """[(rows, nearest, terms, outside)] for each side of the nodes'
    annulus whose far rows (q <= FAR_RATIO, nearest clear of the band) are
    cheaper to expand; rows is an index array. M is `_terms` at the side's
    largest q. The cost rule counts node operations: F rows cost F n
    directly and M (n + F columns) expanded, M passes over the nodes for
    the coefficients and F M columns for Horner; it implies M < n.
    Infinite and NaN points stay direct. Call under np.errstate.
    """
    c, big, small = grid._node_annulus
    n, spread = grid.n, big / small
    gap = np.abs(pts - c)
    found = []
    for outside in (True, False):
        # if all rows at the side's least M would not pay, none will (NaN: direct)
        least = big / gap.max() if outside else gap.min() / small
        if not least <= FAR_RATIO:
            continue
        terms = _terms(n, least, outside, spread)
        if pts.size * n <= terms * (n + pts.size * columns):
            continue
        rows = np.flatnonzero((big / gap if outside else gap / small) <= FAR_RATIO)
        d = gap[rows]
        if outside:
            bound = (d - big) - 8 * EPS * (d + big)
        else:
            bound = (small - d) - 8 * EPS * (small + d)
        clear = bound >= grid.exclusion_band  # False for infinite points
        rows, bound, d = rows[clear], bound[clear], d[clear]
        if rows.size:
            terms = _terms(n, big / d.min() if outside else d.max() / small, outside, spread)
            if rows.size * n > terms * (n + rows.size * columns):
                found.append((rows, bound, terms, outside))
    return found


def _terms(n, q, outside, spread):
    """Least M with q^M <= 2 pi n eps (1 - q)/(s + q), s = 1 outside and
    R/r inside: the tail within an eighth of `kernel_sums`' bound, whose
    sum is at least sum |g|/(R + |p - c|); 1 at q = 0."""
    if q <= 0.0:
        return 1
    tail = TWO_PI * n * EPS * (1.0 - q) / ((1.0 if outside else spread) + q)
    return max(1, math.ceil(math.log(tail) / math.log(q)))


def _expansion(grid, cols, p, terms, outside):
    """sum_k g_k/(z_k - p) at far rows p, g the columns of cols, by `terms`
    terms about c, scaled so that every power has modulus at most 1: one
    power vector at a time, a product per coefficient, then Horner."""
    c, big, small = grid._node_annulus
    cols = cols.reshape(grid.n, -1)
    if outside:  # -(1/(p - c)) sum_j A_j/R^j (R/(p - c))^j
        power = np.ones(grid.n, dtype=complex)
        step = (grid.z - c) / big
        x = big / (p - c)
    else:  # sum_j B_j r^j ((p - c)/r)^j
        power = 1.0 / (grid.z - c)
        step = small * power
        x = (p - c) / small
    coeff = np.empty((terms, cols.shape[1]), dtype=complex)
    for j in range(terms):
        np.dot(power, cols, out=coeff[j])
        power *= step
    acc = np.empty((p.size, cols.shape[1]), dtype=complex)
    acc[:] = coeff[-1]
    x = x[:, None]
    for j in range(terms - 2, -1, -1):
        acc *= x
        acc += coeff[j]
    if outside:
        acc *= -1.0 / (p - c)[:, None]
    return acc


def winding_number(grid, z):
    """Pre-rounding winding of the curve around z (trapezoidal quadrature)."""
    return float(kernel_sums(grid, [z])[1][0])


def sides(grid, points, density=None):
    """(near, inside, sums) of the points from one `kernel_sums` pass.

    The one band and side decision of the package: near marks the points
    closer to a node than the exclusion band, inside the points off the band
    that the curve winds around; sums are the pass's Cauchy sums.
    """
    nearest, winding, sums = kernel_sums(grid, points, density)
    near = nearest < grid.exclusion_band
    return near, ~near & (winding > 0.5), sums


def off_band(grid, points, density=None):
    """(inside, sums) of `sides`, refusing the first point in the band."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    near, inside, sums = sides(grid, pts, density)
    if near.any():
        raise band_refusal(grid, complex(pts[near][0]))
    return inside, sums


def locate(grid, z):
    """Classify z as INTERIOR, EXTERIOR or NEAR_BOUNDARY.

    NEAR_BOUNDARY means closer to a grid node than the exclusion band; it is
    a classification, not an error, but evaluating transforms there is refused.
    """
    near, inside, _ = sides(grid, [z])
    if near[0]:
        return Location.NEAR_BOUNDARY
    return Location.INTERIOR if inside[0] else Location.EXTERIOR


def band_refusal(grid, z):
    """The NearBoundaryError for a point z inside the exclusion band."""
    return NearBoundaryError(
        f"{z} is within the exclusion band ({grid.exclusion_band:.3g})")


def require_off_band(grid, z):
    """locate(grid, z), refusing a point inside the exclusion band."""
    side = locate(grid, z)
    if side is Location.NEAR_BOUNDARY:
        raise band_refusal(grid, z)
    return side


def unit_tangent(curve, t):
    """T(z(t)) = z'(t)/|z'(t)|; satisfies S'(z) = 1/T(z)^2 on the curve."""
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError("polygons have edge tangents only")
    v = curve.velocity(t)
    mag = np.abs(v)
    if np.any(mag == 0.0):
        raise DegenerateTangentError("velocity vanished")
    return v / mag


def adaptive_refine(curve, functional, tol, n_start=MIN_NODES, n_max=MAX_NODES):
    """Double the node count until the functional moves less than tol.

    Returns the grid at the smallest n with |functional(n) - functional(2n)|
    below tol. Near-boundary refusals are retried at finer grids (the band
    shrinks with n) and re-raised only if they persist to the budget.
    """
    if not tol > 0.0:
        raise ParseError(f"tolerance must be positive, got {tol}")
    n = int(n_start)
    if n < MIN_NODES or n & (n - 1):
        raise BadNodeCountError(f"start count must be a power of two >= 16, got {n}")

    last_near = None
    prev_grid = sample(curve, n)
    try:
        prev_val = complex(functional(prev_grid))
    except NearBoundaryError as exc:
        prev_val, last_near = None, exc
    while 2 * n <= n_max:
        next_grid = sample(curve, 2 * n)
        try:
            next_val = complex(functional(next_grid))
        except NearBoundaryError as exc:
            next_val, last_near = None, exc
        if prev_val is not None and next_val is not None \
                and abs(prev_val - next_val) < tol:
            return prev_grid
        n *= 2
        prev_grid, prev_val = next_grid, next_val
    if last_near is not None:
        raise last_near
    raise NoConvergenceError(f"no convergence up to n = {n_max}")


# JSON curve schema shared with the command line tool

def curve_to_json(curve):
    if isinstance(curve, ConformalMapCurve):
        return {"kind": "conformal",
                "coeffs": [[c.real, c.imag] for c in curve.coeffs],
                "rho": curve.rho}
    if isinstance(curve, PolygonCurve):
        return {"kind": "polygon",
                "vertices": [[v.real, v.imag] for v in curve.vertices]}
    raise ParseError(f"unknown curve type {type(curve)!r}")


def curve_from_json(data):
    """Build a validated curve from the JSON schema.

    {"kind": "conformal", "coeffs": [[re, im], ...], "rho": r}
    {"kind": "polygon", "vertices": [[re, im], ...]}
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("curve spec must be an object with a 'kind' field")
    try:
        if data["kind"] == "conformal":
            coeffs = [complex(re, im) for re, im in data["coeffs"]]
            return build_polynomial_curve(coeffs, float(data["rho"]))
        if data["kind"] == "polygon":
            return build_polygon([complex(re, im) for re, im in data["vertices"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed curve spec: {exc}") from exc
    raise ParseError(f"unknown curve kind {data['kind']!r}")
