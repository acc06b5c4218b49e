"""Analytic Jordan curves, contour grids, and point classification.

Curves come in two flavors: images of the unit circle under a univalent
polynomial map (used by every transform and bundle construction), and simple
polygons (used only by the corner quadrature path). Contour grids are uniform
in the circle parameter, which makes the trapezoidal rule spectrally accurate
for the periodic analytic integrands that arise throughout the package.

Every boundary integral against the Cauchy kernel dz/(z - p) goes through one
blocked pass, `kernel_sums`: for a batch of points it gives the distance to
the nearest node, the winding number and, given a density or several as
columns, the trapezoidal Cauchy sums. `locate`, `winding_number` and the
Cauchy integral of `transforms` are that pass for a batch of one point.
The pass is real arithmetic on one block of squared distances
(`distance_blocks`), which gives the band test, the reciprocal of z - p
and, by real matrix products, the sums. Distances are the same for a
point in any batch; the sums are BLAS sums whose rounding depends on the
batch, within the bound stated at `kernel_sums`.

All objects are immutable after construction; evaluation functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import json
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


def _cyclic_winding(values):
    """Winding number of a cyclic sequence of nonzero complex values."""
    v = np.asarray(values)
    steps = np.angle(np.roll(v, -1) / v)
    return float(steps.sum() / TWO_PI)


def build_circle(center, radius, rho=0.5):
    """Circle as the affine map phi(zeta) = center + radius*zeta."""
    radius = complex(radius)
    if radius.imag != 0.0 or radius.real <= 0.0:
        raise NonPositiveRadiusError(f"radius must be a positive real, got {radius}")
    return ConformalMapCurve((complex(center), radius.real), float(rho))


def build_polynomial_curve(coeffs, rho, n_check=512):
    """Validate and build the curve phi(unit circle) for polynomial phi.

    Checks, at sample resolution: phi' nonvanishing on the closed disk of
    radius 1/rho (via polynomial roots, which also forces counterclockwise
    tangent winding +1), and injectivity of the boundary image.
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ParseError(f"rho must lie in (0, 1), got {rho}")
    cs = tuple(complex(c) for c in coeffs)
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

    winding = _cyclic_winding(curve.velocity(th))
    if round(winding) != 1:
        raise CurveNotSimpleError(
            f"tangent winding {winding:.3f}, expected +1 (counterclockwise)")
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
        np.subtract(zr, p.real[:, None], out=dr[:m])
        np.subtract(zi, p.imag[:, None], out=di[:m])
        np.multiply(dr[:m], dr[:m], out=d2[:m])
        np.multiply(di[:m], di[:m], out=sq[:m])
        d2[:m] += sq[:m]
        yield slice(lo, lo + m), dr[:m], di[:m], d2[:m]


def kernel_sums(grid, points, density=None):
    """One blocked pass of the trapezoidal Cauchy kernel over the nodes.

    Returns (nearest, winding, sums), one entry per point: the distance from
    the point to the nearest node, the pre-rounding winding number
    (1/2 pi i) * sum w dz/(z - p) and, when a density is given, the Cauchy
    sum (1/2 pi i) * sum w density dz/(z - p) (else None). A density of
    shape (n,) gives sums of shape (points,); one of shape (n, m) holds m
    densities as columns and gives sums of shape (points, m).

    The pass is real arithmetic on `distance_blocks`: nearest is sqrt(min
    d2), and 1/(z - p) = (dr - i di)/d2 takes one reciprocal of d2; the
    winding and the sums are real matrix products of dr/d2 and di/d2 with
    the real and imaginary parts of [dz, density[:, 0] dz, ...]. `nearest`
    of a point is the same in any batch. The products are BLAS sums, whose
    order depends on the batch and the number of columns: a row's winding
    and sum differ from the same sum for the point alone, or taken term by
    term in complex arithmetic, by at most 8 n eps * sum_k |w num_k/(z_k -
    p)|, num = dz or density dz. A point on a node gives NaN; such rows lie
    inside the exclusion band, are computed without warnings and are the
    caller's to discard.
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
        for rows, dr, di, d2 in distance_blocks(grid, pts):
            nearest[rows] = np.sqrt(d2.min(axis=1))
            np.reciprocal(d2, out=d2)
            re_k[rows] = np.multiply(dr, d2, out=dr) @ parts
            im_k[rows] = np.multiply(di, d2, out=di) @ parts
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


def winding_number(grid, z):
    """Pre-rounding winding of the curve around z (trapezoidal quadrature)."""
    return float(kernel_sums(grid, [z])[1][0])


def locate(grid, z):
    """Classify z as INTERIOR, EXTERIOR or NEAR_BOUNDARY.

    NEAR_BOUNDARY means closer to a grid node than the exclusion band; it is
    a classification, not an error, but evaluating transforms there is refused.
    """
    nearest, winding, _ = kernel_sums(grid, [z])
    if nearest[0] < grid.exclusion_band:
        return Location.NEAR_BOUNDARY
    return Location.INTERIOR if winding[0] > 0.5 else Location.EXTERIOR


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
        raise ValueError("tol must be positive")
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
        except json.JSONDecodeError as exc:
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
