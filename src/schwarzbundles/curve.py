"""Analytic Jordan curves, contour grids, and point classification.

Curves come in two flavors: images of the unit circle under a univalent
polynomial map (used by every transform and bundle construction), and simple
polygons (used only by the corner quadrature path). Contour grids are uniform
in the circle parameter, which makes the trapezoidal rule spectrally accurate
for the periodic analytic integrands that arise throughout the package.

Every boundary integral against the Cauchy kernel dz/(z - p) goes through one
blocked pass, `kernel_sums`: for a batch of points it gives the distance to
the nearest node, the winding number and, given a density, the trapezoidal
Cauchy sum. `locate`, `winding_number` and the Cauchy integral of
`transforms` are that pass for a batch of one point.

All objects are immutable after construction; evaluation functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

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

# Node-point pairs per block of the kernel pass; rows stay contiguous and a
# block's complex temporaries stay around half a megabyte.
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


def kernel_sums(grid, points, density=None):
    """One blocked pass of the trapezoidal Cauchy kernel over the nodes.

    Returns (nearest, winding, sums), one entry per row: the distance from
    the row's point to the nearest node, the pre-rounding winding number
    (1/2 pi i) * sum w dz/(z - p) and, when a density is given, the Cauchy
    sum (1/2 pi i) * sum w density dz/(z - p) (else None). `density` is one
    row shared by all points, one row per point, or many rows at a single
    point. Each row is summed like the one-point sum, so a batch gives the
    same bits as its rows one by one. A point on a node divides by zero; such
    rows lie inside the exclusion band, are computed without warnings and
    are the caller's to discard.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    count, sums = pts.size, None
    if density is not None:
        density = np.asarray(density)
        if density.ndim == 2:
            count = max(count, len(density))
        sums = np.empty(count, dtype=complex)
        shared = density * grid.dz if density.ndim == 1 else None
    nearest = np.empty(count)
    winding = np.empty(count, dtype=complex)
    rows = max(1, KERNEL_BLOCK // grid.n)
    with np.errstate(all="ignore"):
        for lo in range(0, count, rows):
            block = slice(lo, lo + rows)
            diff = grid.z - (pts if pts.size == 1 else pts[block])[:, None]
            nearest[block] = np.abs(diff).min(axis=1)
            winding[block] = (grid.dz / diff).sum(axis=1)
            if sums is not None:
                num = shared if shared is not None else density[block] * grid.dz
                sums[block] = (num / diff).sum(axis=1)
        pref = grid.weight / (2j * np.pi)
        return nearest, (pref * winding).real, None if sums is None else pref * sums


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
