"""Analytic Jordan curves, contour grids, and point classification.

Curves come in two flavors: images of the unit circle under a univalent
polynomial map (used by every transform and bundle construction), and simple
polygons (used only by the corner quadrature path). A polygon is validated
in one array pass over blocks of at most KERNEL_BLOCK vertex pairs, which
refuses repeated vertices and crossing edges (`build_polygon`); its extent
is computed once and kept. Contour grids are uniform in the circle
parameter, which makes the trapezoidal rule spectrally accurate for the
periodic analytic integrands that arise throughout the package.

Every boundary integral against the Cauchy kernel dz/(z - p) goes through one
pass, `kernel_sums`: for a batch of points it gives a distance to the nodes,
the winding number and, given densities, the trapezoidal Cauchy sums.
`locate`, `winding_number`, `transforms.cauchy_integral` and
`bundles.evaluate_section` are that pass for one point. Direct rows, and
every one-point call, are real arithmetic on blocks of squared distances
(`distance_blocks`) and give the exact nearest-node distance. Far rows,
well outside or inside the nodes' annulus about the conformal center, take
the exact Laurent or Taylor expansion of the same sum where that is
cheaper, truncated within an eighth of the bound stated at `kernel_sums`
and summed as two matrix products over tables of powers, and report a
lower bound on the distance that clears the exclusion band: the band and
side decisions are those of the direct pass.

The band and side decision lives here alone: `sides` turns a kernel pass
into the points in the exclusion band, the interior points and the sums,
and `off_band` refuses a batch with a point in the band. Every caller that
classifies points or sums at them goes through them, the one-point section
and Cauchy-integral evaluators included.

All objects are immutable after construction; evaluation functions are pure
and safe to call concurrently. A grid memoizes geometry derived from it
alone (its node parts and annulus here, its verification rings and points
in `bundles`), and a map curve the roots of phi'; a race only computes the
same value twice.
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

# The simplicity check samples the boundary image at CHECK_NODES points and
# compares pairs at least FAR_PAIR_SEPARATION samples apart.
CHECK_NODES = 512
FAR_PAIR_SEPARATION = 8

# Node-point pairs per block of the kernel pass; rows stay contiguous and
# each of a pass's four real buffers stays at a quarter megabyte. Also the
# vertex pairs per block of `build_polygon`'s pass, and the entries per
# chunk of a far-row power table (`_expansion`): of 2^12 to 2^17, 2^15 was
# fastest or within 20 % of it on a 40 x 40 disk lattice at n = 1024 and
# 256-point rings at n = 4096 and 65536 (2-core x86_64).
KERNEL_BLOCK = 2 ** 15

# Largest ratio q of a far row (`_far_rows`). Two 40 x 40 disk lattices at
# n = 1024 and a moment ring at n = 4096 took 12.7, 10.9, 10.0, 9.1, 9.4,
# 10.0 ms at q = 0.6, 0.65, ..., 0.85 (scripts/far_ratio_study.py, best of
# 40 rounds, 2-core x86_64); over a whole `sweep` benchmark cycle q = 0.75
# and 0.8 save under 4 % against 0.7, too little to pay for the larger
# rounding factor (1 + q)/(1 - q) (see `kernel_sums`).
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

    @cached_property
    def dphi_roots(self):
        """The roots of phi', computed once per curve. High-order coefficients
        too small to put a root anywhere near the validation disk are trimmed
        first: they only overflow the companion matrix."""
        dcs = self._dcoeffs
        tiny = max(abs(c) for c in dcs) * 1e-290
        deg = len(dcs)
        while deg > 1 and abs(dcs[deg - 1]) <= tiny:
            deg -= 1
        return np.roots(list(reversed(dcs[:deg])))

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

    @cached_property
    def extent(self):
        """max |vertex|, the polygon's scale, computed once per polygon."""
        return max(math.hypot(v.real, v.imag) for v in self.vertices)

    def is_zero_length(self, length):
        """The one zero-length rule for edges and vertex gaps: below 1e-14 of
        the extent (of 1 when every vertex is 0)."""
        return length < 1e-14 * (self.extent or 1.0)

    def area_over_pi(self):
        """Signed shoelace area over pi, summed over the vertices scaled by
        2^-e, extent < 2^e, so that no product overflows. Scaling by a power
        of two is exact: where the unscaled sum is finite, the value is its
        value bit for bit."""
        e = math.frexp(self.extent or 1.0)[1]
        v = np.asarray(self.vertices)
        x, y = np.ldexp(v.real, -e), np.ldexp(v.imag, -e)
        area = 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))
        return math.ldexp(area / np.pi, 2 * e)


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
    return build_polynomial_curve((center, radius.real), rho)


def _refuse_overflowing_square(extent):
    """ParseError unless extent^2 is finite, so that |z|^2 (areas, moments,
    the kernel's squared distances) is finite at every point of the curve."""
    if not extent * extent < math.inf:  # False for NaN
        raise ParseError(f"curve extent {extent:.3g} overflows when squared")


def build_polynomial_curve(coeffs, rho):
    """Validate and build the curve phi(unit circle) for polynomial phi.

    Refuses a map whose bound sum_j |a_j| rho^-j on |phi| over the disk of
    radius 1/rho overflows when squared. Checks phi' nonvanishing on that
    disk (via polynomial roots) and, at sample resolution, injectivity of
    the boundary image. By the argument principle the tangent
    i zeta phi'(zeta) then winds exactly once, counterclockwise, around the
    circle.
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ParseError(f"rho must lie in (0, 1), got {rho}")
    cs = tuple(complex(c) for c in coeffs)
    if not np.isfinite(cs).all():
        raise ParseError("map coefficients must be finite")
    if len(cs) < 2 or all(c == 0 for c in cs[1:]):
        raise CurveNotSimpleError("map must have degree at least one")
    extent = 0.0
    for c in reversed(cs):  # Horner; hypot and float division do not raise
        extent = extent / rho + math.hypot(c.real, c.imag)
    _refuse_overflowing_square(extent)
    curve = ConformalMapCurve(cs, rho)

    if np.any(np.abs(curve.dphi_roots) <= (1.0 / rho) * (1.0 + 1e-12)):
        raise CurveNotSimpleError(
            "phi' vanishes inside the validation disk |zeta| <= 1/rho")

    th = TWO_PI * np.arange(CHECK_NODES) / CHECK_NODES
    z = curve.point(th)
    adjacent = np.abs(np.roll(z, -1) - z)
    min_adjacent = adjacent.min()
    if _far_pair_gap(z) < 0.5 * min_adjacent:
        raise CurveNotSimpleError("boundary image self-intersects at sample resolution")
    return curve


def _far_pair_gap(z):
    """Smallest |z[i] - z[j]| over the cyclic pairs at least
    FAR_PAIR_SEPARATION = s apart.

    Row i of the wrapped window holds z[i + k mod n] for k <= n/2, so the
    pairs (i, i + k) with s <= k <= n/2 meet every such pair once or
    twice; |a - b| = |b - a| exactly, so this is the all-pairs minimum.
    """
    half = z.size // 2
    ring = np.concatenate([z, z[:half + 1]])
    window = np.lib.stride_tricks.sliding_window_view(ring, half + 1)[:z.size]
    return np.abs(window[:, FAR_PAIR_SEPARATION:] - z[:, None]).min()


def build_polygon(vertices):
    """Validate a simple polygon; orientation is normalized counterclockwise.

    Refuses, in this order: a non-finite vertex, fewer than three, an extent
    whose square overflows, a zero-length edge (the first is named), a
    repeated vertex and a proper crossing of two edges; edge j runs from
    vertex j to vertex j + 1 mod n. The last two are one array pass over
    the n * (n // 2) vertex pairs in blocks of at most KERNEL_BLOCK: pair m
    is (i, i + k mod n), i = m mod n, k = 1 + m // n <= n/2, so every
    unordered pair appears once (twice at k = n/2). A pair (i, j) also
    stands for edges pq = i and rs = j, which cross properly when the turns
    sign Im(conj(q - p) (r - p)) of r and s about pq differ, those of p and
    q about rs differ and none is 0; each turn rounds as in complex
    arithmetic. Adjacent edges share an end, whose turn is exactly 0.
    """
    poly = PolygonCurve(vertices)
    a = np.array(poly.vertices)
    if not np.isfinite(a).all():
        raise ParseError("polygon vertices must be finite")
    if a.size < 3:
        raise CurveNotSimpleError("polygon needs at least 3 vertices")
    _refuse_overflowing_square(poly.extent)
    b = np.roll(a, -1)
    # lengths by hypot round as abs(complex) in `schwarz.polygon_schwarz`;
    # numpy's complex abs may differ in the last bit
    short = np.flatnonzero(poly.is_zero_length(np.hypot(b.real - a.real, b.imag - a.imag)))
    if short.size:
        raise DegenerateEdgeError(f"edge {short[0]} has zero length")
    pairs = a.size * (a.size // 2)
    crossed = False
    with np.errstate(all="ignore"):  # an overflowing turn is NaN, as in complex arithmetic
        for lo in range(0, pairs, KERNEL_BLOCK):
            m = np.arange(lo, min(pairs, lo + KERNEL_BLOCK))
            i, j = m % a.size, (m + m // a.size + 1) % a.size
            p, q, r, s = a[i], b[i], a[j], b[j]  # edges pq and rs
            u, v = np.stack([q - p, q - p, s - r, s - r]), np.stack([r - p, s - p, p - r, q - r])
            if poly.is_zero_length(np.hypot(v[0].real, v[0].imag)).any():  # |r - p|
                raise CurveNotSimpleError("repeated vertices")
            o = np.sign(u.real * v.imag - u.imag * v.real)  # turns pqr, pqs, rsp, rsq
            crossed |= bool(((o[0] != o[1]) & (o[2] != o[3]) & (o != 0).all(axis=0)).any())
    if crossed:
        raise CurveNotSimpleError("polygon edges cross")
    if poly.area_over_pi() < 0.0:
        poly = PolygonCurve(poly.vertices[::-1])
    return poly


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
    sum_j (p - c)^j B_j, B_j = sum_k g_k/(z_k - c)^(j+1), inside, formed as
    two matrix products over power tables (`_expansion`). nearest is exact
    on direct rows; on far rows it is the lower bound |p - c| - R or
    r - |p - c|, less eight ulps, at or above the band, so `sides` decides
    as the direct pass would.

    Bound: a row's winding and sums differ from the same sum for the point
    alone, or taken term by term in complex arithmetic, by at most 8 n eps *
    sum_k |w num_k/(z_k - p)|, num = dz or density dz. Direct rows differ by
    BLAS summation order, which depends on the batch. On far rows the tail
    sum_k |g_k| q^M/((1 - q) rho), rho = |p - c| outside and r inside, is at
    most an eighth of the bound. The expansion's terms sum in modulus to at
    most (1 + q)/(1 - q) < 5.7 times sum_k |g_k/(z_k - p)|, and each carries
    at most n + 3M + 3 < 4.2 n roundings of at most 1.12 eps (a power of at
    most M products in each table, sums of n and of M terms, three more
    products; M < n, n >= 16): with the sums' factor 1/(2 pi), at most
    4.2 * 1.12 * 5.7/(2 pi) < 4.3 of the bound's 8 n eps.

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
    directly and M (n + F columns) expanded, the nodes' M x n power table
    with its product for the coefficients and F M columns for the rows'
    table and sums; it implies M < n.
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
    terms about c, scaled so that every power has modulus at most 1: the
    coefficients are (nodes' power table) @ cols and the sums (rows' power
    table).T @ coefficients. Each table (`_powers`) is built and used in
    chunks of at most KERNEL_BLOCK entries (one column if terms is more),
    so memory does not grow with n or the number of rows."""
    c, big, small = grid._node_annulus
    cols = cols.reshape(grid.n, -1)
    width = max(1, KERNEL_BLOCK // terms)  # table columns per chunk
    coeff = np.zeros((terms, cols.shape[1]), dtype=complex)
    for lo in range(0, grid.n, width):
        gap = grid.z[lo:lo + width] - c
        if outside:  # A_j/R^j = sum_k g_k ((z_k - c)/R)^j
            table = _powers(1.0, gap / big, terms)
        else:  # B_j r^j = sum_k g_k (r/(z_k - c))^j/(z_k - c)
            first = 1.0 / gap
            table = _powers(first, small * first, terms)
        coeff += table @ cols[lo:lo + width]
    # outside -(1/(p - c)) sum_j (R/(p - c))^j A_j/R^j, inside sum_j ((p - c)/r)^j B_j r^j
    x = big / (p - c) if outside else (p - c) / small
    sums = np.empty((p.size, cols.shape[1]), dtype=complex)
    for lo in range(0, p.size, width):
        sums[lo:lo + width] = _powers(1.0, x[lo:lo + width], terms).T @ coeff
    if outside:
        sums *= -1.0 / (p - c)[:, None]
    return sums


def _powers(first, step, terms):
    """(terms, step.size) table of first * step^j, j < terms, by doubling:
    rows [k, 2k) are rows [0, k) times step^k, about log2(terms) vector
    products; row j carries the rounding of at most j products."""
    table = np.empty((terms, step.size), dtype=complex)
    table[0] = first
    done, power = 1, step  # rows filled, step^done
    while done < terms:
        more = min(done, terms - done)
        np.multiply(table[:more], power, out=table[done:done + more])
        done += more
        if done < terms:
            power = power * power
    return table


def winding_number(grid, z):
    """Pre-rounding winding of the curve around z (trapezoidal quadrature)."""
    return float(kernel_sums(grid, [z])[1][0])


def sides(grid, points, density=None):
    """(near, inside, sums) of the points from one `kernel_sums` pass.

    The one band and side decision of the package: near marks the points
    closer to a node than the exclusion band, inside the points off the band
    that the curve winds around; sums are the pass's Cauchy sums. A batch
    with a non-finite point is refused as a whole (ParseError); a finite
    point too far for its squared distance to be finite is still decided.
    """
    nearest, winding, sums = kernel_sums(grid, points, density)
    # a non-finite point has a NaN or infinite distance; only then (or when
    # a finite point's distance overflows) are the points themselves looked at
    if not np.isfinite(nearest).all() and not np.isfinite(points).all():
        raise ParseError("points must be finite")
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
    inside, _ = off_band(grid, [z])
    return Location.INTERIOR if inside[0] else Location.EXTERIOR


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
    if not 0.0 < tol < np.inf:
        raise ParseError(f"tolerance must be finite and positive, got {tol}")
    n = int(n_start)
    if n < MIN_NODES or n & (n - 1):
        raise BadNodeCountError(f"start count must be a power of two >= 16, got {n}")

    last_near = prev_grid = prev_val = None
    while True:
        grid = sample(curve, n)
        try:
            val = complex(functional(grid))
        except NearBoundaryError as exc:
            val, last_near = None, exc
        if prev_val is not None and val is not None \
                and abs(prev_val - val) < tol:
            return prev_grid
        if 2 * n > n_max:
            break
        n *= 2
        prev_grid, prev_val = grid, val
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
