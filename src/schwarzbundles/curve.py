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
`bundles.evaluate_section` are that pass for one point. Direct rows are
real arithmetic on blocks of squared distances (`distance_blocks`; one
point without the blocks' buffers) and give the exact nearest-node
distance. In a large batch on the curve's own grid of a low-degree map,
rows clear of the nodes' annulus about the conformal center, found by one
pass over |p - c|, take one cheaper route on either side of it: the same
sum in the pullback variable, a short series of the densities' Fourier
modes (one FFT) against powers of the preimages of the point, for the rows
whose computed bound stays within an eighth of the bound stated at
`kernel_sums`. Outside, the powers are power sums from the map's
coefficients; inside, at degree 1, powers of the one preimage. Those rows
report a lower bound on the distance that clears the exclusion band: the
band and side decisions are those of the direct pass.

The band and side decision lives here alone: `sides` turns a kernel pass
into the points in the exclusion band, the interior points and the sums,
and `off_band` refuses a batch with a point in the band. Every caller that
classifies points or sums at them goes through them, the one-point section
and Cauchy-integral evaluators included.

All objects are immutable after construction; evaluation functions are pure
and safe to call concurrently. A grid memoizes geometry derived from it
alone (here its node parts, its annulus, the Schwarz function S and the
unit tangent T at its nodes; in `bundles` its verification rings and
points), and a map curve the roots of phi' and of phi - a0; a race only
computes the same value twice. The arrays kept are read-only, and no value
kept depends on a bundle, a pole or a point.
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

# The simplicity check of a curve the certificate does not cover samples the
# boundary image at CHECK_NODES points and compares pairs at least
# FAR_PAIR_SEPARATION samples apart.
CHECK_NODES = 512
FAR_PAIR_SEPARATION = 8

# Node-point pairs per block of the kernel pass; rows stay contiguous and
# each of a pass's four real buffers stays at a quarter megabyte. Also the
# vertex pairs per block of `build_polygon`'s pass, and the entries per
# chunk of the pullback route's power tables (`_pullback_rows`): of 2^12 to
# 2^17, 2^15 was fastest or within 20 % of it on a 40 x 40 disk lattice at
# n = 1024 and 256-point rings at n = 4096 and 65536 (2-core x86_64).
KERNEL_BLOCK = 2 ** 15

# Least rows of a block whose distances are products (`distance_blocks`).
# Per block, products against the broadcast subtraction: 16 against 41 us at
# n = 1024 (32 rows) and 16 against 43 us at n = 2048 (16 rows), but 14
# against 13 us at n = 4096 (8 rows) and 52 against 17 us at n = 65536 (one
# row), and no faster for one point (2-core x86_64, OpenBLAS, one thread).
PRODUCT_ROWS = 16

# Least points of a batch, and least rows its two sides of the nodes'
# annulus offer together, and largest degree of the map, for the pullback
# route (`_routes`); the rows it does not take are direct. Below 256 rows
# its FFT and fixed cost do not pay: the `sweep` fits of 12 and 24 samples
# took 1.07/1.21 ms with the route gated and 1.62/1.88 ms without. On the
# 1,284 outside rows of 40 x 40 lattices at n = 1024 the pass took 0.59,
# 0.97, 1.38 ms with the route against 6.2-6.7 ms direct at degrees 1, 2,
# 4, and 4.5 against 6.5 ms at degree 6, where its bound declined 53 % of
# the rows; at degrees 12 and 30 it declined them all. On the disk
# lattice's 276 interior rows it took 0.41 against 1.45 ms direct
# (scripts/pullback_rows.py, best of 15-25, 2-core x86_64, BLAS on one
# thread). No workload runs a map of degree above 4.
PULLBACK_ROWS = 256
PULLBACK_DEGREE = 4

EPS = np.finfo(float).eps


class Location(Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    NEAR_BOUNDARY = "near-boundary"


def _poly_roots(coeffs):
    """The roots of sum_k coeffs[k] zeta^k. High-order coefficients too small
    to put a root anywhere near the validation disk are trimmed first: they
    only overflow the companion matrix. A linear polynomial's root is
    -coeffs[0]/coeffs[1], the bits `np.roots` gives it, without its
    eigenvalue call."""
    tiny = max(abs(c) for c in coeffs) * 1e-290
    top = max((k for k, c in enumerate(coeffs) if abs(c) > tiny), default=0)
    if top == 1 and coeffs[0]:
        return -np.array(coeffs[:1], dtype=complex) / complex(coeffs[1])
    return np.roots(coeffs[top::-1])


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

    @cached_property
    def degree(self):
        """N, the index of the last nonzero coefficient: trailing zeros of
        coeffs do not count."""
        return max((k for k, c in enumerate(self.coeffs) if c), default=0)

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
    def _dphi_bounds(self):
        """(moduli, L_in, L_out), computed once per curve: |a_j| for j <= N
        and the bounds sum j|a_j| of |phi'| on |zeta| <= 1 and sum j|a_j|
        rho^(1 - j) on 1 <= |zeta| <= 1/rho."""
        moduli = _read_only(np.abs(self.coeffs[:self.degree + 1]))
        j = np.arange(moduli.size)
        return moduli, float(j @ moduli), float(j @ (moduli * self.rho ** (1.0 - j)))

    @cached_property
    def dphi_roots(self):
        """The roots of phi', computed once per curve (`_poly_roots`)."""
        return _poly_roots(self._dcoeffs)

    @cached_property
    def _center_roots(self):
        """The roots of phi - a0, 0 and those of (phi - a0)/zeta, computed
        once per curve: the preimages of the conformal center."""
        return _poly_roots((0j, *self.coeffs[1:]))

    def moments(self, k_max):
        """The harmonic moments M_0 ... M_k_max, M_k = (1/pi) * integral of
        z^k dA over the domain, exactly from the map's coefficients a_j:
        M_k = sum_j j conj(a_j) [zeta^j] q_{k+1}, q_m = phi^m/m.

        The domain is a quadrature domain with its node at phi(0). Green's
        theorem gives -(1/2 pi i) * integral of z^{k+1}/(k + 1) d(conj z) on
        the curve, where conj z = sum_j conj(a_j) zeta^-j, so only the Taylor
        coefficients of q_{k+1} up to the map's degree enter: one truncated
        product by phi per order, q_m = ((m - 1)/m) (phi q_{m-1}). Carrying
        phi^m/m rather than phi^m keeps the table finite as far as the
        moments are (the circle about 5 answers up to M_441 = 5^441). A
        moment is not finite where the table overflows (the caller's
        np.errstate decides whether that raises).
        """
        a = np.asarray(self.coeffs)
        q = np.tile(a, (k_max + 1, 1))  # row k: q_{k+1}, truncated; row 0 is q_1 = phi
        for k in range(1, k_max + 1):
            q[k] = k / (k + 1) * np.convolve(q[k - 1], a)[:a.size]
        return (q * (np.arange(a.size) * a.conj())).sum(axis=1)

    def point(self, t):
        return self.phi(_circle_point(t))

    def velocity(self, t):
        zeta = _circle_point(t)
        return 1j * zeta * self.dphi(zeta)


def _circle_point(t):
    """zeta = e^{it}, refusing a parameter t that is not finite (ParseError)."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ParseError(f"curve parameter {t} is not finite")
    return np.exp(1j * t)


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

    @cached_property
    def _scaled(self):
        """(e, vertices, area): the vertices scaled by 2^-e, extent < 2^e <=
        2 extent, and their signed shoelace area, computed once per polygon.
        No product of two scaled coordinates overflows, and a product of two
        that are each at least 1e-150 of the extent is a normal number.
        Scaling by a power of two is exact: where the unscaled products are
        normal numbers, each scaled one is theirs times 2^-2e, bit for bit,
        and the area's sign is that of the scaled sum even where the area
        itself underflows."""
        e = math.frexp(self.extent or 1.0)[1]
        v = np.asarray(self.vertices)
        x, y = np.ldexp(v.real, -e), np.ldexp(v.imag, -e)
        area = 0.5 * np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))
        scaled = np.empty_like(v)
        scaled.real, scaled.imag = x, y
        return e, scaled, float(area)

    def area_over_pi(self):
        """Signed shoelace area over pi, summed over the scaled vertices
        (`_scaled`) and scaled back."""
        e, _, area = self._scaled
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
        """[-1; Re z] and [Im z; -1], the nodes' (2, n) real operands of
        `distance_blocks`' products, formed once per grid."""
        ones = np.ones(self.n)
        return (_read_only(np.stack([-ones, self.z.real])),
                _read_only(np.stack([self.z.imag, -ones])))

    @cached_property
    def _node_annulus(self):
        """(c, R, r): the conformal center c and the largest and smallest
        |z_k - c|, formed once per grid for the kernel's far rows."""
        c = self.curve.conformal_center
        gap = np.abs(self.z - c)
        return c, float(gap.max()), float(gap.min())

    @cached_property
    def _pullback_map(self):
        """(a, L_in, L_out, floor, d_node) of the pullback route, formed once
        per grid: the coefficients up to the degree N; bounds of |phi'| on
        |zeta| <= 1 and on 1 <= |zeta| <= 1/rho; the floor rho of the outside
        sigma (0 for N = 1); the least distance at which the nodes'
        rounding, |z_k - phi| <= e_z and |dz_k - i zeta phi'| <= e_dz at the
        exact roots of unity (zeta_k within 12 eps of them, Horner within 4
        (N + 1) eps), changes a term by at most 7 n eps: e_dz/(min |dz| -
        e_dz) + e_z/(d - e_z)."""
        curve = self.curve
        moduli, l_in, l_out = curve._dphi_bounds
        degree = curve.degree
        a, j = np.array(curve.coeffs[:degree + 1]), np.arange(degree + 1)
        e_z = EPS * (12 * l_in + 4 * (degree + 1) * moduli.sum())
        e_dz = EPS * (12 * float((j * (j - 1)) @ moduli) + 4 * (degree + 4) * l_in)
        speed = float(np.abs(self.dz).min()) - e_dz
        slack = 7 * self.n * EPS - e_dz / speed if speed > 0.0 else -1.0
        d_node = e_z * (1.0 + 1.0 / slack) if slack > 0.0 else math.inf
        return a, l_in, l_out, (curve.rho if degree > 1 else 0.0), d_node

    @cached_property
    def _schwarz(self):
        """The Schwarz function S = conj(phi(1/conj zeta)) at the nodes,
        formed once per grid for the bundles' transitions and logs. S is
        finite on the validated annulus (`_refuse_overflowing_square` bounds
        sum_j |a_j| rho^-j), so the kept value raises no warning."""
        return _read_only(self.curve.phi_reflected(self.zeta))

    @cached_property
    def _tangent(self):
        """The holomorphic unit tangent T at the nodes (`_pullback_tangent`),
        formed once per grid, the curve's and every ring's."""
        return _read_only(_pullback_tangent(self.curve, self.zeta))


def _read_only(array):
    """The array, made read-only: a grid shares what it keeps with every
    caller."""
    array.flags.writeable = False
    return array


def _pullback_tangent(curve, zeta):
    """Holomorphic unit tangent T = i zeta phi'(zeta) / sqrt(g) at pullback
    points zeta of any shape, g = phi'(zeta) * conj-phi'(1/zeta).

    Validation puts every root r_j of phi' beyond 1/rho, so with s_j = 1/r_j
    g = |phi'(0)|^2 prod_j u_j, u_j = (1 - zeta s_j)(1 - conj(s_j)/zeta),
    where both factors have positive real part on the validated annulus and
    u_j = |1 - zeta s_j|^2 > 0 on the circle. The product P of the principal
    roots of the u_j is therefore the continuous root of g / |phi'(0)|^2,
    positive on the circle, where T = dz/|dz|. The root's value is the
    principal root of the exact g (roots of a multiple zero of phi' are
    accurate to about eps^(1/k) only); its sign is the one nearer P.
    """
    zeta = np.asarray(zeta, dtype=complex)
    dphi = curve.dphi(zeta)
    root = np.sqrt(dphi * curve.dphi_reflected(zeta))
    product = np.ones_like(zeta)
    inverse = 1.0 / zeta
    for s in 1.0 / curve.dphi_roots:
        product *= np.sqrt((1.0 + abs(s) ** 2) - (zeta * s + s.conjugate() * inverse))
    flip = (root * np.conjugate(product)).real < 0.0
    return 1j * zeta * dphi / np.where(flip, -root, root)


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


def _refuse_underflowing_square(scale):
    """ParseError unless scale^2 is a normal number, scale = |a1|, below
    which the kernel's squared distances underflow: every point would lie
    in the exclusion band. The map's image of the unit disk holds the disk
    of radius |a1|/4 about phi(0) (Koebe), so |a1| is the curve's scale."""
    if not scale * scale >= np.finfo(float).smallest_normal:
        raise ParseError(f"curve scale |a1| = {scale:.3g} underflows when squared")


def build_polynomial_curve(coeffs, rho):
    """Validate and build the curve phi(unit circle) for polynomial phi.

    Refuses a map whose bound sum_j |a_j| rho^-j on |phi| over the disk of
    radius 1/rho overflows when squared (ParseError). A map that passes the
    coefficient certificate (`_certified`) is univalent on that disk. Any
    other map is checked for phi' nonvanishing on the disk (via polynomial
    roots) and, at sample resolution, for injectivity of the boundary image.
    By the argument principle the tangent i zeta phi'(zeta) then winds
    exactly once, counterclockwise, around the circle. Last, a univalent map
    whose |a1| underflows when squared is refused (ParseError).
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
    if not _certified(cs, rho):
        if np.any(np.abs(curve.dphi_roots) <= (1.0 / rho) * (1.0 + 1e-12)):
            raise CurveNotSimpleError(
                "phi' vanishes inside the validation disk |zeta| <= 1/rho")
        th = TWO_PI * np.arange(CHECK_NODES) / CHECK_NODES
        z = curve.point(th)
        adjacent = np.abs(np.roll(z, -1) - z)
        if _far_pair_gap(z) < 0.5 * adjacent.min():
            raise CurveNotSimpleError("boundary image self-intersects at sample resolution")
    _refuse_underflowing_square(math.hypot(cs[1].real, cs[1].imag))
    return curve


def _certified(cs, rho):
    """Whether sum_{j>=2} j|a_j| R^(j-1) < |a1|, R = (1/rho)(1 + 1e-12), the
    radius of the root check, holds with a margin for rounding.

    Then |phi'(zeta) - a1| < |a1| on |zeta| <= R, so Re(phi'/a1) > 0 there:
    phi' does not vanish, and phi is univalent on the disk, a convex domain
    (Noshiro 1934, Warschawski 1935; see Duren, Univalent Functions, 1983).
    The sum is a polynomial in R with nonnegative coefficients, taken by
    Horner's rule at the computed R, which exceeds 1/rho. With |a_j| by
    hypot (under one ulp) and j|a_j| one product, the computed sum is within
    a relative (2d + 3) eps/2 of the exact one for degree d, and |a1| within
    one ulp; a computed sum below (1 - 4 (d + 2) eps) |a1| therefore proves
    the exact inequality.
    """
    radius = (1.0 / rho) * (1.0 + 1e-12)
    total = 0.0
    for j in range(len(cs) - 1, 1, -1):
        total = total * radius + j * math.hypot(cs[j].real, cs[j].imag)
    margin = 1.0 - 4 * (len(cs) + 1) * EPS
    return total * radius < margin * math.hypot(cs[1].real, cs[1].imag)


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
    q about rs differ and none is 0. Each turn is taken on the vertices
    scaled by 2^-e (`PolygonCurve._scaled`), so that it neither overflows
    nor, on a tiny polygon, underflows to 0, and rounds as in complex
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
    _, c, area = poly._scaled  # the turns' vertices
    d = np.roll(c, -1)
    for lo in range(0, pairs, KERNEL_BLOCK):
        m = np.arange(lo, min(pairs, lo + KERNEL_BLOCK))
        i, j = m % a.size, (m + m // a.size + 1) % a.size
        gap = a[j] - a[i]
        if poly.is_zero_length(np.hypot(gap.real, gap.imag)).any():
            raise CurveNotSimpleError("repeated vertices")
        p, q, r, s = c[i], d[i], c[j], d[j]  # edges pq and rs, scaled
        u, v = np.stack([q - p, q - p, s - r, s - r]), np.stack([r - p, s - p, p - r, q - r])
        o = np.sign(u.real * v.imag - u.imag * v.real)  # turns pqr, pqs, rsp, rsq
        crossed |= bool(((o[0] != o[1]) & (o[2] != o[3]) & (o != 0).all(axis=0)).any())
    if crossed:
        raise CurveNotSimpleError("polygon edges cross")
    if area < 0.0:
        poly = PolygonCurve(poly.vertices[::-1])
    return poly


def integer_argument(value, name, error=ParseError):
    """int(value), refused with `error` naming the argument where int()
    cannot take it (NaN, an infinity, a non-number)."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be a finite integer, got {value!r}") from exc


def node_count(n):
    """n as an int, refused unless a power of two from MIN_NODES to
    MAX_NODES; nothing of size n is allocated before the check."""
    n = integer_argument(n, "node count", BadNodeCountError)
    if n < MIN_NODES or n & (n - 1):
        raise BadNodeCountError(f"node count must be a power of two >= 16, got {n}")
    if n > MAX_NODES:
        raise BadNodeCountError(f"node count {n} exceeds the cap {MAX_NODES}")
    return n


def sample(curve, n):
    """Contour grid with n uniform parameter nodes (n a power of two, from 16
    to MAX_NODES)."""
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError(
            "grids are only defined for conformal-map curves")
    return _ring(curve, node_count(n), 1.0)


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

    In blocks of at least PRODUCT_ROWS rows, dr and di are matrix products
    with k = 2, [Re p, 1] @ [-1; Re z] and [1, Im p] @ [Im z; -1], over one
    (points, 3) array [Re p, 1, Im p] and the grid's kept operands. Both
    products of an entry are exact, so the entry is their sum rounded once,
    as z_k - p is: the same bits, except that an exact zero is +0 where the
    subtraction gives -0 (a node part -0 and a point part +0). d2 squares
    the sign away, so d2, the nearest distance and the sums are those of
    the subtraction. Smaller blocks subtract.

    A block holds about KERNEL_BLOCK node-point pairs. Every block is
    written into the same four buffers, one allocation per pass, which the
    caller may overwrite and must not keep. Each entry is formed the same
    way in any block, so d2 of a point does not depend on the batch. Large
    |z_k - p| may overflow d2 to inf; callers ignore the warning.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    rows = max(1, min(pts.size, KERNEL_BLOCK // grid.n))
    right_r, right_i = grid._node_parts
    product = rows >= PRODUCT_ROWS
    if product:
        left = np.empty((pts.size, 3))
        left[:, 0], left[:, 1], left[:, 2] = pts.real, 1.0, pts.imag
    dr, di, d2, sq = np.empty((4, rows, grid.n))
    for lo in range(0, pts.size, rows):
        m = min(rows, pts.size - lo)
        x, y, dist2, y2 = dr[:m], di[:m], d2[:m], sq[:m]  # views of this block
        if product:
            np.matmul(left[lo:lo + m, :2], right_r, out=x)
            np.matmul(left[lo:lo + m, 1:], right_i, out=y)
        else:
            p = pts[lo:lo + m]
            np.subtract(right_r[1], p.real[:, None], out=x)
            np.subtract(right_i[0], p.imag[:, None], out=y)
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
    products with the parts of g = [dz, density[:, 0] dz, ...]. One point
    is one direct row, with the bits of a one-row block and without the
    block buffers.

    Rows that clear the exclusion band outside or inside the annulus R >=
    |z_k - c| >= r of the nodes about c = curve.conformal_center may leave
    the direct pass, never for one point; one pass over |p - c| decides them
    (`_routes`). On a radius-1 grid of a map of degree at most
    PULLBACK_DEGREE, a batch of at least PULLBACK_ROWS points whose two
    sides offer that many such rows together takes the pullback route
    (`_pullback_rows`) for the rows its computed bound covers: the sum in
    the pullback variable from the densities' Fourier modes, outside at any
    such degree and inside at degree 1. Every other row is direct. nearest
    is exact on direct rows; on the others it is the lower bound |p - c| - R
    or r - |p - c|, less eight ulps, at or above the band, so `sides`
    decides as the direct pass would. Those rows run first, one side at a
    time: the direct blocks' buffers are then allocated only after the
    route's tables and sums are freed, and no block view outlives the pass's
    last product, so the pass's transient peak is the larger of the two,
    not their sum, and repeated passes reuse the freed heap instead of
    trimming and faulting it back in.

    Bound: a row's winding and sums differ from the same sum for the point
    alone, or taken term by term in complex arithmetic, by at most 8 n eps *
    sum_k |w num_k/(z_k - p)|, num = dz or density dz. Direct rows differ by
    BLAS summation order, which depends on the batch. On pullback rows the
    route's computed bound (truncation, aliasing and rounding) is at most an
    eighth of the bound, and the nodes' own rounding (the route sums at the
    exact roots of unity) the other seven eighths. Its sigma, the largest
    modulus of the powers it sums, is outside max(rho, L_out/(L_out + g)), g
    = nearest - L_in pi/n, and inside the exact |zeta0| = |p - c|/|a1| times
    1 + 4 eps.

    A point on a node gives NaN; such rows lie inside the exclusion band,
    are computed without warnings and are the caller's to discard.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if density is not None:
        density = np.asarray(density)
    cols, dens = _columns(grid, density)
    parts = cols.view(float).reshape(grid.n, -1)  # Re and Im of each column
    with np.errstate(all="ignore"):
        if pts.size == 1:
            nearest, re_k, im_k = _one_row(grid, pts, parts)
        else:
            nearest, re_k, im_k = _rows(grid, pts, cols, parts, dens)
    # S = sum (dr - i di)/d2 * (a + i b): Re S = dr.a + di.b, Im S = dr.b - di.a;
    # (w/2 pi i) S = (w/2 pi) (Im S - i Re S). Read as complex, a row of re_k
    # holds R = dr.c and one of im_k I = di.c per column c, so S = R - i I
    # and (w/2 pi i) S = (w/2 pi) (-i R - I), the same two real operations.
    scale = grid.weight / TWO_PI
    winding = scale * (re_k[:, 1] - im_k[:, 0])
    if density is None:
        return nearest, winding, None
    sums = scale * (-1j * re_k.view(complex)[:, 1:] - im_k.view(complex)[:, 1:])
    return nearest, winding, sums.reshape(pts.shape + density.shape[1:])


def _columns(grid, density):
    """(cols, dens): the kernel's columns g = [dz, density[:, 0] dz, ...] as
    an (n, 1 + m) array, or dz alone without a density, and the density as
    (n, m) columns (None without one)."""
    if density is None:
        return grid.dz, None
    dens = density.reshape(grid.n, -1)
    cols = np.empty((grid.n, 1 + dens.shape[1]), dtype=complex)
    cols[:, 0] = grid.dz
    np.multiply(dens, grid.dz[:, None], out=cols[:, 1:])
    return cols, dens


def _one_row(grid, pts, parts):
    """(nearest, re_k, im_k) of `kernel_sums` for one point: the operations
    of a one-row block of `distance_blocks` (a subtraction), on arrays of
    the row alone."""
    right_r, right_i = grid._node_parts
    dr = np.subtract(right_r[1], pts.real[:, None])
    di = np.subtract(right_i[0], pts.imag[:, None])
    d2 = dr * dr
    d2 += di * di
    nearest = np.sqrt(d2.min(axis=1))
    np.reciprocal(d2, out=d2)
    return nearest, np.multiply(dr, d2, out=dr) @ parts, np.multiply(di, d2, out=di) @ parts


def _rows(grid, pts, cols, parts, dens):
    """(nearest, re_k, im_k) of `kernel_sums` for a batch: the pullback
    route's rows (`_routes`) first, stored as R = S, I = 0 for S = sum g/(z
    - p), then the direct blocks."""
    nearest = np.empty(pts.size)
    re_k, im_k = np.empty((2, pts.size, parts.shape[1]))
    direct = keep = None  # the direct rows: all, or these indices
    for _, rows, bound, _, sums in _routes(grid, pts, cols, dens):
        if keep is None:
            keep = np.ones(pts.size, dtype=bool)
        keep[rows] = False
        nearest[rows] = bound
        re_k.view(complex)[rows] = sums
        im_k[rows] = 0.0
    if keep is not None:
        direct = np.flatnonzero(keep)
        del sums  # stored in re_k: freed before the blocks' buffers
    rest = pts if direct is None else pts[direct]
    for rows, dr, di, d2 in distance_blocks(grid, rest) if rest.size else ():
        if direct is not None:
            rows = direct[rows]
        nearest[rows] = np.sqrt(d2.min(axis=1))
        np.reciprocal(d2, out=d2)
        re_k[rows] = np.multiply(dr, d2, out=dr) @ parts
        im_k[rows] = np.multiply(di, d2, out=di) @ parts
    return nearest, re_k, im_k


def _routes(grid, pts, cols, dens):
    """Yield (kind, rows, nearest, terms, sums) for the rows of a batch that
    leave the direct pass, one side of the nodes' annulus at a time: kind
    "outside", then "inside", rows an index array, nearest the annulus lower
    bound, terms the route's M and sums S = sum_k g_k/(z_k - p) over the
    columns g of cols, all from `_pullback_rows`.

    Only a batch of at least PULLBACK_ROWS points on a radius-1 grid of a
    map of degree at most PULLBACK_DEGREE is looked at; a smaller one
    returns before |p - c| is formed. A row is offered when its lower bound
    clears the band and d_node (`ContourGrid._pullback_map`) and exceeds L_in
    pi/n: outside rows at every such degree, inside rows at degree 1. The
    route runs when the two sides offer at least PULLBACK_ROWS rows
    together, with one FFT of the densities for both; it declines the rows
    its bound does not cover, and they stay direct. Infinite and NaN points
    stay direct. Call under np.errstate.
    """
    curve = grid.curve
    if pts.size < PULLBACK_ROWS or grid.radius != 1.0 or curve.degree > PULLBACK_DEGREE:
        return
    c, big, small = grid._node_annulus
    _, l_in, _, _, d_node = grid._pullback_map
    gap = np.abs(pts - c)
    bounds = {"outside": (gap - big) - 8 * EPS * (gap + big)}
    if curve.degree == 1:
        bounds["inside"] = (small - gap) - 8 * EPS * (small + gap)
    least = max(grid.exclusion_band, d_node)
    offered = {kind: np.flatnonzero((bound >= least) & (bound > l_in * np.pi / grid.n))
               for kind, bound in bounds.items()}  # False for infinite points
    if sum(rows.size for rows in offered.values()) < PULLBACK_ROWS:
        return
    spectra = None if dens is None else np.fft.fft(dens, axis=0)
    for kind, rows in offered.items():
        if rows.size:
            bound = bounds[kind][rows]
            taken, terms, sums, _ = _pullback_rows(grid, pts[rows], gap[rows], bound, cols,
                                                   spectra, kind == "inside")
            if taken.any():
                yield kind, rows[taken], bound[taken], terms, sums


def _pullback_rows(grid, p, gap, nearest, cols, spectra, inside=False):
    """(taken, terms, sums, bound) for rows p on one side of the nodes'
    annulus at |p - c| = gap, lower bounds nearest (each offered by
    `_routes`), given the densities' FFT spectra (None without one): the
    rows taken (a mask), M, their S = sum_k g_k/(z_k - p) and computed
    bounds, per unit of their share.

    In the pullback variable the sum is (1/n) sum g_k zeta_k phi'(zeta_k)/
    (phi(zeta_k) - p), and zeta phi'/(phi - p) = sum_i zeta/(zeta - zeta_i)
    over the N roots of phi - p. Outside, all lie beyond the unit circle;
    with u_i = 1/zeta_i and the modes F_m of each density (the winding
    column's are n, 0, ...), S = -i sum_{j=1..n} F_-j sum_i u_i^j/(1 - u_i^n)
    exactly. The route sums -i sum_{j<=M} F_-j p_j as one product, p_j =
    sum_i u_i^j by Newton's identities on b_l = a_l/(a0 - p)
    (`_power_sums`). Inside, at N = 1, the one root zeta0 = (p - a0)/a1 lies
    in the unit disk and S = i sum_{m=0..n-1} F_m zeta0^m/(1 - zeta0^n)
    exactly; the route sums i sum_{m<=M} F_m zeta0^m, the powers by
    `_power_sums` on b = -zeta0, and gives the winding column i n.

    Bound: outside |u_i| <= sigma = max(rho, L_out/(L_out + g)), g = nearest
    - L_in pi/n, as in `bundles._ring_modes`, so |p_j| <= N sigma^j; inside
    sigma is the exact |zeta0| = |p - a0|/|a1|, at least eps, times 1 + 4
    eps. Over 1 - sigma^n the dropped terms are at most N sigma^(M+1)
    sum_{M<j<=n/2} |F_-+j|, N sigma^(n+1-2^b) times the sum of |F_+-i| over
    each block 2^(b-1) <= i < 2^b of the other half (and i = 0), and N
    sigma^n sum |F_-+j| over the kept j. Rounding adds the FFT's 5 log2(n)
    eps sum |F| per mode times N sigma^f/(1 - sigma), f the least kept j,
    and, per unit of the sum of the kept |F|, the powers' kappa max_j j A_j,
    kappa = (1.2 N + 8) eps, and the product's (M + 2) eps N sigma^f. A_j is
    outside the recurrence on |b_l| at eight distances at or below the
    rows', inside sigma^j, whose j sigma^j is at most 1/(e log(1/sigma)).
    Terms are taken at the worst column, aliases at sixteen levels of sigma,
    powers clamped at e^-600. A row is taken when this is within its share,
    an eighth of `kernel_sums`' bound by the lower bound sum |w num|/(|p - c|
    + R) less 1 %. M is the least count up to n/(2 (N + columns)) whose tail
    takes half the share at the rows' largest sigma and |p - c|. Tables hold
    KERNEL_BLOCK entries per chunk of rows.
    """
    n, columns, half = grid.n, cols.size // grid.n, grid.n // 2
    _, big, _ = grid._node_annulus
    a, l_in, l_out, floor, _ = grid._pullback_map
    degree = a.size - 1
    if inside:
        sigma = np.maximum(gap / l_in, EPS) * (1.0 + 4 * EPS)
    else:
        sigma = np.maximum(l_out / (l_out + nearest - l_in * np.pi / n), floor) * (1.0 + 4 * EPS)
    log_s = np.log(sigma)
    low, top = log_s.min(), log_s.max()
    step = (top - low) / 15 if top > low else 1.0
    levels = np.minimum(low + step * np.arange(16), top)
    # each term per unit of its column's share of the bound, at the worst column
    limit = 0.99 * TWO_PI * n * EPS * np.array([abs(col).sum() for col in cols.reshape(n, -1).T])
    alias = np.exp(np.maximum(n * levels, -600.0)) * (n / limit[0])
    cap = n // (2 * (degree + columns))
    tail, rounding = np.zeros(cap + 1), 0.0
    if spectra is not None:
        mags = np.abs(spectra)
        pos, neg = mags[1:half + 1], mags[::-1][:half]  # |F_j| and |F_-j|, j = 1 .. n/2
        near, other = (pos, neg) if inside else (neg, pos)
        tails = np.cumsum(near[::-1], axis=0)[::-1]  # row M: sum_{M<j<=n/2} of the near side
        starts = 2 ** np.arange(int(math.log2(half))) - 1  # {1}, [2, 4), ... of the other
        blocks = np.vstack([mags[:1], np.add.reduceat(other[:half - 1], starts, axis=0)])
        blocks /= limit[1:]
        exponents = n + 1 - 2 ** np.arange(int(math.log2(half)) + 1)  # least j = n - i
        powers = np.exp(np.maximum(np.multiply.outer(levels, exponents), -600.0))
        alias = np.maximum(alias, (powers @ blocks).max(axis=1))
        norm = tails[0] / limit[1:] + blocks.sum(axis=0)  # sum |F| >= ||F||_2
        rounding = 5 * math.log2(n) * EPS * float(norm.max())
        tail = (tails[:cap + 1] / limit[1:]).max(axis=1)
    power_n = np.exp(np.maximum(n * log_s, -600.0))
    weight = degree * (gap + big) / (1.0 - power_n)
    short = tail * np.exp(np.maximum(np.arange(1, cap + 2) * top, -600.0)) <= 0.5 / weight.max()
    terms = int(np.argmax(short)) if short.any() else cap
    first, sign = (0, 1) if inside else (1, -1)
    modes = np.zeros((terms + 1, columns), dtype=complex)  # row j: the mode of p_j or zeta0^j
    if inside:
        modes[0, 0] = 1j * n
    if spectra is not None:
        modes[first:, 1:] = sign * 1j * spectra[sign * np.arange(first, terms + 1)]
    kept = float((np.abs(modes[:, 1:]).sum(axis=0) / limit[1:]).max(initial=0.0))
    if not terms:
        reach = 0.0
    elif inside:
        reach = np.minimum(terms, -1.0 / (math.e * log_s))
    else:
        closest, farthest = gap.min(), gap.max()
        spacing = math.log(farthest / closest) / 8 if farthest > closest else 1.0
        # eight distances at or below the rows', for the recurrence on |b_l|
        floors = closest * np.exp(spacing * np.arange(8)) * (1.0 - 16 * EPS)
        table = _power_sums(np.multiply.outer(-np.abs(a[1:]), 1.0 / floors), terms)
        level = np.minimum((np.log(gap / closest) / spacing).astype(int), 7)
        reach = (np.arange(1, terms + 1)[:, None] * table.real).max(axis=0)[level]
    kappa = 1.01 * (1.2 * degree + 8) * EPS
    excess = weight * (np.exp(np.maximum((terms + 1) * log_s, -600.0)) * tail[terms]
                       + alias[np.minimum(np.ceil((log_s - low) / step), 15).astype(int)]
                       + power_n * kept + (1.0 - power_n) * sigma ** first
                       * (rounding / (1.0 - sigma) + (terms + 2) * EPS * kept))
    excess += kappa * reach * (gap + big) * kept
    taken = excess <= 1.0
    sums = np.empty((np.count_nonzero(taken), columns), dtype=complex)
    sums[:] = modes[0]
    if terms and taken.any():
        b = ((a[0] - p[taken]) / a[1])[None] if inside \
            else np.multiply.outer(a[1:], 1.0 / (a[0] - p[taken]))
        width = max(1, KERNEL_BLOCK // (degree + terms))
        for lo in range(0, b.shape[1], width):  # each chunk's table freed before the next's
            sums[lo:lo + width] += _power_sums(b[:, lo:lo + width], terms).T @ modes[1:]
    return taken, terms, sums, excess[taken]


def _power_sums(b, terms):
    """(terms, rows) table of the power sums p_j = sum_i u_i^j, j = 1 ...
    terms, over the roots u_i of u^N + b_1 u^(N-1) + ... + b_N, one column
    of b (N, rows) per row: Newton's identities p_j = -sum_{l<j} b_l p_{j-l}
    - j b_j (b_l = 0 past N), one vector product and sum per j; for N = 1,
    p_j = (-b_1)^j by `_powers`."""
    degree = b.shape[0]
    if degree == 1:
        return _powers(-b[0], -b[0], terms)
    table = np.zeros((degree + terms, b.shape[1]), dtype=b.dtype)  # row N - 1 + j: p_j
    reverse, step = -b[::-1], np.empty_like(b)
    for j in range(1, terms + 1):
        np.multiply(reverse, table[j - 1:j - 1 + degree], out=step)
        step.sum(axis=0, out=table[degree - 1 + j])
        if j <= degree:
            table[degree - 1 + j] -= j * b[j - 1]
    return table[degree:]


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
    """Pre-rounding winding of the curve around z (trapezoidal quadrature);
    a z that is not finite is refused (ParseError), as in `sides`."""
    if not np.isfinite(z):
        raise ParseError(f"point {z} is not finite")
    return float(kernel_sums(grid, [z])[1][0])


def sides(grid, points, density=None):
    """(near, inside, sums) of the points from one `kernel_sums` pass.

    The one band and side decision of the package: near marks the points
    closer to a node than the exclusion band, as the pass measured them,
    inside the points off the band that the curve winds around; sums are the
    pass's Cauchy sums. A batch with a non-finite point is refused as a whole
    (ParseError); a finite point too far for its squared distance to be
    finite is still decided.
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


def unit_tangent(curve, t):
    """The holomorphic unit tangent T at z(t) = phi(e^{it}), the closed form
    `_pullback_tangent`; S'(z) = 1/T(z)^2 on the curve."""
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError("polygons have edge tangents only")
    return _pullback_tangent(curve, _circle_point(t))


def adaptive_refine(curve, functional, tol, n_start=MIN_NODES, n_max=MAX_NODES):
    """Double the node count until the functional moves less than tol.

    Returns the grid at the smallest n with |functional(n) - functional(2n)|
    below tol. Near-boundary refusals are retried at finer grids (the band
    shrinks with n); one is re-raised only when the last grid of the budget
    refuses, and otherwise a run out of budget is a NoConvergenceError.
    """
    if not 0.0 < tol < np.inf:
        raise ParseError(f"tolerance must be finite and positive, got {tol}")
    n = node_count(n_start)

    near = prev_grid = prev_val = None
    while True:
        grid = sample(curve, n)
        try:
            val, near = complex(functional(grid)), None
        except NearBoundaryError as exc:
            val, near = None, exc
        if prev_val is not None and val is not None \
                and abs(prev_val - val) < tol:
            return prev_grid
        if 2 * n > n_max:
            break
        n *= 2
        prev_grid, prev_val = grid, val
    if near is not None:
        raise near
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
