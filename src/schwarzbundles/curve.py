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
pass, `kernel_sums`: for a batch of points it gives the distance to the
nearest node, the winding number and, given densities, the trapezoidal
Cauchy sums, in real arithmetic on blocks of squared distances whose
differences z_k - p are exact k = 2 matrix products; one point is a
one-row block. `winding_number`, `transforms.cauchy_integral` and
`bundles.evaluate_section` are that pass for one point.

The band and side decision lives here alone: `sides` gives the points in
the exclusion band, the interior points and, given densities, the sums,
and `off_band` refuses a batch with a point in the band. Every caller that
classifies points or sums at them goes through them, the one-point section
and Cauchy-integral evaluators included. `clear_rows` places the points
that the nodes' annulus about the conformal center puts off the band on
either side of it; `sides` takes its places for them, with no pass, when
no density is asked for, and passes over the rest only.

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
# vertex pairs per block of `build_polygon`'s pass. Of 2^12 to 2^17, 2^15
# was fastest or within 12 % of it on the only passes a steady `sweep`
# benchmark cycle makes, its two lattices' band rows (32 to 42 points at
# n = 1024; a `sections` cycle makes none), and on 1600 points at n = 1024
# and 256-point rings at n = 4096 and 65536 (2-core x86_64, one BLAS
# thread).
KERNEL_BLOCK = 2 ** 15

EPS = np.finfo(float).eps


class Location(Enum):
    INTERIOR = "interior"
    EXTERIOR = "exterior"
    NEAR_BOUNDARY = "near-boundary"


def _poly_roots(coeffs):
    """The roots of sum_k coeffs[k] zeta^k. High-order coefficients too small
    to put a root anywhere near the validation disk are trimmed first: they
    only overflow the companion matrix. So is a top coefficient c_N with
    |c_N| <= eps^(N - k) |c_k| for some 1 <= k < N: the roots it adds lie
    beyond about 1/eps, where a series' factor of theirs is below rounding
    and c_N times their product is about c_k (the factor K of
    `laurent._factored`), and on |zeta| <= R it changes the polynomial by at
    most eps R times its c_k term. Kept, it swamps the other roots:
    `np.roots` gave a cubic with c3 = 1e-100 c2 no root near the disk. A
    constant term is never the c_k: a far point's one root stays. A root
    kept beyond 1e6 still costs `np.roots` digits of the near ones (1e-10
    of backward error with one at 2.7e14), so then each root within 1e3
    takes three Newton steps on the polynomial, each step kept where it is
    finite; the far roots, whose steps would round worse than the
    eigenvalues, stay. A linear polynomial's root is -coeffs[0]/coeffs[1],
    the bits `np.roots` gives it, without its eigenvalue call."""
    tiny = max(abs(c) for c in coeffs) * 1e-290
    top = max((k for k, c in enumerate(coeffs) if abs(c) > tiny), default=0)
    while any(abs(coeffs[top]) <= EPS ** (top - k) * abs(coeffs[k]) for k in range(1, top)):
        top = max(k for k in range(1, top) if coeffs[k])
    if top == 1 and coeffs[0]:
        return -np.array(coeffs[:1], dtype=complex) / complex(coeffs[1])
    roots = np.roots(coeffs[top::-1])
    size = np.abs(roots)
    near = size <= 1e3
    if near.any() and size.max() > 1e6:
        poly = np.array(coeffs[:top + 1], dtype=complex)
        slope = npoly.polyder(poly)
        roots = roots.astype(complex)
        with np.errstate(all="ignore"):
            for _ in range(3):
                step = npoly.polyval(roots[near], poly) / npoly.polyval(roots[near], slope)
                roots[near] -= np.where(np.isfinite(step), step, 0.0)
    return roots


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
        `kernel_sums`' products, formed once per grid."""
        ones = np.ones(self.n)
        return (_read_only(np.stack([-ones, self.z.real])),
                _read_only(np.stack([self.z.imag, -ones])))

    @cached_property
    def _node_annulus(self):
        """(c, R, r): the conformal center c and the largest and smallest
        |z_k - c|, formed once per grid for `clear_rows`."""
        c = self.curve.conformal_center
        gap = np.abs(self.z - c)
        return c, float(gap.max()), float(gap.min())

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


def kernel_sums(grid, points, density=None):
    """One pass of the trapezoidal Cauchy kernel over the nodes.

    Returns (nearest, winding, sums), one entry per point: the distance
    from the point to the nearest node, the pre-rounding winding number
    (1/2 pi i) * sum w dz/(z - p) and, when a density is given, the Cauchy
    sum (1/2 pi i) * sum w density dz/(z - p) (else None). A density of
    shape (n,) gives sums of shape (points,); one of shape (n, m) holds m
    densities as columns and gives sums of shape (points, m).

    The points go in blocks of about KERNEL_BLOCK node-point pairs, one
    row per point, written into the same four real buffers. Each row's dr
    + i di = z_k - p is two matrix products with k = 2, [Re p, 1] @ [-1;
    Re z] and [1, Im p] @ [Im z; -1], over one (points, 3) array [Re p, 1,
    Im p] and the grid's kept operands (`ContourGrid._node_parts`). Both
    products of an entry are exact, so the entry is their sum rounded
    once, as z_k - p is: the same bits, except that an exact zero may be +0
    where the subtraction gives -0, which d2 = dr^2 + di^2 squares away.
    nearest is sqrt(min d2), the same in any batch; 1/(z - p) = (dr - i
    di)/d2, and the winding and sums are real matrix products with the
    parts of g = [dz, density[:, 0] dz, ...]. Large |z_k - p| may overflow
    d2 to inf; the pass ignores the warning.

    Bound: a row's winding and sums differ from the same sum for the point
    alone, or taken term by term in complex arithmetic, by at most 8 n eps *
    sum_k |w num_k/(z_k - p)|, num = dz or density dz: BLAS summation order,
    which depends on the batch.

    A point on a node gives NaN; such rows lie inside the exclusion band,
    are computed without warnings and are the caller's to discard.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    cols = grid.dz
    if density is not None:
        density = np.asarray(density)
        dens = density.reshape(grid.n, -1)
        cols = np.empty((grid.n, 1 + dens.shape[1]), dtype=complex)
        cols[:, 0] = grid.dz
        np.multiply(dens, grid.dz[:, None], out=cols[:, 1:])
    parts = cols.view(float).reshape(grid.n, -1)  # Re and Im of each column
    left = np.empty((pts.size, 3))
    left[:, 0], left[:, 1], left[:, 2] = pts.real, 1.0, pts.imag
    right_r, right_i = grid._node_parts
    rows = max(1, min(pts.size, KERNEL_BLOCK // grid.n))
    dr, di, d2, sq = np.empty((4, rows, grid.n))
    nearest = np.empty(pts.size)
    re_k, im_k = np.empty((2, pts.size, parts.shape[1]))
    with np.errstate(all="ignore"):
        for lo in range(0, pts.size, rows):
            block = slice(lo, min(pts.size, lo + rows))
            m = block.stop - lo
            x, y, dist2, y2 = dr[:m], di[:m], d2[:m], sq[:m]  # views of this block
            np.matmul(left[block, :2], right_r, out=x)
            np.matmul(left[block, 1:], right_i, out=y)
            np.multiply(x, x, out=dist2)
            np.multiply(y, y, out=y2)
            dist2 += y2
            nearest[block] = np.sqrt(dist2.min(axis=1))
            np.reciprocal(dist2, out=dist2)
            re_k[block] = np.multiply(x, dist2, out=x) @ parts
            im_k[block] = np.multiply(y, dist2, out=y) @ parts
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


def clear_rows(grid, points):
    """(outside, inside): masks of the points that the annulus R >= |z_k -
    c| >= r of the nodes about c = curve.conformal_center places without a
    kernel pass. A point is outside when |p - c| - R, inside when r - |p -
    c|, less eight ulps of |p - c| + R or r + |p - c|, is at least the
    exclusion band. Such a point is at least the band from every node, and
    the curve, which lies within the band of its nodes, winds once around
    it inside and not at all outside, with c in the domain: `sides` decides
    it the same way. A point whose |p - c| is not finite is in neither."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    c, big, small = grid._node_annulus
    with np.errstate(all="ignore"):
        gap = np.abs(pts - c)
        outside = (gap - big) - 8 * EPS * (gap + big) >= grid.exclusion_band
        inside = (small - gap) - 8 * EPS * (small + gap) >= grid.exclusion_band
    return outside, inside


def winding_number(grid, z):
    """Pre-rounding winding of the curve around z (trapezoidal quadrature);
    a z that is not finite is refused (ParseError), as in `sides`."""
    if not np.isfinite(z):
        raise ParseError(f"point {z} is not finite")
    return float(kernel_sums(grid, [z])[1][0])


def sides(grid, points, density=None):
    """(near, inside, sums) of the points: the one band and side decision of
    the package.

    near marks the points closer to a node than the exclusion band, as a
    `kernel_sums` pass measures them, inside the points off the band that
    the curve winds around; sums are the pass's Cauchy sums (else None).
    A batch with a non-finite point is refused as a whole (ParseError)
    before any decision. Without a density, a point that `clear_rows`
    places takes the side it names, which is the pass's decision, with no
    pass, and only the other points are summed; with a density every point
    is. A finite point too far for its squared distance to be finite is
    still decided.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if not np.isfinite(pts).all():
        raise ParseError("points must be finite")
    near, sums = np.zeros(pts.size, dtype=bool), None
    if density is None:
        outside, inside = clear_rows(grid, pts)
        rest = ~(outside | inside)
    else:
        inside, rest = near.copy(), slice(None)
    if density is not None or rest.any():
        nearest, winding, sums = kernel_sums(grid, pts[rest], density)
        banded = nearest < grid.exclusion_band
        near[rest], inside[rest] = banded, ~banded & (winding > 0.5)
    return near, inside, sums


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
