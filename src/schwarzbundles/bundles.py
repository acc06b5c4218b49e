"""Line bundles on the Riemann sphere from a transition function near the
curve, their Chern classes, and canonical holomorphic sections.

A bundle is a single nonvanishing analytic function lambda12 on an annular
neighborhood of the curve, gluing the interior and exterior charts. Its Chern
class is the winding of lambda12 along the curve. For nonnegative Chern class
the canonical section (f1 inside, f2 outside) is the exponential of the
Cauchy integral of the unwrapped boundary log density, with a divisor
adjustment (z - a)^{-c} at an interior point a when c > 0;
`evaluate_section` takes the side of a point and the sum there from one
`curve.off_band` pass.

A `LineBundle` is its transition function: `transition(grid)` gives
lambda12 at the nodes of the curve's grid or of a ring, and each constructor
supplies that closure. The built-in ones are closed forms in the pullback
variable zeta of z = phi(zeta), so the grid nodes zeta = e^{it} and the
verification rings |zeta| = r need no Newton inversion of the map. exp(S)
also supplies its log at the nodes, S itself, because exp(S) overflows on
far curves; the Schwarz-pole bundle supplies its pole, the default
adjustment point when interior, and its section is the exponential
transform (`_pole_density`). The tangent powers T^{-m} take T = dz/|dz|
on the curve; on a ring and at scattered points the square root in T is
the principal root of g with the sign of the factored root over the zeros
of phi', one closed form in zeta (`_pullback_tangent`). The gluing
is verified by moving the contour: each verification ring's density is one
unwrap of lambda12 (z - a)^{-c}, with the section's own Chern class c and
adjustment point a. The verification points are searched over radii, one
distance pass per radius, and every band and side decision is
`curve.sides`. The two verification rings and the points depend on the
grid alone: they are built once per grid and kept on it, and every check
runs on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .curve import (
    TWO_PI,
    ContourGrid,
    Location,
    _ring,
    locate,
    off_band,
    require_off_band,
    sides,
)
from .errors import (
    AdjustmentPointNotInteriorError,
    NearBoundaryError,
    NoHolomorphicSectionError,
)
from .schwarz import _like, invert_conformal_map
from .transforms import unwrap_log

# node spacings (in the pullback radius) from the curve to verification rings
_VERIFY_SPACINGS = 6.0

ONE_AT_INFINITY = "one-at-infinity"
LEADING_ONE_OVER_Z = "leading-one-over-z"


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
    for s in 1.0 / curve.dphi_roots:
        product *= np.sqrt((1.0 + abs(s) ** 2) - (zeta * s + s.conjugate() / zeta))
    flip = (root * np.conjugate(product)).real < 0.0
    return 1j * zeta * dphi / np.where(flip, -root, root)


def _ring_tangent_power(grid, m):
    """T^{-m} at the nodes of a ring grid, |zeta| = grid.radius: on the curve
    T = dz/|dz|, elsewhere the closed form of `_pullback_tangent`."""
    if grid.radius == 1.0:
        return (grid.dz / np.abs(grid.dz)) ** (-m)
    return _pullback_tangent(grid.curve, grid.zeta) ** (-m)


def holomorphic_tangent(curve, z):
    """Holomorphic extension of the unit tangent to the validated annulus,
    at a scalar z (a Python complex) or an array of points."""
    return _like(z, _pullback_tangent(curve, invert_conformal_map(curve, z)))


@dataclass(frozen=True, eq=False)
class LineBundle:
    """Transition function lambda12 on the annulus around a curve.

    `transition(grid)` is lambda12 at the nodes of a grid on the curve or on
    a ring. `log(grid)`, when given, is a single-valued log of lambda12 at
    the nodes (Chern class 0), used in place of the values. `pole`, when
    given, is the default adjustment point if it is interior.
    """

    curve: object
    transition: Callable
    log: Callable = None
    pole: complex = None

    def transition_at_nodes(self, grid):
        """lambda12 at the grid nodes."""
        with np.errstate(all="ignore"):  # a pole on a node: unwrap_log refuses
            return self.transition(grid)


def exp_schwarz_bundle(curve):
    """lambda12 = exp(S), the bundle whose section is the Cauchy transform pair.

    Its log is S, anchored like unwrap_log at node 0's principal branch;
    exp(S) may overflow and is not formed for the log."""
    def log(grid):
        s = curve.phi_reflected(grid.zeta)
        k = round((s[0].imag - np.angle(np.exp(1j * s[0].imag))) / (2.0 * np.pi))
        return s - 2j * np.pi * k

    return LineBundle(curve, lambda grid: np.exp(curve.phi_reflected(grid.zeta)),
                      log=log)


def _pole_transition(grid, w):
    """1/(S - conj w) at the nodes; m points w give one column each, (n, m)."""
    return 1.0 / np.subtract.outer(grid.curve.phi_reflected(grid.zeta), np.conjugate(w))


def schwarz_pole_bundle(curve, w):
    """lambda12 = 1/(S - conj w), for a parameter point w off the curve."""
    w = complex(w)
    return LineBundle(curve, lambda grid: _pole_transition(grid, w), pole=w)


def _pole_density(grid, w, interior):
    """`canonical_section(schwarz_pole_bundle(curve, w), grid).density`, bit
    for bit, at a located w: adjusted at w (Chern class 1) if interior."""
    vals = _pole_transition(grid, w)
    return unwrap_log(vals * (grid.z - w) ** (-1) if interior else vals)[0]


def tangent_power_bundle(curve, m):
    """lambda12 = T^{-m}; m = 2 is the canonical bundle with lambda12 = S'."""
    m = int(m)
    return LineBundle(curve, lambda grid: _ring_tangent_power(grid, m))


def custom_bundle(curve, evaluator):
    """lambda12 = evaluator(z), called once on the node array; a scalar
    result is broadcast to every node."""
    return LineBundle(curve, lambda grid: np.full(grid.n, evaluator(grid.z), dtype=complex))


def _node_log(bundle, grid, c=0, a=None):
    """(lambda12, the continuous log of lambda12 * (z - a)^{-c}, its winding)
    at the grid nodes, from one `unwrap_log` call; c = 0 leaves lambda12 as
    it is, and its winding is the Chern class. A bundle's own log gives
    (None, log, 0); it is given only for Chern class 0."""
    if bundle.log is not None:
        return None, bundle.log(grid), 0
    vals = bundle.transition_at_nodes(grid)
    log, winding = unwrap_log(vals * (grid.z - a) ** (-c) if c else vals)
    return vals, log, round(winding)


def chern_class(bundle, grid):
    """Winding of lambda12 along the curve: (1/2 pi i) * integral of dlog.

    The phase steps sum to 2 pi k up to rounding. Raises BranchUnresolvedError
    for under-resolved phases or a zero or non-finite lambda12 at a node."""
    return _node_log(bundle, grid)[2]


@dataclass(frozen=True, eq=False)
class SectionPair:
    """Canonical holomorphic section of a line bundle.

    Stored as the unwrapped boundary log density; `evaluate_section` gives
    its value f1 inside the curve and f2 outside, from the density's Cauchy
    sum. For Chern class c > 0 the density is adjusted by (zeta - a)^{-c} and
    f2 carries the factor (z - a)^{-c} back, so f2 ~ z^{-c} at infinity.
    """

    grid: ContourGrid
    density: np.ndarray
    chern: int
    adjustment: complex
    normalization: str


def canonical_section(bundle, grid, a=None):
    """Canonical section of the bundle, normalized at infinity.

    Chern class 0 gives the unique section with f2(inf) = 1; class 1 the
    unique section vanishing like 1/z. The adjustment point defaults to the
    bundle pole when that is interior, else to the conformal center phi(0).
    """
    vals, density, c = _node_log(bundle, grid)
    if c < 0:
        raise NoHolomorphicSectionError(
            f"Chern class {c} < 0 admits no holomorphic sections", chern=c)
    adjustment = None
    if c > 0:
        adjustment = _resolve_adjustment(bundle, grid, a)
        density, _ = unwrap_log(vals * (grid.z - adjustment) ** (-c))
    normalization = ONE_AT_INFINITY if c == 0 else LEADING_ONE_OVER_Z
    return SectionPair(grid=grid, density=density, chern=c,
                       adjustment=adjustment, normalization=normalization)


def _resolve_adjustment(bundle, grid, a):
    """a, else the bundle pole if interior, else the conformal center; one
    kernel pass locates each candidate."""
    if a is None and bundle.pole is not None \
            and locate(grid, bundle.pole) is Location.INTERIOR:
        return complex(bundle.pole)
    a = complex(bundle.curve.conformal_center if a is None else a)
    if require_off_band(grid, a) is not Location.INTERIOR:
        raise AdjustmentPointNotInteriorError(
            f"adjustment point {a} is not strictly interior")
    return a


def evaluate_section(section, z):
    """f1(z) inside the curve, f2(z) outside, from one `curve.off_band`
    pass: exp of the density's Cauchy sum at z, times (z - a)^{-c} outside.
    Refuses z in the exclusion band (NearBoundaryError) and a non-finite z
    (ParseError)."""
    z = complex(z)
    inside, sums = off_band(section.grid, [z], section.density)
    value = np.exp(sums[0])
    if inside[0] or not section.chern:
        return value
    return value * (z - section.adjustment) ** (-section.chern)


def _clear_radius(curve, s):
    """r = 1 - s, refused unless r and 1/r keep clear of the annulus edges."""
    r = 1.0 - s
    if r <= curve.rho * 1.02 or 1.0 / r >= (1.0 / curve.rho) * 0.98:
        raise NearBoundaryError(
            "cannot place verification points between the exclusion band "
            "and the validated annulus; refine the grid")
    return r


def _kept(grid, build, *args):
    """build(grid, *args), made once per grid and arguments and kept on the
    grid, as `functools.cached_property` keeps `ContourGrid._node_parts`. An
    error raised by build is not kept; a race only builds the value twice."""
    memo = grid.__dict__.setdefault("_kept", {})
    key = (build, *args)
    if key not in memo:
        memo[key] = build(grid, *args)
    return memo[key]


def _verification_rings(grid):
    """The rings |zeta| = 1/r and r, r = 1 - 12 pi / n, of
    `verify_transition`, sharing the grid's t; NearBoundaryError when they
    leave the validated annulus."""
    r = _clear_radius(grid.curve, _VERIFY_SPACINGS * (TWO_PI / grid.n))
    return tuple(replace(_ring(grid.curve, grid.n, radius), t=grid.t)
                 for radius in (1.0 / r, r))


def annulus_verification_points(grid, n_points=32):
    """Reflected point pairs in the annulus, clear of the exclusion band.

    Points sit at pullback radii r and 1/r on intermediate angles; r backs
    away from the curve until every point classifies as strictly interior or
    exterior. Raises NearBoundaryError when the validated annulus is too thin
    for the current grid (refine the grid).

    The points depend on the grid and n_points // 2 alone: they are searched
    once per grid and count, and every call returns a fresh copy.
    """
    return _kept(grid, _search_points, max(1, int(n_points) // 2)).copy()


def _search_points(grid, half):
    """The verification points of `annulus_verification_points`, 2 * half:
    the first radius r = 1 - s, s = 6 * 2 pi / n * 1.3^k, whose points
    `curve.sides` puts clear of the band, in one distance pass per radius."""
    curve = grid.curve
    base = np.exp(1j * (2.0 * np.pi * (np.arange(half) + 0.37) / half))
    s = _VERIFY_SPACINGS * (TWO_PI / grid.n)
    while True:
        r_in = _clear_radius(curve, s)
        pts = np.concatenate([curve.phi(r_in * base), curve.phi((1.0 / r_in) * base)])
        if not sides(grid, pts)[0].any():
            return pts
        s *= 1.3


def verify_transition(section, bundle, annulus_points):
    """Contour-shift residual of the section's gluing f1 = lambda12 * f2.

    By Cauchy's theorem the section, the Cauchy integral of the adjusted log
    lambda12, must not move when rebuilt from the bundle on the ring
    |zeta| = 1/r for interior points (f1) or r for exterior ones (f2),
    r = 1 - 6 * 2 pi / n. The residual is max |log f - log f_ring|, imaginary
    part mod 2 pi (no exp, no lambda12 at the points). It detects a section of
    another bundle and a density off log lambda12 (modes e^{ikt}: k >= 0
    inside, k < 0 outside). NearBoundaryError (refine the grid) refuses a
    point in the curve's or its ring's band, a ring off the validated annulus,
    an adjustment point outside the inner ring and a zero or pole of
    lambda12 between ring and curve.

    Each ring's density is one `_node_log` unwrap of lambda12 (z - a)^{-c},
    with c and a the section's own Chern class and adjustment point; once a
    is inside the ring, a zero or pole between ring and curve shows as an
    adjusted winding other than 0. The two rings are built once per grid and
    kept on it; every band, side and winding check runs on every call."""
    grid, a, c = section.grid, section.adjustment, section.chern
    pts = np.asarray(annulus_points, dtype=complex).reshape(-1)
    inside, sums = off_band(grid, pts, section.density)
    worst = 0.0
    for ring, side in zip(_kept(grid, _verification_rings), (inside, ~inside)):
        if not side.any():
            continue
        if c and locate(ring, a) is not Location.INTERIOR:
            raise NearBoundaryError(
                f"adjustment point {a} is not strictly inside the ring "
                f"|zeta| = {ring.radius:.6g}; refine the grid")
        _, density, winding = _node_log(bundle, ring, c, a)
        if winding:
            raise NearBoundaryError(
                "a zero or pole of lambda12 lies between the curve and the ring "
                f"|zeta| = {ring.radius:.6g}; refine the grid")
        delta = off_band(ring, pts[side], density)[1] - sums[side]
        delta -= 2j * np.pi * np.round(delta.imag / TWO_PI)  # branch of the log
        worst = max(worst, float(np.abs(delta).max()))
    return worst


def verify_m_differential_match(f1_eval, f2_eval, curve, grid, m):
    """Max node residual of the half-order matching f1 * T^m = conj(f2).

    Each evaluator is called once, on the node array; a scalar result is
    broadcast to every node."""
    tangents = grid.dz / np.abs(grid.dz)
    return float(np.abs(f1_eval(grid.z) * tangents ** int(m)
                        - np.conjugate(f2_eval(grid.z))).max())


def section_to_json(section):
    """Dump a section as boundary density samples plus metadata."""
    adjustment = None
    if section.adjustment is not None:
        adjustment = [section.adjustment.real, section.adjustment.imag]
    return {
        "chern": section.chern,
        "adjustment": adjustment,
        "normalization": section.normalization,
        "density": [{"t": float(t), "re": float(d.real), "im": float(d.imag)}
                    for t, d in zip(section.grid.t, section.density)],
    }
