"""Line bundles on the Riemann sphere from a transition function near the
curve, their Chern classes, and canonical holomorphic sections.

A bundle is a single nonvanishing analytic function lambda12 on an annular
neighborhood of the curve, gluing the interior and exterior charts. Its Chern
class is the winding of lambda12 along the curve. For nonnegative Chern class
the canonical section pair (f1 inside, f2 outside) is built from the Cauchy
integral of the unwrapped boundary log density, with a divisor adjustment
(z - a)^{-c} at an interior point a when c > 0.

A `LineBundle` is its transition function: `transition(grid)` gives
lambda12 at the nodes of the curve's grid or of a ring, and each constructor
supplies that closure. The built-in ones are closed forms in the pullback
variable zeta of z = phi(zeta), so the grid nodes zeta = e^{it} and the
verification rings |zeta| = r need no Newton inversion of the map. exp(S)
also supplies its log at the nodes, S itself, because exp(S) overflows on
far curves; the Schwarz-pole bundle supplies its pole, the default
adjustment point when interior, and its section is the exponential
transform (`_pole_density`). The tangent powers T^{-m} take T = dz/|dz|
on the curve; on a ring the square root in T is taken once per node and its
sign carried around the ring from node 0, and only scattered points track
it radially. The gluing is verified by moving the contour; the
verification points are searched over radii with a cheap upper bound on
their distance to the curve before the full distance pass, and every band
and side decision is `curve.sides`. The two verification rings and the
points depend on the grid alone: they are built once per grid and kept on
it, and every check runs on every call.
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
    BranchUnresolvedError,
    NearBoundaryError,
    NoHolomorphicSectionError,
)
from .schwarz import _like, invert_conformal_map
from .transforms import PHASE_STEP_LIMIT, cauchy_integral, unwrap_log

# node spacings (in the pullback radius) from the curve to verification rings
_VERIFY_SPACINGS = 6.0

ONE_AT_INFINITY = "one-at-infinity"
LEADING_ONE_OVER_Z = "leading-one-over-z"


def _pullback_tangent(curve, zeta):
    """Holomorphic unit tangent at scattered pullback points zeta (arrays
    welcome), by radial tracking of the square root.

    T = i zeta phi'(zeta) / sqrt(g), g = phi'(zeta) * conj-phi'(1/zeta); the
    root is followed in 8 radial steps from the boundary circle, where g =
    |phi'|^2 and the root is positive, so on the circle T = dz/|dz|. g is
    evaluated at all 9 radii in one pass and the sign carried over them. Ring
    grids carry the root around the ring instead (`_ring_tangent_power`)
    and call this for their node 0 only.
    """
    zeta = np.asarray(zeta, dtype=complex)
    r, base = np.abs(zeta), zeta / np.abs(zeta)
    steps = 8
    k = np.arange(steps + 1).reshape((-1,) + (1,) * zeta.ndim)
    zz = base * (1.0 + (r - 1.0) * k / steps)  # row k: radius 1 + (r - 1) k/8
    cands = np.sqrt(curve.dphi(zz) * curve.dphi_reflected(zz))
    root = 1.0  # the product is |phi'|^2 > 0 on the circle (row 0)
    for cand in cands:
        root = np.where(np.abs(cand - root) > np.abs(cand + root), -cand, cand)
    return 1j * zeta * curve.dphi(zeta) / root


def _ring_tangent_power(grid, m):
    """T^{-m} at the nodes of a ring grid, |zeta| = grid.radius.

    On the curve T = dz/|dz|. Off it T^2 = dz^2/g needs no root for even m;
    for odd m the root of g is taken once per node and its sign carried
    around the ring by continuity, anchored at node 0 by the radial
    tracking. A carried step of PHASE_STEP_LIMIT / 2 or more leaves the sign
    ambiguous and raises BranchUnresolvedError (refine the grid).
    """
    if grid.radius == 1.0:
        return (grid.dz / np.abs(grid.dz)) ** (-m)
    curve = grid.curve
    g = curve.dphi(grid.zeta) * curve.dphi_reflected(grid.zeta)
    if m % 2 == 0:
        return (g / grid.dz ** 2) ** (m // 2)
    root = np.sqrt(g)
    flips = (root[1:] * np.conjugate(root[:-1])).real < 0.0
    root[1:] *= np.where(np.cumsum(flips) % 2, -1.0, 1.0)
    step = np.abs(np.angle(np.roll(root, -1) / root)).max()
    if step >= PHASE_STEP_LIMIT / 2:
        raise BranchUnresolvedError(
            f"square-root step {step:.3f} >= {PHASE_STEP_LIMIT / 2:.3f} between "
            f"adjacent nodes of the ring |zeta| = {grid.radius:.6g}; refine the grid")
    tangent = grid.dz / root
    anchor = _pullback_tangent(curve, grid.zeta[:1])[0]
    if abs(anchor - tangent[0]) > abs(anchor + tangent[0]):
        tangent = -tangent
    return tangent ** (-m)


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


def _node_log(bundle, grid):
    """(lambda12, its continuous log, Chern class) at the grid nodes; a
    bundle's own log gives (None, log, 0)."""
    if bundle.log is not None:
        return None, bundle.log(grid), 0
    vals = bundle.transition_at_nodes(grid)
    log, winding = unwrap_log(vals)
    return vals, log, round(winding)


def chern_class(bundle, grid):
    """Winding of lambda12 along the curve: (1/2 pi i) * integral of dlog.

    The phase steps sum to 2 pi k up to rounding. Raises BranchUnresolvedError
    for under-resolved phases or a zero or non-finite lambda12 at a node."""
    return _node_log(bundle, grid)[2]


@dataclass(frozen=True, eq=False)
class SectionPair:
    """Canonical holomorphic section of a line bundle.

    Stored as the unwrapped boundary log density; f1 (interior side) and f2
    (exterior side) are Cauchy integrals of it. For Chern class c > 0 the
    density is adjusted by (zeta - a)^{-c} and f2 carries the factor
    (z - a)^{-c} back, so f2 ~ z^{-c} at infinity.
    """

    grid: ContourGrid
    density: np.ndarray
    chern: int
    adjustment: complex
    normalization: str

    def f1(self, z):
        """Interior-side evaluator (analytic in the domain)."""
        return np.exp(cauchy_integral(self.grid, self.density, z))

    def f2(self, z):
        """Exterior-side evaluator (analytic outside, normalized at infinity)."""
        if self.chern:
            return self.f1(z) * (z - self.adjustment) ** (-self.chern)
        return self.f1(z)


def canonical_section(bundle, grid, a=None, branch_offset=0):
    """Canonical section of the bundle, normalized at infinity.

    Chern class 0 gives the unique section with f2(inf) = 1; class 1 the
    unique section vanishing like 1/z. The adjustment point defaults to the
    bundle pole when that is interior, else to the conformal center phi(0).
    `branch_offset` shifts the interior base branch of the log by 2 pi i
    times the offset (sections differ by a constant factor of modulus 1).
    """
    vals, density, c = _node_log(bundle, grid)
    if c < 0:
        raise NoHolomorphicSectionError(
            f"Chern class {c} < 0 admits no holomorphic sections")
    adjustment = None
    if c > 0:
        adjustment = _resolve_adjustment(bundle, grid, a)
        density, _ = unwrap_log(vals * (grid.z - adjustment) ** (-c))
    if branch_offset:
        density = density + 2j * np.pi * int(branch_offset)
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
    """f1(z) inside the curve, f2(z) outside; refuses the exclusion band."""
    z = complex(z)
    side = require_off_band(section.grid, z)
    return section.f1(z) if side is Location.INTERIOR else section.f2(z)


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
    """The verification points of `annulus_verification_points`, 2 * half.

    A point's distance to the two nodes at its own angle bounds its gap from
    above, so a radius where that bound already lies inside the band is
    refused without the full distance pass; radii and points are the same.
    """
    curve = grid.curve
    angles = 2.0 * np.pi * (np.arange(half) + 0.37) / half
    base = np.exp(1j * angles)
    below = (angles / grid.weight).astype(int) % grid.n
    beside = np.tile(grid.z[np.stack([below, (below + 1) % grid.n])], 2)
    s = _VERIFY_SPACINGS * (TWO_PI / grid.n)
    while True:
        r_in = _clear_radius(curve, s)
        pts = np.concatenate([curve.phi(r_in * base), curve.phi((1.0 / r_in) * base)])
        # a cheap upper bound on the gap, not the band decision: a radius it
        # puts in the band is refused; one it clears goes to `sides`
        if not np.any(np.abs(beside - pts).min(axis=0) < grid.exclusion_band):
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
    a zero or pole of lambda12 between ring and curve (ring winding is not
    the Chern class) and an adjustment point outside the inner ring.

    The two rings are built once per grid and kept on it; every band, side
    and Chern check above runs on every call."""
    grid, a = section.grid, section.adjustment
    pts = np.asarray(annulus_points, dtype=complex).reshape(-1)
    inside, sums = off_band(grid, pts, section.density)
    worst = 0.0
    for ring, side in zip(_kept(grid, _verification_rings), (inside, ~inside)):
        if not side.any():
            continue
        vals, density, c = _node_log(bundle, ring)
        if c != section.chern:
            raise NearBoundaryError(
                "a zero or pole of lambda12 lies between the curve and the ring "
                f"|zeta| = {ring.radius:.6g}; refine the grid")
        if c and locate(ring, a) is not Location.INTERIOR:
            raise NearBoundaryError(
                f"adjustment point {a} is not strictly inside the ring "
                f"|zeta| = {ring.radius:.6g}; refine the grid")
        if c:
            density, _ = unwrap_log(vals * (ring.z - a) ** (-c))
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
