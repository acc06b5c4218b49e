"""Line bundles on the Riemann sphere from a transition function near the
curve, their Chern classes, and canonical holomorphic sections.

A bundle is a single nonvanishing analytic function lambda12 on an annular
neighborhood of the curve, gluing the interior and exterior charts. Its Chern
class is the winding of lambda12 along the curve. For nonnegative Chern class
the canonical section pair (f1 inside, f2 outside) is built from the Cauchy
integral of the unwrapped boundary log density, with a divisor adjustment
(z - a)^{-c} at an interior point a when c > 0.

Built-in transitions are closed forms in the pullback variable zeta of
z = phi(zeta), so at the grid nodes zeta = e^{it} they need no Newton
inversion of the map; for exp(S) the node log density is S itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curve import ContourGrid, Location, locate, require_off_band
from .errors import (
    AdjustmentPointMissingError,
    AdjustmentPointNotInteriorError,
    BranchUnresolvedError,
    NearBoundaryError,
    NoHolomorphicSectionError,
    NotAnIntegerError,
)
from .schwarz import invert_conformal_map
from .transforms import cauchy_integral, unwrap_log

INTEGER_WINDING_TOL = 1e-6

ONE_AT_INFINITY = "one-at-infinity"
LEADING_ONE_OVER_Z = "leading-one-over-z"


class BundleKind(Enum):
    EXP_SCHWARZ = "exp-schwarz"
    SCHWARZ_POLE = "schwarz-pole"
    TANGENT_POWER = "tangent-power"
    CUSTOM = "custom"


def _pullback_tangent(curve, zeta):
    """Holomorphic unit tangent at pullback points zeta (arrays welcome).

    T = i zeta phi'(zeta) / sqrt(phi'(zeta) * conj-phi'(1/zeta)); the square
    root branch is tracked radially from the boundary circle, where it is the
    positive root |phi'|, so on the circle T = dz/|dz|.
    """
    zeta = np.asarray(zeta, dtype=complex)
    r, base = np.abs(zeta), zeta / np.abs(zeta)
    root = 1.0  # the product below is |phi'|^2 > 0 on the circle (k = 0)
    steps = 8
    for k in range(steps + 1):
        zz = base * (1.0 + (r - 1.0) * k / steps)
        cand = np.sqrt(curve.dphi(zz) * curve.dphi_reflected(zz))
        root = np.where(np.abs(cand - root) > np.abs(cand + root), -cand, cand)
    return 1j * zeta * curve.dphi(zeta) / root


def holomorphic_tangent(curve, z):
    """Holomorphic extension of the unit tangent to the validated annulus."""
    return complex(_pullback_tangent(curve, invert_conformal_map(curve, z)))


@dataclass(frozen=True, eq=False)
class LineBundle:
    """Transition function lambda12 on the annulus around a curve."""

    curve: object
    kind: BundleKind
    pole: complex = None
    power: int = None
    evaluator: object = None
    reciprocal_evaluator: object = None

    def at_zeta(self, zeta):
        """lambda12 of a built-in bundle at pullback points zeta, z = phi(zeta)."""
        if self.kind is BundleKind.EXP_SCHWARZ:
            return np.exp(self.curve.phi_reflected(zeta))
        if self.kind is BundleKind.SCHWARZ_POLE:
            return 1.0 / (self.curve.phi_reflected(zeta) - np.conjugate(self.pole))
        return _pullback_tangent(self.curve, zeta) ** (-self.power)

    def transition(self, z):
        """lambda12 at a point of the annulus."""
        if self.kind is BundleKind.CUSTOM:
            return complex(self.evaluator(z))
        return complex(self.at_zeta(invert_conformal_map(self.curve, z)))

    def transition_reciprocal(self, z):
        """lambda21 = 1/lambda12."""
        if self.reciprocal_evaluator is not None:
            return complex(self.reciprocal_evaluator(z))
        return 1.0 / self.transition(z)

    def transition_at_nodes(self, grid):
        """lambda12 at the grid nodes, in closed form at grid.zeta unless custom."""
        if self.kind is BundleKind.CUSTOM:
            return np.array([complex(self.evaluator(z)) for z in grid.z])
        with np.errstate(all="ignore"):  # a pole on a node: unwrap_log refuses
            return self.at_zeta(grid.zeta)


def exp_schwarz_bundle(curve):
    """lambda12 = exp(S), the bundle whose section is the Cauchy transform pair."""
    return LineBundle(curve=curve, kind=BundleKind.EXP_SCHWARZ)


def schwarz_pole_bundle(curve, w):
    """lambda12 = 1/(S - conj w), for a parameter point w off the curve."""
    return LineBundle(curve=curve, kind=BundleKind.SCHWARZ_POLE, pole=complex(w))


def tangent_power_bundle(curve, m):
    """lambda12 = T^{-m}; m = 2 is the canonical bundle with lambda12 = S'."""
    return LineBundle(curve=curve, kind=BundleKind.TANGENT_POWER, power=int(m))


def custom_bundle(curve, evaluator, reciprocal_evaluator=None):
    return LineBundle(curve=curve, kind=BundleKind.CUSTOM, evaluator=evaluator,
                      reciprocal_evaluator=reciprocal_evaluator)


def _node_log(bundle, grid):
    """(lambda12, its continuous log, Chern class) at the grid nodes.

    For exp(S) the log is S, single-valued (class 0), anchored like unwrap_log
    at node 0's principal branch; exp(S) may overflow and is not formed.
    """
    if bundle.kind is BundleKind.EXP_SCHWARZ:
        s = bundle.curve.phi_reflected(grid.zeta)
        k = round((s[0].imag - np.angle(np.exp(1j * s[0].imag))) / (2.0 * np.pi))
        return None, s - 2j * np.pi * k, 0
    vals = bundle.transition_at_nodes(grid)
    log, winding = unwrap_log(vals)
    nearest = round(winding)
    if abs(winding - nearest) >= INTEGER_WINDING_TOL:
        raise NotAnIntegerError(f"winding {winding} is not close to an integer")
    return vals, log, int(nearest)


def chern_class(bundle, grid):
    """Winding of lambda12 along the curve: (1/2 pi i) * integral of dlog.

    Raises BranchUnresolvedError for under-resolved phases and
    NotAnIntegerError if the accumulated winding does not round cleanly.
    """
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
    if a is None:
        if bundle.kind is BundleKind.SCHWARZ_POLE \
                and locate(grid, bundle.pole) is Location.INTERIOR:
            a = bundle.pole
        else:
            a = bundle.curve.conformal_center
        if a is None:
            raise AdjustmentPointMissingError(
                "nonzero Chern class needs an interior adjustment point")
    a = complex(a)
    if require_off_band(grid, a) is not Location.INTERIOR:
        raise AdjustmentPointNotInteriorError(
            f"adjustment point {a} is not strictly interior")
    return a


def evaluate_section(section, z):
    """f1(z) inside the curve, f2(z) outside; refuses the exclusion band."""
    z = complex(z)
    side = require_off_band(section.grid, z)
    return section.f1(z) if side is Location.INTERIOR else section.f2(z)


def annulus_verification_points(grid, n_points=32):
    """Reflected point pairs in the annulus, clear of the exclusion band.

    Points sit at pullback radii r and 1/r on intermediate angles; r backs
    away from the curve until every point classifies as strictly interior or
    exterior. Raises NearBoundaryError when the validated annulus is too thin
    for the current grid (refine the grid).
    """
    curve = grid.curve
    half = max(1, int(n_points) // 2)
    angles = 2.0 * np.pi * (np.arange(half) + 0.37) / half
    base = np.exp(1j * angles)
    s = 6.0 * (2.0 * np.pi / grid.n)
    while True:
        r_in = 1.0 - s
        if r_in <= curve.rho * 1.02 or 1.0 / r_in >= (1.0 / curve.rho) * 0.98:
            raise NearBoundaryError(
                "cannot place verification points between the exclusion band "
                "and the validated annulus; refine the grid")
        pts = np.concatenate([curve.phi(r_in * base), curve.phi((1.0 / r_in) * base)])
        # the band test of locate, for all points in one pass
        gap = np.abs(grid.z[None, :] - pts[:, None]).min(axis=1)
        if not np.any(gap < grid.exclusion_band):
            return pts
        s *= 1.3


def verify_transition(section, bundle, annulus_points):
    """Max normalized residual of f1 = lambda12 * f2 over annulus points.

    On each side the native evaluator is used directly and the opposite one
    is continued across the curve from its Cauchy representation (the
    continuation adds or subtracts the boundary density, branch-matched at
    the nearest node). Residuals are |f1 - lambda12 f2| / (1 + |f2|).
    A zero or non-finite lambda12 raises BranchUnresolvedError.
    """
    points = [complex(z) for z in np.asarray(annulus_points, dtype=complex)]
    with np.errstate(all="ignore"):  # overflow and poles are refused below
        lams = [bundle.transition(z) for z in points]
    worst = 0.0
    for z, lam in zip(points, lams):
        side = require_off_band(section.grid, z)
        if not 0.0 < abs(lam) < np.inf:  # also false for NaN
            raise BranchUnresolvedError(
                f"transition {lam} at {z} is zero or not finite; no branch exists")
        ci = cauchy_integral(section.grid, section.density, z)
        adjust = (z - section.adjustment) ** (-section.chern) if section.chern else 1.0
        # the density continued to z, branch-matched at the nearest node
        dens = np.log(lam * adjust)
        node = int(np.argmin(np.abs(section.grid.z - z)))
        turns = round((section.density[node].imag - dens.imag) / (2.0 * np.pi))
        dens = dens + 2j * np.pi * turns
        if side is Location.INTERIOR:
            f1, f2 = np.exp(ci), np.exp(ci - dens)
        else:
            f1, f2 = np.exp(ci + dens), np.exp(ci)
        f2 = f2 * adjust
        worst = max(worst, abs(f1 - lam * f2) / (1.0 + abs(f2)))
    return worst


def verify_m_differential_match(f1_eval, f2_eval, curve, grid, m):
    """Max node residual of the half-order matching f1 * T^m = conj(f2)."""
    tangents = grid.dz / np.abs(grid.dz)
    return max(abs(complex(f1_eval(z)) * tangent ** int(m)
                   - np.conjugate(complex(f2_eval(z))))
               for z, tangent in zip(grid.z, tangents))


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
