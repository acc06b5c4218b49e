"""Harmonic moments, single and double Cauchy transforms, and the
exponential transform of the domain bounded by an analytic curve.

Everything is computed from boundary integrals on a contour grid. E =
exp(C) is the canonical section of the Schwarz-pole bundle 1/(S - conj w):
C(z, w) is the Cauchy sum at z of its density (`bundles._pole_density`)
plus, for interior z, log|z - w|^2 at interior w or, at exterior w, the
conjugate of the sum of -conj(density). E carries one of the four analytic
pieces F, G, G*, H, fixed by which side of the curve each argument lies on;
`TransformValue.piece` returns it, and `piece_f` ... `piece_h` are that
property with the quadrant enforced.

Every Cauchy sum is one call of the kernel pass `curve.kernel_sums` (its
blocked direct pass, or for far points of a large batch the expansion of
the same trapezoidal sum about the conformal center) through `curve.sides`
or `curve.off_band`, which locate the points it sums at in the same pass and
refuse the exclusion band and non-finite points. `double_cauchy_batch`
evaluates C for many z at one w in one such pass; `cauchy_integral` and
`double_cauchy` are batches of one point, and `moment_expansion_check`
sums its whole sampling ring in one pass.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .curve import (
    Location,
    band_refusal,
    off_band,
    require_off_band,
    sides,
)
from .errors import (
    BranchUnresolvedError,
    CoincidentInteriorPointsError,
    OriginNotInteriorError,
    ParseError,
    WrongQuadrantError,
)

PHASE_STEP_LIMIT = np.pi / 2

# Least number of points on the moment check's sampling ring.
MOMENT_RING_NODES = 256


def unwrap_log(values):
    """Continuous logarithm of a cyclic sequence of nonzero complex values.

    The branch is anchored at the principal logarithm of the first value.
    Returns (log values, winding). An (n, m) array holds m sequences as
    columns, each unwrapped cyclically along axis 0; its winding is an array
    of m values, a 1-D sequence's a float. Raises BranchUnresolvedError when
    any adjacent phase step reaches PHASE_STEP_LIMIT (refine the grid) or
    when a value is not finite or numerically zero: of modulus at most
    1e-12, and at most 1e-12 of the largest (1/(S - conj w) is about 1/|w|
    for far w).
    """
    v = np.asarray(values, dtype=complex)
    mags = np.abs(v)
    if not (mags.min() > 1e-12 * min(1.0, mags.max()) and mags.max() < np.inf):  # False for NaN
        raise BranchUnresolvedError("values are zero or not finite; no branch exists")
    steps = np.angle(np.concatenate((v[1:], v[:1])) / v)  # np.roll, without its overhead
    if np.abs(steps).max() >= PHASE_STEP_LIMIT:
        raise BranchUnresolvedError(
            f"phase step {np.abs(steps).max():.3f} >= {PHASE_STEP_LIMIT:.3f} "
            "between adjacent nodes; refine the grid")
    phases = np.empty_like(steps)
    phases[0] = 0.0
    np.cumsum(steps[:-1], axis=0, out=phases[1:])
    phases += np.angle(v[0])
    winding = steps.sum(axis=0) / (2.0 * np.pi)
    return np.log(mags) + 1j * phases, (float(winding) if v.ndim == 1 else winding)


def cauchy_integral(grid, density, z):
    """(1/2 pi i) * contour integral of density(zeta) dzeta / (zeta - z), at
    a z off the exclusion band (`curve.off_band`: NearBoundaryError in it,
    ParseError at a non-finite z)."""
    return complex(off_band(grid, [z], density)[1][0])


def cauchy_transform(grid, z):
    """Cauchy transform of the domain at exterior z, or the renormalized
    exterior transform (boundary integral of conj(zeta)/(zeta - z)) inside."""
    inside, base = off_band(grid, [complex(z)], np.conjugate(grid.z))
    return complex(base[0] if inside[0] else -base[0])


@dataclass(frozen=True)
class MomentTable:
    """Harmonic moments M_k = (1/2 pi i) * integral of z^k conj(z) dz."""

    k_min: int
    k_max: int
    values: dict

    def __getitem__(self, k):
        return self.values[k]

    def items(self):
        return sorted(self.values.items())


def harmonic_moments(grid, k_min, k_max):
    """Moment table for k in [k_min, k_max]; a negative order needs 0 inside
    the curve (OriginNotInteriorError, NearBoundaryError in its band).

    Raises ParseError for a range without k = 0, or with an order whose
    trapezoidal moment is not finite in floating point."""
    k_min, k_max = int(k_min), int(k_max)
    if not k_min <= 0 <= k_max:
        raise ParseError(f"moment range [{k_min}, {k_max}] must contain k = 0")
    if k_min < 0 and require_off_band(grid, 0.0) is not Location.INTERIOR:
        raise OriginNotInteriorError("harmonic moments assume the origin is interior")
    pref = grid.weight / (2j * np.pi)
    zbar_dz = np.conjugate(grid.z) * grid.dz
    with np.errstate(all="ignore"):  # overflow: refused below
        values = {k: complex(pref * np.sum(grid.z ** k * zbar_dz))
                  for k in range(k_min, k_max + 1)}
    if not np.isfinite(list(values.values())).all():
        raise ParseError(f"moments of orders {k_min}..{k_max} overflow on this curve")
    return MomentTable(k_min, k_max, values)


def moment_expansion_check(grid, k_max):
    """Consistency of the Schwarz-function moment expansion.

    Extracts Laurent coefficients at infinity of the logarithm of the
    exterior exp-Schwarz section (log f2 = -sum_k M_k / z^{k+1}) by Fourier
    analysis of the grid's Cauchy sums on a circle enclosing the curve, and
    returns max_k |coeff_k + M_k| over 0 <= k <= k_max, with M_k the exact
    moments from the map's Taylor coefficients (`quaddom.classical_quadrature`
    of z^k). The ring has at least MOMENT_RING_NODES points.
    The coefficients are the grid's discrete moments, so the residual is
    their quadrature error: a grid whose nodes are off the curve fails it.
    """
    from .quaddom import classical_quadrature  # quaddom imports this module

    k_max = int(k_max)
    n_fft = max(MOMENT_RING_NODES, 4 * (k_max + 2))
    radius = 2.0 * np.abs(grid.z).max()
    angles = 2.0 * np.pi * np.arange(n_fft) / n_fft
    ring = radius * np.exp(1j * angles)
    _, vals = off_band(grid, ring, np.conjugate(grid.z))
    coeff = np.fft.ifft(vals)  # coeff[m] * radius^{-m} = Laurent coefficient m
    residual = 0.0
    for k in range(k_max + 1):
        c = coeff[k + 1] * radius ** (k + 1)
        residual = max(residual, abs(c + classical_quadrature(grid.curve, [0] * k + [1])))
    return residual


_PIECE_NAMES = {"ext:ext": "F", "int:ext": "G", "ext:int": "G*", "int:int": "H"}


@dataclass(frozen=True)
class TransformValue:
    """Double Cauchy transform C and exponential transform E = exp(C) at a
    point pair, tagged with the side of the curve each argument lies on."""

    z: complex
    w: complex
    quadrant: tuple
    C: complex
    E: complex

    @property
    def piece(self):
        """(name, value) of the analytic piece of E in this quadrant: F = E,
        G = E/(conj z - conj w), G* = conj(G(w, z)) with E(w, z) = conj E,
        and H = E/|z - w|^2."""
        name = _PIECE_NAMES[quadrant_tag(self.quadrant)]
        # only this quadrant's divisor: |z - w|^2 overflows for far w
        if name == "F":
            return name, self.E
        if name == "G":
            return name, self.E / (np.conjugate(self.z) - np.conjugate(self.w))
        if name == "G*":
            return name, np.conjugate(
                np.conjugate(self.E) / (np.conjugate(self.w) - np.conjugate(self.z)))
        return name, self.E / abs(self.z - self.w) ** 2


def _double_cauchy_rows(grid, zs, w, w_side):
    """C(z, w) for every z in zs at a located w, NaN where double_cauchy
    refuses, with the masks (near, inside) of zs from the same kernel pass."""
    from .bundles import _pole_density  # bundles imports this module

    density = _pole_density(grid, w, w_side is Location.INTERIOR)
    if w_side is Location.INTERIOR:
        near, inside, c = sides(grid, zs, density)
        gap = np.abs(zs - w)
        apart = gap > 1e-12 * (1.0 + np.abs(zs))
        c[inside & apart] += np.log(gap[inside & apart] ** 2)
        c[inside & ~apart] = np.nan  # coincident interior points
    else:
        # column 1, -conj(density), sums at interior z to log(z - w) on the
        # branch continued from the nodes; its node-0 anchor cancels column 0's
        near, inside, sums = sides(grid, zs, np.stack([density, -np.conjugate(density)], 1))
        c = sums[:, 0].copy()
        c[inside] += np.conjugate(sums[inside, 1])
    c[near] = np.nan
    return c, near, inside


def double_cauchy_batch(grid, zs, w):
    """C(z, w) of `double_cauchy` for many z at one w, as a complex array.

    w's density is formed once and every z is located and summed in one
    kernel pass, with the second column -conj(density) when w is exterior.
    Refuses w inside the exclusion band (NearBoundaryError); a z where
    double_cauchy refuses (the band, or coincident interior points) gets NaN
    at the same z as double_cauchy. A non-finite z or w refuses the whole
    batch (ParseError, from `curve.sides`). The values differ from
    double_cauchy's by BLAS summation order only, within `kernel_sums`' bound
    8 n eps * sum_k |w num_k/(z_k - p)| per sum, num = density * dz.
    """
    w = complex(w)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    return _double_cauchy_rows(grid, zs, w, require_off_band(grid, w))[0]


def double_cauchy(grid, z, w):
    """Double Cauchy transform C(z, w), quadrant-wise.

    C is the Cauchy sum I = (1/2 pi i) * integral of D_w(zeta) dzeta/(zeta - z)
    of the canonical section of the Schwarz-pole bundle of w: D_w is the
    unwrapped log of 1/(S - conj w), divided by (zeta - w) for interior w
    (Chern class 1). Interior z adds log|z - w|^2 at interior w and, at
    exterior w, conj of the Cauchy sum of -conj(D_w) at z: log(conj z -
    conj w) on the branch continued from the nodes, whose node-0 anchor
    cancels that of I, so C is anchor-free like the area integral
    -(1/pi) * integral of dA/((zeta - z)(conj zeta - conj w)) it equals.
    """
    z, w = complex(z), complex(w)
    w_side = require_off_band(grid, w)
    c, near, inside = _double_cauchy_rows(grid, np.array([z]), w, w_side)
    if near[0]:
        raise band_refusal(grid, z)
    c = complex(c[0])
    if c != c:  # NaN off the band: coincident interior points
        raise CoincidentInteriorPointsError(
            "interior exponential transform is singular at coincident points")
    z_side = Location.INTERIOR if inside[0] else Location.EXTERIOR
    return TransformValue(z=z, w=w, quadrant=(z_side, w_side), C=c, E=cmath.exp(c))


def _piece(grid, z, w, name):
    tv = double_cauchy(grid, z, w)
    got, value = tv.piece
    if got != name:
        raise WrongQuadrantError(
            f"piece {name} does not apply in quadrant {quadrant_tag(tv.quadrant)}")
    return value


def piece_f(grid, z, w):
    """F(z, w) = E(z, w) for both arguments exterior; F(inf, w) = 1."""
    return _piece(grid, z, w, "F")


def piece_g(grid, z, w):
    """G(z, w) = E(z, w)/(conj z - conj w) for z interior, w exterior."""
    return _piece(grid, z, w, "G")


def piece_gstar(grid, z, w):
    """G*(z, w) = conj(G(w, z)) for z exterior, w interior."""
    return _piece(grid, z, w, "G*")


def piece_h(grid, z, w):
    """Interior exponential transform H(z, w) = E(z, w)/|z - w|^2."""
    return _piece(grid, z, w, "H")


# serialization of sampled transform values

CSV_HEADER = "re_z,im_z,re_w,im_w,quadrant,re_C,im_C,re_E,im_E"


def quadrant_tag(quadrant):
    short = {Location.INTERIOR: "int", Location.EXTERIOR: "ext"}
    return f"{short[quadrant[0]]}:{short[quadrant[1]]}"


def transform_values_to_csv(values):
    lines = [CSV_HEADER]
    for tv in values:
        lines.append(",".join([
            f"{tv.z.real:.17g}", f"{tv.z.imag:.17g}",
            f"{tv.w.real:.17g}", f"{tv.w.imag:.17g}",
            quadrant_tag(tv.quadrant),
            f"{tv.C.real:.17g}", f"{tv.C.imag:.17g}",
            f"{tv.E.real:.17g}", f"{tv.E.imag:.17g}",
        ]))
    return "\n".join(lines) + "\n"


def transform_values_to_json(values):
    return [{
        "z": [tv.z.real, tv.z.imag],
        "w": [tv.w.real, tv.w.imag],
        "quadrant": quadrant_tag(tv.quadrant),
        "C": [tv.C.real, tv.C.imag],
        "E": [tv.E.real, tv.E.imag],
    } for tv in values]
