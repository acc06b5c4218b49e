"""Harmonic moments, single and double Cauchy transforms, and the
exponential transform of the domain bounded by an analytic curve.

Everything is computed from boundary integrals on a contour grid. The double
transform C(z, w) is assembled quadrant by quadrant: the base Cauchy integral
of a boundary log density plus a closed correction when an argument is
interior. Its exponential E = exp(C) carries one of the four analytic
pieces F, G, G*, H, fixed by which side of the curve each argument lies on;
`TransformValue.piece` returns it, and `piece_f` ... `piece_h` are that
property with the quadrant enforced.

Every Cauchy sum is one call of the blocked kernel pass `curve.kernel_sums`,
which also locates the points it sums at. `double_cauchy_batch` evaluates C
for many z at one w: w's log density is formed once and all z are summed in
one pass. In the mixed quadrant (z interior, w exterior) each z's density
log|zeta - z|^2 is the log of its squared distances (`curve.distance_blocks`),
summed at w by a real matrix product with one vector formed per w.
`cauchy_integral` and `double_cauchy` are batches of one point, and
`moment_expansion_check` sums its whole sampling ring in one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    Location,
    band_refusal,
    distance_blocks,
    kernel_sums,
    require_off_band,
)
from .errors import (
    BranchUnresolvedError,
    CoincidentInteriorPointsError,
    NearBoundaryError,
    OriginNotInteriorError,
    WrongQuadrantError,
)

PHASE_STEP_LIMIT = np.pi / 2


def unwrap_log(values, step_limit=PHASE_STEP_LIMIT):
    """Continuous logarithm of a cyclic sequence of nonzero complex values.

    The branch is anchored at the principal logarithm of the first value.
    Returns (log values, winding). An (n, m) array holds m sequences as
    columns, each unwrapped cyclically along axis 0; its winding is an array
    of m values, a 1-D sequence's a float. Raises BranchUnresolvedError when
    any adjacent phase step reaches `step_limit` (refine the grid) or when a
    value is numerically zero or not finite.
    """
    v = np.asarray(values, dtype=complex)
    mags = np.abs(v)
    if not (mags.min() > 1e-12 and mags.max() < np.inf):  # also false for NaN
        raise BranchUnresolvedError("values are zero or not finite; no branch exists")
    steps = np.angle(np.roll(v, -1, axis=0) / v)
    if np.abs(steps).max() >= step_limit:
        raise BranchUnresolvedError(
            f"phase step {np.abs(steps).max():.3f} >= {step_limit:.3f} "
            "between adjacent nodes; refine the grid")
    phases = np.empty_like(steps)
    phases[0] = 0.0
    np.cumsum(steps[:-1], axis=0, out=phases[1:])
    phases += np.angle(v[0])
    winding = steps.sum(axis=0) / (2.0 * np.pi)
    return np.log(mags) + 1j * phases, (float(winding) if v.ndim == 1 else winding)


def cauchy_integral(grid, density, z):
    """(1/2 pi i) * contour integral of density(zeta) dzeta / (zeta - z)."""
    return complex(kernel_sums(grid, [z], density)[2][0])


def cauchy_transform(grid, z):
    """Cauchy transform of the domain at exterior z, or the renormalized
    exterior transform (boundary integral of conj(zeta)/(zeta - z)) inside."""
    z = complex(z)
    nearest, winding, base = kernel_sums(grid, [z], np.conjugate(grid.z))
    if nearest[0] < grid.exclusion_band:
        raise band_refusal(grid, z)
    return complex(base[0] if winding[0] > 0.5 else -base[0])


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
    """Moment table for k in [k_min, k_max]; needs 0 inside the curve."""
    k_min, k_max = int(k_min), int(k_max)
    if not k_min <= 0 <= k_max:
        raise ValueError("moment range must contain k = 0")
    if require_off_band(grid, 0.0) is not Location.INTERIOR:
        raise OriginNotInteriorError("harmonic moments assume the origin is interior")
    pref = grid.weight / (2j * np.pi)
    zbar_dz = np.conjugate(grid.z) * grid.dz
    values = {k: complex(pref * np.sum(grid.z ** k * zbar_dz))
              for k in range(k_min, k_max + 1)}
    return MomentTable(k_min, k_max, values)


def moment_expansion_check(grid, k_max, n_fft=256):
    """Consistency of the Schwarz-function moment expansion.

    Extracts Laurent coefficients at infinity of the logarithm of the
    exterior exp-Schwarz section (log f2 = -sum_k M_k / z^{k+1}) by Fourier
    analysis on a circle enclosing the curve, and returns
    max_k |coeff_k + M_k| over 0 <= k <= k_max.
    """
    k_max = int(k_max)
    n_fft = max(int(n_fft), 4 * (k_max + 2))
    radius = 2.0 * np.abs(grid.z).max()
    angles = 2.0 * np.pi * np.arange(n_fft) / n_fft
    ring = radius * np.exp(1j * angles)
    nearest, _, vals = kernel_sums(grid, ring, np.conjugate(grid.z))
    if nearest.min() < grid.exclusion_band:
        raise NearBoundaryError("sampling circle intersects the exclusion band")
    coeff = np.fft.ifft(vals)  # coeff[m] * radius^{-m} = Laurent coefficient m
    moments = harmonic_moments(grid, 0, k_max)
    residual = 0.0
    for k in range(k_max + 1):
        c = coeff[k + 1] * radius ** (k + 1)
        residual = max(residual, abs(c + moments[k]))
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
        zbar, wbar = np.conjugate(self.z), np.conjugate(self.w)
        if name == "F":
            return name, self.E
        if name == "G":
            return name, self.E / (zbar - wbar)
        if name == "G*":
            return name, np.conjugate(np.conjugate(self.E) / (wbar - zbar))
        return name, self.E / abs(self.z - self.w) ** 2


def _log_density_for(grid, w, w_side):
    if w_side is Location.EXTERIOR:
        dens, _ = unwrap_log(np.conjugate(grid.z) - np.conjugate(w))
        return dens
    return np.log(np.abs(grid.z - w) ** 2)


def _double_cauchy_rows(grid, zs, w, w_side):
    """C(z, w) for every z in zs at a located w, NaN where double_cauchy
    refuses, with the masks (near, inside) of zs from the same kernel pass."""
    nearest, winding, sums = kernel_sums(grid, zs, _log_density_for(grid, w, w_side))
    near = nearest < grid.exclusion_band
    inside = ~near & (winding > 0.5)
    c = -sums
    if w_side is Location.INTERIOR:
        for i in np.flatnonzero(inside):
            z = complex(zs[i])
            if abs(z - w) <= 1e-12 * (1.0 + abs(z)):
                c[i] = np.nan  # coincident interior points
            else:
                c[i] = c[i] + math.log(abs(z - w) ** 2)
    elif inside.any():
        # z interior, w exterior: conj of the Cauchy sum at w of each z's
        # density log|zeta - z|^2, as log-distances times one vector per w
        cw = (grid.weight / (2j * np.pi)) * grid.dz / (grid.z - w)
        cols = np.stack([cw.real, cw.imag], axis=1)
        mixed = np.empty((inside.sum(), 2))
        for rows, _, _, d2 in distance_blocks(grid, zs[inside]):
            mixed[rows] = np.log(d2, out=d2) @ cols
        c[inside] = -mixed[:, 0] + 1j * mixed[:, 1]
    c[near] = np.nan
    return c, near, inside


def double_cauchy_batch(grid, zs, w):
    """C(z, w) of `double_cauchy` for many z at one w, as a complex array.

    w's log density is formed once and every z is located and summed in one
    kernel pass; interior z at an exterior w take log|zeta - z|^2 from the
    squared distances times one vector per w. Refuses w inside the exclusion
    band (NearBoundaryError); a z where double_cauchy refuses (the band, or
    coincident interior points) gets NaN at the same z as double_cauchy. The
    values differ from double_cauchy's by BLAS summation order only, within
    `kernel_sums`' bound 8 n eps * sum_k |w num_k/(z_k - p)| per row, with
    num = log density * dz (for mixed rows, log|z_k - z|^2 dz at p = w).
    """
    w = complex(w)
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    return _double_cauchy_rows(grid, zs, w, require_off_band(grid, w))[0]


def double_cauchy(grid, z, w):
    """Double Cauchy transform C(z, w), quadrant-wise.

    Base integral I = -(1/2 pi i) * integral of L_w(zeta) dzeta/(zeta - z)
    with L_w the unwrapped log(conj(zeta) - conj(w)) for exterior w and the
    real log|zeta - w|^2 for interior w; interior arguments add the closed
    corrections log(conj z - conj w) resp. log|z - w|^2. The branch in the
    mixed quadrant (z interior, w exterior) is pinned by hermitian symmetry,
    evaluating the conjugate-swapped real-density route.
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
