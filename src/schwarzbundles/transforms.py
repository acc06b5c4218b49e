"""Harmonic moments, single and double Cauchy transforms, and the
exponential transform of the domain bounded by an analytic curve.

Moments of nonnegative order are exact finite sums over the map's
coefficients (`ConformalMapCurve.moments`); everything else is computed
from boundary integrals on a contour grid. E = exp(C) is the canonical
section of the Schwarz-pole bundle 1/(S - conj w), whose log is w's
`laurent.Laurent` record. `double_cauchy` (one z) and `double_cauchy_batch`
(many z) are one route, `_c_rows`: the z that `curve.clear_rows` places
clear of the nodes' annulus, outside it and, on a map of degree 1, inside
it, take the exact sum of residues of the record, with no kernel pass and
the same bits on every grid; the others are the Cauchy sum of its density,
plus for interior z log|z - w|^2 at interior w or, at exterior w, the
conjugate of the sum of -conj(density), in one pass. At exterior w the
density is summed without its constant, about -log(-conj w), whose sum is
0 at exterior z and cancels between the two sums at interior z: so C, of
size |S/w| for far w, keeps its relative accuracy (on the disk to 1e-14
of log1p at w = 1e11). E carries one of the four analytic pieces F, G, G*,
H, fixed by which side of the curve each argument lies on;
`TransformValue.piece` returns it, and `piece_f` ... `piece_h` are that
property with the quadrant enforced.

Every Cauchy sum is one call of the kernel pass `curve.kernel_sums`
through `curve.sides` or `curve.off_band`, which find the points in the
exclusion band first, with no pass, locate the others in the same pass
that sums at them, and refuse the band and non-finite points; a point
located without a sum takes their decision, with no pass where it is in
the band or clear of the nodes' annulus. `cauchy_integral` is at most one
pass for one point. The trapezoidal moments
(`_trapezoid_moments`) need no kernel: one product per order walks the
node terms from k = 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import laurent, render
from .curve import (
    Location,
    band_refusal,
    clear_rows,
    integer_argument,
    off_band,
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
    smallest, largest = mags.min(), mags.max()
    if not (smallest > 1e-12 * min(1.0, largest) and largest < np.inf):  # False for NaN
        raise BranchUnresolvedError("values are zero or not finite; no branch exists")
    ratio = np.empty_like(v)  # v[k + 1] / v[k], cyclically
    np.divide(v[1:], v[:-1], out=ratio[:-1])
    np.divide(v[:1], v[-1:], out=ratio[-1:])
    steps = np.arctan2(ratio.imag, ratio.real)  # np.angle, without its copies
    widest = np.abs(steps).max()
    if widest >= PHASE_STEP_LIMIT:
        raise BranchUnresolvedError(
            f"phase step {widest:.3f} >= {PHASE_STEP_LIMIT:.3f} "
            "between adjacent nodes; refine the grid")
    log = np.empty_like(v)
    np.log(mags, out=log.real)
    phases = log.imag
    phases[0] = 0.0
    np.cumsum(steps[:-1], axis=0, out=phases[1:])
    phases += np.angle(v[0]) + 0.0  # + 0.0: no phase is -0.0, as in log + 1j * phases
    winding = steps.sum(axis=0) / (2.0 * np.pi)
    return log, (float(winding) if v.ndim == 1 else winding)


def cauchy_integral(grid, density, z):
    """(1/2 pi i) * contour integral of density(zeta) dzeta / (zeta - z), at
    a z off the exclusion band (`curve.off_band`: NearBoundaryError in it,
    ParseError at a non-finite z)."""
    return complex(off_band(grid, [z], density)[1][0])


def cauchy_transform(grid, z):
    """Cauchy transform of the domain at exterior z, or the renormalized
    exterior transform (boundary integral of conj(zeta)/(zeta - z)) inside."""
    return _located_cauchy_transform(grid, z)[1]


def _located_cauchy_transform(grid, z):
    """(side of z, `cauchy_transform` at z) from one `curve.off_band` pass."""
    inside, base = off_band(grid, [complex(z)], np.conjugate(grid.z))
    if inside[0]:
        return Location.INTERIOR, complex(base[0])
    return Location.EXTERIOR, complex(-base[0])


def _trapezoid_moments(grid, k_lo, k_hi):
    """The grid's trapezoidal moments m_k = (w/2 pi i) * sum z^k conj(z) dz
    for k_lo <= k <= k_hi, as an array in ascending k.

    The node terms (w/2 pi i) conj(z) dz walk out from k = 0, multiplied by z
    (or by 1/z for k < 0) once per order, so m_k carries about |k| + 1
    roundings per term and no complex power. 1/z is formed only when an
    order is negative, so a node at 0 is harmless otherwise. Call under
    np.errstate where a term may overflow.
    """
    terms = grid.weight / (2j * np.pi) * np.conjugate(grid.z) * grid.dz
    walked = {0: terms.sum()}
    for orders in (range(1, k_hi + 1), range(-1, k_lo - 1, -1)):
        step = 1.0 / grid.z if orders and orders.step < 0 else grid.z
        power = terms.copy()
        for k in orders:
            power *= step
            walked[k] = power.sum()
    return np.array([walked[k] for k in range(k_lo, k_hi + 1)], dtype=complex)


def harmonic_moments(grid, k_min, k_max):
    """{k: M_k} in ascending k for k in [k_min, k_max], M_k = (1/2 pi i) *
    integral of z^k conj(z) dz. M_k for k >= 0 comes from the map's
    coefficients (`ConformalMapCurve.moments`), exactly and without the
    grid; a negative order is the grid's trapezoidal sum
    (`_trapezoid_moments`, one product by 1/z per order) and needs 0 inside
    the curve (OriginNotInteriorError, NearBoundaryError in its band).

    Raises ParseError for a range without k = 0, with a moment that is not
    finite in floating point, or with an order k <= -n, which the grid's n
    nodes alias (the sum of z^k over the nodes of the unit circle is n, not
    0, when n divides k)."""
    k_min, k_max = integer_argument(k_min, "k_min"), integer_argument(k_max, "k_max")
    if not k_min <= 0 <= k_max:
        raise ParseError(f"moment range [{k_min}, {k_max}] must contain k = 0")
    if k_min < 0 and not off_band(grid, [0.0])[0][0]:
        raise OriginNotInteriorError("harmonic moments assume the origin is interior")
    with np.errstate(all="ignore"):  # overflow: refused below
        values = np.concatenate([_trapezoid_moments(grid, k_min, -1), grid.curve.moments(k_max)])
    if not np.isfinite(values).all():
        raise ParseError(f"moments of orders {k_min}..{k_max} overflow on this curve")
    if k_min <= -grid.n:
        raise ParseError(f"order {k_min} aliases on {grid.n} nodes; "
                         f"n = {1 << (-k_min).bit_length()} or more answers it")
    return dict(zip(range(k_min, k_max + 1), values.tolist()))


def moment_expansion_check(grid, k_max):
    """Consistency of the Schwarz-function moment expansion.

    Outside the curve the log of the exterior exp-Schwarz section is
    -sum_k M_k / z^{k+1}; on the grid its coefficients are the trapezoidal
    moments m_k (`_trapezoid_moments`). Returns max_k |m_k - M_k| over
    0 <= k <= k_max, with M_k the exact moments from the map's coefficients
    (`ConformalMapCurve.moments`): the quadrature error of the grid against
    the exact table, so a grid whose nodes are off the curve fails it, and
    so does one too coarse for order k_max (m_k aliases for k >= n). A
    negative k_max, which would compare no moment, is refused (ParseError).
    """
    k_max = integer_argument(k_max, "k_max")
    if k_max < 0:
        raise ParseError(f"moment order k_max must be nonnegative, got {k_max}")
    gap = _trapezoid_moments(grid, 0, k_max) - grid.curve.moments(k_max)
    # hypot rounds as the scalar abs does, on every host; the SIMD loop of
    # np.abs depends on the CPU
    return float(np.hypot(gap.real, gap.imag).max())


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


def _pole_transition(grid, w, stride=1):
    """1/(S - conj w) at every stride-th node, with S kept on the grid; m
    points w give one column each, (n/stride, m)."""
    return 1.0 / np.subtract.outer(grid._schwarz[::stride], np.conjugate(w))


def _add_log_gap(c, zs, w, rows):
    """c[rows] += log|z - w|^2 at interior z and w, NaN at coincident points."""
    gap = np.abs(zs - w)
    apart = gap > 1e-12 * (1.0 + np.abs(zs))
    c[rows & apart] += np.log(gap[rows & apart] ** 2)
    c[rows & ~apart] = np.nan


def _outside_rows(curve, zs, series):
    """C(z, w) at exterior z clear of the nodes' annulus, from w's record.

    The Cauchy sum of w's density at z is minus its residues at z's N
    preimages zeta_i, all beyond the circle, where only the inner factors
    live: -sum_inner omega sum_i log(1 - b/zeta_i). Since prod_i (1 -
    b/zeta_i) = (phi(b) - z)/(a0 - z), the sum over i is log(1 - x), x =
    (phi(b) - a0)/(z - a0), and its principal log is the branch: |phi(b) -
    a0| <= max |phi - a0| on the curve < |z - a0| for |b| < 1. Each b keeps
    its own log; the log of a product over b could leave the branch."""
    b, weight = np.array(series.inner).T
    lift = npoly.polyval(b, (0j, *curve.coeffs[1:curve.degree + 1]))  # phi(b) - a0
    return -(laurent.log1m(lift / (zs - curve.coeffs[0])[:, None]) @ weight)


def _inside_rows(curve, zs, w_inside, series):
    """C(z, w) at interior z clear of the nodes' annulus of a map of degree
    1, from w's record, at zeta0 = (z - a0)/a1 in the unit disk, less
    log|z - w|^2 at interior w.

    At interior w the density's Cauchy sum is its constant and its outer
    factors at zeta0 (the inner ones leave no residue inside). The record's
    constant, -2 log|a1|, and its value at node 0 (zeta = 1), -2 Re log(1 -
    zeta_w), are real at degree 1, so `laurent.anchored` leaves the
    density's constant as it is. At exterior w the record has inner factors
    alone: column 0 sums to 0, and -conj(density) is -sum_inner omega log(1
    - conj(b) zeta) on the circle, so C = -sum_inner omega conj(log(1 -
    conj(b) zeta0))."""
    zeta0 = (zs - curve.coeffs[0]) / curve.coeffs[1]
    if not w_inside:
        b, weight = np.array(series.inner).T
        return -(np.conjugate(laurent.log1m(np.multiply.outer(zeta0, b.conj()))) @ weight)
    s, weight = np.array(series.outer).T
    return series.constant + laurent.log1m(np.multiply.outer(zeta0, s)) @ weight


def _density_columns(series, n, w_inside):
    """The columns `_c_rows` sums, (n, 1) at interior w and (n, 2) at
    exterior w: w's density D_w at the n nodes, without its constant at
    exterior w, and there also -conj(D_w), whose Cauchy sum at interior z
    is log(z - w) on the branch continued from the nodes, less the
    constant that the first column leaves out."""
    if w_inside:
        return laurent.density(series, n)[:, None]
    # filled in place: no stacked copy and no -conj temporary, n-sized
    # arrays that fault pages at large n
    columns = np.empty((n, 2), dtype=complex)
    columns[:, 0] = np.fft.ifft(laurent.spectra(series, n, (1.0,))[0], norm="forward")
    np.negative(np.conjugate(columns[:, 0], out=columns[:, 1]), out=columns[:, 1])
    return columns


def _c_rows(grid, zs, w):
    """(c, near, inside, w_inside): C(z, w) for every z of zs at one w, the
    one route of `double_cauchy` and `double_cauchy_batch`, with NaN where
    double_cauchy refuses, the masks of the z in the exclusion band and
    inside the curve, and the side of w.

    C is the Cauchy sum (1/2 pi i) * integral of D_w(zeta) dzeta/(zeta - z)
    of the canonical section of the Schwarz-pole bundle of w, plus, at
    interior z, log|z - w|^2 at interior w and, at exterior w, conj of the
    Cauchy sum of -conj(D_w): log(conj z - conj w) on the branch continued
    from the nodes, less the constant that the first sum leaves out. D_w is
    the log of 1/(S - conj w), divided by (zeta - w) at interior w (Chern
    class 1). At exterior w D_w's constant, about -log(-conj w), and its
    node-0 anchor drop out of C at every z, so they are not summed, and C,
    of size |S/w| for far w, keeps its relative accuracy, anchor-free like
    the area integral -(1/pi) * integral of dA/((zeta - z)(conj zeta -
    conj w)) it equals.

    w is located by one `curve.off_band` decision, which refuses it in the
    band (NearBoundaryError), and its `laurent.Laurent` record, the log of
    1/(S - conj w) adjusted by (z - w)^-1 at interior w, is formed once
    from its preimages. The z that `curve.clear_rows` places clear of the
    nodes' annulus, outside it and, on a map of degree 1, inside it, take
    the exact sum of residues of the record (`_outside_rows`, `_inside_rows`),
    log(1 - x) from real log1p and atan2 (`laurent.log1m`): within a few
    ulps per factor of the exact C, and the same bits at every n. The other
    z are located by one `curve.sides` decision, which puts the band's
    points aside with no pass, and the rest summed in one pass over D_w,
    its Laurent modes' inverse FFT, formed only when such a z is left
    (`_density_columns`), with the second column -conj(D_w) at exterior w:
    within `kernel_sums`' bound 8 n eps * sum_k |w num_k/(z_k - p)| per
    sum, num = D_w dz, of the trapezoidal sum, whose batch moves the rows
    by BLAS summation order only. A non-finite z or w refuses the whole
    call (ParseError, from `sides`)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    w_inside = off_band(grid, [w])[0][0]
    curve, roots = grid.curve, laurent.pole_roots(grid.curve, w)
    series = laurent.schwarz_pole(curve, roots)
    if w_inside:
        series = laurent.adjusted(curve, series, w, roots, 1, w)
    outside, inside = clear_rows(grid, zs)
    inside &= curve.degree == 1
    rest = ~(outside | inside)
    c, near = np.empty(zs.size, dtype=complex), np.zeros(zs.size, dtype=bool)
    if outside.any():
        c[outside] = _outside_rows(curve, zs[outside], series)
    if inside.any():
        c[inside] = _inside_rows(curve, zs[inside], w_inside, series)
    if rest.any():
        near[rest], inside[rest], sums = sides(
            grid, zs[rest], lambda: _density_columns(series, grid.n, w_inside))
        if sums is not None:
            c[rest] = sums[:, 0]
            if not w_inside:
                c[rest & inside] += np.conjugate(sums[inside[rest], 1])
    if w_inside:
        _add_log_gap(c, zs, w, inside)
    c[near] = np.nan
    return c, near, inside, w_inside


def double_cauchy_batch(grid, zs, w):
    """C(z, w) of `double_cauchy` for many z at one w, as a complex array,
    by the same route (`_c_rows`): NaN at a z where double_cauchy refuses
    (the band, or coincident interior points). Refuses w inside the
    exclusion band (NearBoundaryError) and, for the whole batch, a
    non-finite z or w (ParseError)."""
    return _c_rows(grid, zs, complex(w))[0]


def double_cauchy(grid, z, w):
    """Double Cauchy transform C(z, w), quadrant-wise, by `_c_rows` on [z]:
    the bits of `double_cauchy_batch(grid, [z], w)[0]`, with the sides of z
    and w from the same call. Refuses z or w in the exclusion band
    (NearBoundaryError) and interior z and w that coincide
    (CoincidentInteriorPointsError)."""
    z, w = complex(z), complex(w)
    c, near, inside, w_inside = _c_rows(grid, [z], w)
    if near[0]:
        raise band_refusal(grid, z)
    c = complex(c[0])
    if c != c:  # NaN off the band: coincident interior points
        raise CoincidentInteriorPointsError(
            "interior exponential transform is singular at coincident points")
    quadrant = tuple(Location.INTERIOR if s else Location.EXTERIOR for s in (inside[0], w_inside))
    return TransformValue(z=z, w=w, quadrant=quadrant, C=c, E=cmath.exp(c))


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
    """CSV_HEADER, then one row per TransformValue, its numbers in
    `render`'s %.17g."""
    values = list(values)
    numbers = render.float_fields([(tv.z.real, tv.z.imag, tv.w.real, tv.w.imag,
                                    tv.C.real, tv.C.imag, tv.E.real, tv.E.imag)
                                   for tv in values]).reshape(len(values), 8, render.FIELD)
    tags = render.text_fields([quadrant_tag(tv.quadrant) for tv in values])
    return CSV_HEADER + "\n" + render.csv_rows(*numbers[:, :4].transpose(1, 0, 2), tags,
                                               *numbers[:, 4:].transpose(1, 0, 2))


def transform_values_to_json(values):
    return [{
        "z": [tv.z.real, tv.z.imag],
        "w": [tv.w.real, tv.w.imag],
        "quadrant": quadrant_tag(tv.quadrant),
        "C": [tv.C.real, tv.C.imag],
        "E": [tv.E.real, tv.E.imag],
    } for tv in values]
