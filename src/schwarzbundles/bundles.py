"""Line bundles on the Riemann sphere from a transition function near the
curve, their Chern classes, and canonical holomorphic sections.

A bundle is a single nonvanishing analytic function lambda12 on an annular
neighborhood of the curve, gluing the interior and exterior charts. Its Chern
class is the winding of lambda12 along the curve, a degree fixed by the
transition: exp(S) has class 0, T^{-m} class -m, and 1/(S - conj w) the
winding of the curve around w, the number of roots of phi - w in |zeta| < 1.
The built-in constructors store it; only a custom bundle's class is unwrapped
from its node values. For nonnegative Chern class c the canonical section
(f1 inside, f2 outside) is the exponential of the Cauchy integral of the
boundary log density of lambda12 (z - a)^{-c}, with a divisor adjustment at
an interior point a when c > 0; `evaluate_section` takes the side of a point
and the sum there from one `curve.off_band` pass.

A `LineBundle` is its transition function: `transition(grid)` gives
lambda12 at the nodes of the curve's grid or of a ring, and each constructor
supplies that closure. The built-in ones also supply their log as a Laurent
series in the pullback variable zeta of z = phi(zeta) (`laurent`): exp(S)
from the map's coefficients, 1/(S - conj w) from the roots of phi - w,
found once when the bundle is built, T^{-m} from the roots of phi', and the
adjustment (z - a)^{-c} from the roots of phi - a, kept per curve for the
conformal center. A built-in section's density is those modes folded onto
the grid's n bins and one inverse FFT, with no transition values and no
unwrap; a custom bundle's is the one unwrap of its node values that gives
its class, with the adjustment's modes. Every density takes one branch
rule at node 0 (`laurent.anchored`). The Schwarz-pole
bundle supplies its pole, the default adjustment point when interior (a
pole in the exclusion band is refused, not replaced), and its section is
the exponential transform (`transforms._c_rows`, the same modes). A
bundle answers only on grids of its own curve: `chern_class` and
`verify_transition` refuse a grid whose map coefficients differ from the
bundle's (ParseError). The transitions themselves, for `transition_at_nodes`
and custom-bundle checks, are closed forms in zeta: S and T at a grid's
nodes depend on the grid alone, so each grid keeps them
(`ContourGrid._schwarz`, `ContourGrid._tangent`).
The gluing is verified by moving the contour, mode by mode: each
verification ring's density is that of lambda12 (z - a)^{-c}, with the
section's own Chern class c and adjustment point a, and its Fourier mode k
must be R^k times the section's. A built-in bundle's ring modes are its
Laurent modes folded at the ring's radius, with no ring grid; a custom
bundle's are one unwrap on the ring's grid. Every bundle places a inside a
ring by the modulus of a's preimage, with no kernel pass: under the
standing assumption that phi is univalent on |zeta| <= 1/rho, a lies
inside the ring |zeta| = R exactly when its preimage has modulus below R.
`verify_transition` returns a weighted sum of the mode differences, an
upper bound on the point residual at the verification points under that
assumption, omitting the aliasing remainder of the trapezoidal sums; it is
stricter than that residual on high modes. The verification points are
searched over radii, one side decision per radius, and every band and side
decision about a point is `curve.sides`. The two verification rings' radii,
mode scales and weights, a custom bundle's ring grids, and the points with
the sides their search gave depend on the grid alone: they are built once
per grid and kept on it.
Nothing is kept per bundle call, pole, adjustment point or section, and
every array returned to a caller is a fresh one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import laurent
from .curve import (
    TWO_PI,
    ContourGrid,
    _pullback_tangent,
    _read_only,
    _ring,
    integer_argument,
    off_band,
    sides,
)
from .errors import (
    AdjustmentPointNotInteriorError,
    NearBoundaryError,
    NoHolomorphicSectionError,
    ParseError,
)
from .schwarz import _like, invert_conformal_map
from .transforms import _pole_transition, unwrap_log

# node spacings (in the pullback radius) from the curve to verification rings
_VERIFY_SPACINGS = 6.0

ONE_AT_INFINITY = "one-at-infinity"
LEADING_ONE_OVER_Z = "leading-one-over-z"


def holomorphic_tangent(curve, z):
    """Holomorphic extension of the unit tangent to the validated annulus,
    at a scalar z (a Python complex) or an array of points."""
    return _like(z, _pullback_tangent(curve, invert_conformal_map(curve, z)))


@dataclass(frozen=True, eq=False)
class LineBundle:
    """Transition function lambda12 on the annulus around a curve.

    `transition(grid)` is lambda12 at the nodes of a grid on the curve or on
    a ring. `chern`, set by the built-in constructors, is the Chern class;
    None (a custom bundle) has `chern_class` unwrap it. `modes(c, a)`, set
    by the built-in constructors, is the `laurent.Laurent` series in zeta
    of log(lambda12 (z - a)^{-c}), from which sections and their check are
    formed with no transition values and no unwrap. `pole`, when given, is
    the default adjustment point if it is interior.
    """

    curve: object
    transition: Callable
    chern: int = None
    modes: Callable = None
    pole: complex = None

    def transition_at_nodes(self, grid):
        """lambda12 at the grid nodes."""
        with np.errstate(all="ignore"):  # a pole on a node: unwrap_log refuses
            return self.transition(grid)


def exp_schwarz_bundle(curve):
    """lambda12 = exp(S), the bundle whose section is the Cauchy transform
    pair. Its log S has finitely many modes; exp(S) may overflow and is
    formed only for `transition_at_nodes`."""
    return LineBundle(curve, lambda grid: np.exp(grid._schwarz), chern=0,
                      modes=partial(laurent.adjusted, curve, laurent.exp_schwarz(curve),
                                    None, None))


def schwarz_pole_bundle(curve, w):
    """lambda12 = 1/(S - conj w), for a finite parameter point w off the
    curve; its Chern class is the number of roots of phi - w in |zeta| < 1,
    and those roots, found once here, give its modes."""
    w = complex(w)
    if not np.isfinite(w):
        raise ParseError(f"pole {w} is not finite")
    roots = laurent.pole_roots(curve, w)
    series = laurent.schwarz_pole(curve, roots)
    return LineBundle(curve, lambda grid: _pole_transition(grid, w), chern=series.winding,
                      modes=partial(laurent.adjusted, curve, series, w, roots), pole=w)


def tangent_power_bundle(curve, m):
    """lambda12 = T^{-m}, of Chern class -m, for an integer m; m = 2 is the
    canonical bundle with lambda12 = S'."""
    if not isinstance(m, numbers.Integral):
        raise ParseError(f"tangent power {m!r} is not an integer")
    return LineBundle(curve, lambda grid: grid._tangent ** (-m), chern=-int(m),
                      modes=partial(laurent.adjusted, curve,
                                    laurent.tangent_power(curve, int(m)), None, None))


def custom_bundle(curve, evaluator):
    """lambda12 = evaluator(z), called once on the node array; a scalar
    result is broadcast to every node."""
    return LineBundle(curve, lambda grid: np.full(grid.n, evaluator(grid.z), dtype=complex))


def _node_log(bundle, grid, c, a, unwrapped=None, adjustment=None):
    """The continuous log of lambda12 * (z - a)^{-c} at the grid nodes,
    anchored (`laurent.anchored`). A built-in bundle's is its modes at the
    grid's radius (`laurent.density`); a custom bundle's is one `unwrap_log`
    of lambda12 (`unwrapped`, when the caller has made it) plus -c log(z -
    a) from a's preimages (`adjustment`, the `laurent._adjustment` series,
    when the caller has made it): its modes, and -c log zeta at the nodes.
    With c the class and a inside the nodes no winding remains; one that
    does is a zero or pole of lambda12 between the nodes and the curve
    (NearBoundaryError, from `laurent.check`)."""
    if bundle.modes is not None:
        return laurent.density(bundle.modes(c, a), grid.n, grid.radius)
    log, winding = unwrapped or unwrap_log(bundle.transition_at_nodes(grid))
    laurent.check(laurent.Laurent(0j, winding=round(winding) - c), grid.radius)
    if c:
        series = laurent._adjustment(grid.curve, c, a) if adjustment is None else adjustment
        log = log + laurent.density(series._replace(winding=0), grid.n, grid.radius) \
            + series.winding * (np.log(grid.radius) + 1j * grid.t)
    return laurent.anchored(log)


def _class_unwrap(bundle, grid):
    """(c, unwrapped): the Chern class, and for a custom bundle the one
    `unwrap_log` of lambda12 at the grid nodes that gives it (else None). A
    grid on another curve is refused (ParseError)."""
    _require_own_grid(bundle, grid)
    if bundle.chern is not None:
        return bundle.chern, None
    unwrapped = unwrap_log(bundle.transition_at_nodes(grid))
    return round(unwrapped[1]), unwrapped


def chern_class(bundle, grid):
    """Winding of lambda12 along the curve: (1/2 pi i) * integral of dlog.

    A built-in bundle's class is stored on it and costs nothing. A custom
    bundle's is one unwrap of lambda12 at the grid nodes, whose phase steps
    sum to 2 pi k up to rounding; it raises BranchUnresolvedError for
    under-resolved phases or a zero or non-finite lambda12 at a node. A
    grid on another curve is refused (ParseError)."""
    return _class_unwrap(bundle, grid)[0]


def _require_own_grid(bundle, grid):
    """ParseError unless the grid lies on the bundle's curve (equal map
    coefficients): on another curve the transition, and a stored Chern
    class, would be another bundle's."""
    if grid.curve.coeffs != bundle.curve.coeffs:
        raise ParseError("the grid is not on the bundle's curve")


@dataclass(frozen=True, eq=False)
class SectionPair:
    """Canonical holomorphic section of a line bundle.

    Stored as the boundary log density; `evaluate_section` gives its value
    f1 inside the curve and f2 outside, from the density's Cauchy sum. For
    Chern class c > 0 the density is adjusted by (zeta - a)^{-c} and f2
    carries the factor (z - a)^{-c} back, so f2 ~ z^{-c} at infinity.
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
    bundle pole when that is interior, else to the conformal center phi(0);
    a pole in the exclusion band is a NearBoundaryError, not replaced.
    The density is `_node_log` of lambda12 (z - a)^{-c}: a built-in
    bundle's modes, refused as an unresolved branch (BranchUnresolvedError)
    where a zero or pole of lambda12 lies on the curve, or a custom
    bundle's one unwrap, the one that gives its class, where an unresolved
    phase is a BranchUnresolvedError.
    """
    c, unwrapped = _class_unwrap(bundle, grid)
    if c < 0:
        raise NoHolomorphicSectionError(f"Chern class {c} < 0 admits no holomorphic sections")
    adjustment = _resolve_adjustment(bundle, grid, a) if c else None
    return SectionPair(grid=grid, density=_node_log(bundle, grid, c, adjustment, unwrapped),
                       chern=c, adjustment=adjustment,
                       normalization=ONE_AT_INFINITY if c == 0 else LEADING_ONE_OVER_Z)


def _resolve_adjustment(bundle, grid, a):
    """a, else the bundle pole if interior, else the conformal center; one
    `curve.off_band` decision locates each candidate, and a candidate in the
    exclusion band is refused (NearBoundaryError), the pole included."""
    if a is None and bundle.pole is not None and off_band(grid, [bundle.pole])[0][0]:
        return complex(bundle.pole)
    a = complex(bundle.curve.conformal_center if a is None else a)
    if not off_band(grid, [a])[0][0]:
        raise AdjustmentPointNotInteriorError(f"adjustment point {a} is not strictly interior")
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
    """The grids of the rings |zeta| = 1/r and r, r = 1 - 12 pi / n, of
    `verify_transition` (`_ring_modes`), sharing the grid's t, for a custom
    bundle's ring densities; NearBoundaryError when they leave the
    validated annulus."""
    return tuple(replace(_ring(grid.curve, grid.n, radius), t=grid.t)
                 for radius, _, _ in _kept(grid, _ring_modes))


def annulus_verification_points(grid, n_points=32):
    """Reflected point pairs in the annulus, clear of the exclusion band.

    Points sit at pullback radii r and 1/r on intermediate angles; r backs
    away from the curve until every point classifies as strictly interior or
    exterior. Raises NearBoundaryError when the validated annulus is too thin
    for the current grid (refine the grid).

    The points depend on the grid and n_points // 2 alone: they are searched
    once per grid and count, with their sides, and every call returns a
    fresh copy.
    """
    half = max(1, integer_argument(n_points, "n_points") // 2)
    return _kept(grid, _search_points, half)[0].copy()


def _search_points(grid, half):
    """(points, inside) of `annulus_verification_points`, 2 * half points:
    the first radius r = 1 - s, s = 6 * 2 pi / n * 1.3^k, whose points
    `curve.sides` puts clear of the band, in one side decision per radius."""
    curve = grid.curve
    base = np.exp(1j * (2.0 * np.pi * (np.arange(half) + 0.37) / half))
    s = _VERIFY_SPACINGS * (TWO_PI / grid.n)
    while True:
        r_in = _clear_radius(curve, s)
        pts = np.concatenate([curve.phi(r_in * base), curve.phi((1.0 / r_in) * base)])
        near, inside, _ = sides(grid, pts)
        if not near.any():
            return _read_only(pts), _read_only(inside)
        s *= 1.3


def _point_sides(grid, points):
    """The inside mask of `off_band(grid, points)`, kept from the search when
    the points are bit for bit the grid's own; a lookup only, which neither
    searches nor iterates the memo. No points is a ParseError."""
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if not pts.size:
        raise ParseError("no verification points")
    kept = grid.__dict__.get("_kept", {}).get((_search_points, pts.size // 2))
    if kept is not None and kept[0].tobytes() == pts.tobytes():
        return kept[1]
    return off_band(grid, pts)[0]


def _ring_modes(grid):
    """(radius, rescale, weight) for each verification ring of
    `verify_transition`, outer then inner: arrays over the FFT frequencies
    k of n points, rescale = R^{-k} for the ring radius R and weight W_k
    from the kernel's Laurent coefficients.

    zeta phi'/(phi - p) = sum_i zeta/(zeta - zeta_i) over the N roots zeta_i
    of phi - p (N the map's degree). A point p off the curve's band lies at
    least `exclusion_band` from every node; |phi'| <= L_in = sum j|a_j| on the
    unit disk and L_out = sum j|a_j| rho^(1 - j) on 1 <= |zeta| <= 1/rho,
    and every curve point lies within L_in pi/n of a node, so p lies at
    least gap = band - L_in pi/n from the curve. Hence an interior point's
    root in |zeta| < 1 has |zeta_0| <= s = 1 - gap/L_in, the near root of an
    exterior one 1/|zeta_1| <= sigma = max(rho, 1/(1 + gap/L_out)), and with
    univalence on |zeta| <= 1/rho the other roots satisfy 1/|zeta_i| < rho.
    Inside (outer ring) W_k = s^k for k >= 0 and (N - 1) rho^|k| for k < 0;
    outside (inner ring) sigma^|k| + (N - 1) rho^|k| for k < 0 and 0 for
    k >= 0. A gap below 0 counts as 0: s = sigma = 1 still bound |zeta_0|
    and 1/|zeta_1|."""
    curve, n = grid.curve, grid.n
    k = np.fft.fftfreq(n, 1.0 / n)
    _, l_in, l_out = curve._dphi_bounds
    gap = grid.exclusion_band - l_in * np.pi / n
    s = 1.0 - max(gap, 0.0) / l_in
    sigma = max(curve.rho, l_out / (l_out + max(gap, 0.0)))
    m, negative = np.abs(k), k < 0
    far = (curve.degree - 1) * curve.rho ** m
    outer_weight = np.where(negative, far, s ** m)
    inner_weight = np.where(negative, sigma ** m + far, 0.0)
    r = _clear_radius(curve, _VERIFY_SPACINGS * (TWO_PI / n))
    return tuple((radius, _read_only(radius ** -k), _read_only(weight))
                 for radius, weight in ((1.0 / r, outer_weight), (r, inner_weight)))


def _ring_log_modes(bundle, grid, rings, c, a):
    """The modes (DFT/n) of the density log(lambda12 (z - a)^{-c}) on each
    verification ring of `rings` (0 outer, 1 inner), one row each. A
    built-in bundle's are its Laurent series folded at the rings' radii,
    with no ring grid; a custom bundle's are one unwrap on the kept ring
    grid and one FFT. Ring by ring, the adjustment point's preimage must lie
    inside the ring's radius (NearBoundaryError), which under univalence on
    |zeta| <= 1/rho is a inside the ring, with no kernel pass: the series'
    `point`, or for a custom bundle its adjustment's (`laurent._adjustment`,
    made once per call, a's roots with it, and given to `_node_log` on each
    ring). Then the ring's density is refused where `_node_log` or
    `laurent.check` refuses it."""
    kept = _kept(grid, _ring_modes)
    custom = bundle.modes is None
    series = laurent._adjustment(grid.curve, c, a) if custom else bundle.modes(c, a)
    rows = []
    for ring in rings:
        radius = kept[ring][0]
        if not series.point < radius:
            raise NearBoundaryError(
                f"adjustment point {a} is not strictly inside the ring "
                f"|zeta| = {radius:.6g}; refine the grid")
        if custom:
            ring_grid = _kept(grid, _verification_rings)[ring]
            rows.append(np.fft.fft(_node_log(bundle, ring_grid, c, a, adjustment=series),
                                   norm="forward"))
        else:
            laurent.check(series, radius)
    if custom:
        return np.array(rows)
    modes = laurent.spectra(series, grid.n, [kept[ring][0] for ring in rings])
    modes[:, 0] += series.constant
    return modes


def verify_transition(section, bundle, annulus_points):
    """Upper bound on the contour-shift residual of the section's gluing
    f1 = lambda12 * f2, from Laurent coefficients.

    By Cauchy's theorem the section, the Cauchy integral of the adjusted log
    lambda12, must not move when rebuilt from the bundle on the ring
    |zeta| = 1/r for interior points (f1) or r for exterior ones (f2),
    r = 1 - 6 * 2 pi / n. On the pullback circle that is a statement about
    Fourier modes: ring mode k is R^k times curve mode k. Each ring checked
    gives e_k = (ring modes)_k R^{-k} - fft(section.density)_k/n, e_0 taken
    mod 2 pi i, and the value is the largest over the checked sides of
    sum_k W_k |e_k| (`_ring_modes`). A side with no points is not checked.
    The value bounds max |log f - log f_ring| over points off the curve's
    band (the point residual the two rings' kernel passes gave), under the
    standing assumption that phi is univalent on |zeta| <= 1/rho (as
    `invert_conformal_map` assumes) and omitting the aliasing remainder of
    the kernel's trapezoidal sums. It is stricter on high modes, since the
    weights cover every point off the band while mode k reaches the
    verification points only as r_pts^|k|: 1e-8 e^{+-40it} added to a
    density gives more than 1e-9, where the point residual was 3e-14 on the
    cardioid at n = 512 and 3e-11 at n = 1024
    (scripts/spectral_verify_bound.py). It detects a section of another
    bundle and a density off log lambda12 (modes e^{ikt}: k >= 0 inside,
    k < 0 outside).

    A built-in bundle's ring modes are its Laurent modes at the ring's
    radius (`laurent.spectra`, both rings at once): no ring grid,
    transition or unwrap, and no kernel pass. A custom bundle's are one
    unwrap of lambda12 on the ring's grid, with the adjustment (z - a)^{-c}
    from its modes, and one FFT. Either way c and a are the section's own
    Chern class and adjustment point, and a is placed on each ring by its
    preimage, with no kernel pass.

    NearBoundaryError (refine the grid) refuses a point in the curve's band,
    a ring off the validated annulus, an adjustment point whose preimage is
    not strictly inside a checked ring (`_ring_log_modes`), and a zero or
    pole of lambda12 between ring and curve: a root of a built-in bundle's
    series on the wrong side of the ring, or a winding left over; a section
    on a grid of another curve than the bundle's is a ParseError. The
    rings' radii, scales and weights, and a custom bundle's ring grids, are
    built once per grid and kept on it. The grid's own verification points reuse
    their search's band and side decision; any other points are decided
    afresh, and no points is a ParseError."""
    grid = section.grid
    _require_own_grid(bundle, grid)
    inside = _point_sides(grid, annulus_points)
    rings = [ring for ring, side in enumerate((inside, ~inside)) if side.any()]
    kept = _kept(grid, _ring_modes)
    e = _ring_log_modes(bundle, grid, rings, section.chern, section.adjustment)
    e *= [kept[ring][1] for ring in rings]
    e -= np.fft.fft(section.density, norm="forward")
    e[:, 0] -= 2j * np.pi * np.round(e[:, 0].imag / TWO_PI)  # branch of the log
    return float((np.abs(e) * [kept[ring][2] for ring in rings]).sum(axis=1).max())


def verify_m_differential_match(f1_eval, f2_eval, curve, grid, m):
    """Max node residual of the half-order matching f1 * T^m = conj(f2), for
    an integer m, taken as |f1 - conj(f2) T^{-m}| (|T| = 1 on the curve)
    with T^{-m} the transition of `tangent_power_bundle(curve, m)`, which
    refuses a non-integer m (ParseError).

    Each evaluator is called once, on the node array; a scalar result is
    broadcast to every node."""
    t_minus_m = tangent_power_bundle(curve, m).transition_at_nodes(grid)
    return float(np.abs(f1_eval(grid.z) - np.conjugate(f2_eval(grid.z)) * t_minus_m).max())


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
