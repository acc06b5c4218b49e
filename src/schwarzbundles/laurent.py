"""Fourier-Laurent modes of the built-in bundles' log densities.

On a polynomial curve the log of each built-in transition lambda12, adjusted
by (z - a)^{-c}, is a Laurent series in the pullback variable zeta on an
annulus about |zeta| = 1, read off the roots of polynomials:

- exp(S): S = sum_j conj(a_j) zeta^{-j}, finitely many modes.
- 1/(S - conj w): with zeta_i the roots of phi - w, k of them in |zeta| < 1,
  S - conj w = conj(K) zeta^{-k} prod_in (1 - conj(zeta_i) zeta)
  prod_out (1 - beta_i/zeta), beta_i = 1/conj(zeta_i), K = a_N prod_out
  (-zeta_i); k is the bundle's Chern class.
- z - a = K_a zeta^k prod_in (1 - eta_j/zeta) prod_out (1 - zeta/eta_j)
  over the roots eta_j of phi - a, one of them (k = 1) inside for an
  interior a: the adjustment's factor.
- T = i (a1/|a1|) zeta prod_j (1 - s_j zeta)^{1/2} (1 - conj(s_j)/zeta)^{-1/2},
  s_j = 1/r_j over the roots r_j of phi', all beyond 1/rho.

Each factor w log(1 - b/zeta), |b| < 1, has the modes -w b^m/m of
zeta^{-m}, and w log(1 - s zeta), |s| < 1, the modes -w s^m/m of zeta^m. A
`Laurent` holds the constant, S's explicit modes and these roots with
their weights; the powers of zeta that a section's class leaves (its
winding) must cancel. On the n nodes of |zeta| = R a mode c_m zeta^m adds
c_m R^m to DFT bin m mod n, so `spectra` gives the samples' DFT/n at each
radius R from the modes, and `density` is its inverse FFT plus the
constant: no transition values and no phase unwrap. A root so near R that
its series needs n terms or more, which would alias, has its factor's
principal log taken at the n nodes instead (its real part is positive
there) and transformed. A root on the wrong side of R is refused (`check`):
on the curve as an unresolved branch, a zero or pole of lambda12 on it; on
a ring as a zero or pole between the ring and the curve. The root sets of
the map are kept per curve (`dphi_roots`, `_center_roots`) and a pole's,
with its transition's part of the series, on its bundle; nothing is kept
per call.

`anchored` is the one branch rule of every boundary log density, these and
the unwrapped ones alike: node 0's phase lies in (ANCHOR_TILT - pi,
ANCHOR_TILT + pi].

A record is also its log's Cauchy integral in closed form: at a point
clear of the curve it is a short sum of the factors' residues. For the
Schwarz pole that is C(z, w) at every z clear of the nodes' annulus, on
the one route of `transforms.double_cauchy` and `double_cauchy_batch`,
which forms the record once per w and its density only for the z that
the kernel pass sums. Those factors' log(1 - x) is `log1m`, from real
log1p and atan2.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .curve import EPS, TWO_PI, _poly_roots
from .errors import BranchUnresolvedError, NearBoundaryError, ParseError

# The branch cut of node 0's phase sits this far past pi: a negative real
# value (T^2 at node 0 of a curve with real coefficients) has phase pi on
# every route, whichever way rounding tips its imaginary part.
ANCHOR_TILT = 1e-9


class Laurent(NamedTuple):
    """log(lambda12 (z - a)^{-c}) in zeta: constant + sum_m explicit[m - 1]
    zeta^{-m} + sum w log(1 - b/zeta) over the (b, w) of inner + sum w
    log(1 - s zeta) over the (s, w) of outer + winding log zeta, with |b|,
    |s| < 1 on the curve. `point` is the modulus of the adjustment point's
    preimage (0 at class 0)."""

    constant: complex
    inner: tuple = ()
    outer: tuple = ()
    explicit: tuple = ()
    winding: int = 0
    point: float = 0.0

    def __add__(self, other):
        return Laurent(self.constant + other.constant, self.inner + other.inner,
                       self.outer + other.outer, self.explicit + other.explicit,
                       self.winding + other.winding, max(self.point, other.point))


def _factored(curve, roots, weight):
    """weight * log(phi(zeta) - p) from the roots of phi - p: K zeta^k
    prod_in (1 - zeta_i/zeta) prod_out (1 - zeta/zeta_i), K = a_top
    prod_out (-zeta_i), top = the roots' count."""
    inner = tuple((r, weight) for r in roots.tolist() if abs(r) < 1.0)
    out = [r for r in roots.tolist() if not abs(r) < 1.0]
    constant = cmath.log(curve.coeffs[roots.size]) + sum(cmath.log(-r) for r in out)
    return Laurent(weight * constant, inner, tuple((1.0 / r, weight) for r in out),
                   winding=weight * len(inner))


def _adjustment(curve, c, a, roots=None):
    """-c log(z - a), from a's preimages (the roots of phi - a; those of the
    conformal center are kept per curve, `_center_roots`)."""
    if not c:
        return Laurent(0j)
    if roots is None:
        roots = curve._center_roots if a == curve.coeffs[0] else pole_roots(curve, a)
    part = _factored(curve, roots, -c)
    return part._replace(point=max((abs(b) for b, _ in part.inner), default=0.0))


def exp_schwarz(curve):
    """log exp(S): S = conj(a0) + sum_j conj(a_j) zeta^{-j}."""
    cs = [z.conjugate() for z in curve.coeffs[:curve.degree + 1]]
    return Laurent(cs[0], explicit=tuple(cs[1:]))


def pole_roots(curve, w):
    """The roots of phi - w, which give the pole bundle's class and modes.

    A w so far (about 1e290 |a_j| and beyond) that `_poly_roots` trims every
    non-constant coefficient of phi - w keeps no root, and no factor of the
    series would hold w: it is refused (ParseError)."""
    roots = _poly_roots((curve.coeffs[0] - w, *curve.coeffs[1:]))
    if not roots.size:
        raise ParseError(f"pole {complex(w)} is too far from the curve: phi - w keeps no root")
    return roots


def schwarz_pole(curve, roots):
    """log (S - conj w)^{-1} from w's preimages `roots`: minus the reflection
    of log(phi - w), whose inner roots z_i become outer conj(z_i) and outer
    ones, stored as 1/z_i, inner 1/conj(z_i)."""
    part = _factored(curve, roots, 1)
    return Laurent(-part.constant.conjugate(),
                   tuple((s.conjugate(), -1) for s, _ in part.outer),
                   tuple((b.conjugate(), -1) for b, _ in part.inner), winding=part.winding)


def tangent_power(curve, m):
    """log T^{-m} = -m (i pi/2 + i arg a1 + log zeta + 1/2 sum_j log(1 - s_j
    zeta) - 1/2 sum_j log(1 - conj(s_j)/zeta))."""
    s = (1.0 / curve.dphi_roots).tolist()
    return Laurent(-m * 1j * (np.pi / 2 + cmath.phase(curve.coeffs[1])),
                   tuple((z.conjugate(), 0.5 * m) for z in s),
                   tuple((z, -0.5 * m) for z in s), winding=-m)


def adjusted(curve, part, w, roots, c, a):
    """log(lambda12 (z - a)^{-c}): the transition's `part` plus -c log(z - a),
    with w's preimages `roots` serving for a = w."""
    return part + _adjustment(curve, c, a, roots if a == w else None)


def log1m(x):
    """log(1 - x), principal, for |x| < 1, to a few ulps of |log(1 - x)|.

    log|1 - x| is log1p(u (u - 2) + v^2)/2, x = u + iv, where |1 - x|^2 lies
    within 1/2 of 1, and log hypot(1 - u, v) elsewhere, whose log is then at
    least 0.2 in modulus; the phase is atan2(-v, 1 - u). numpy's complex
    log1p forms log(1 + x), which loses the digits of a small x (1.5e-5
    relative at x = 3e-12)."""
    x = np.asarray(x, dtype=complex)
    u, v = x.real, x.imag
    rest = 1.0 - u
    square = u * (u - 2.0) + v * v  # |1 - x|^2 - 1
    small = np.abs(square) <= 0.5
    out = np.empty_like(x)
    out.real = np.log(np.hypot(rest, v))
    out.real[small] = 0.5 * np.log1p(square[small])
    out.imag = np.arctan2(-v, rest)
    return out


def terms(q, weight):
    """Least M, q < 1, whose tail sum_{m > M} weight q^m/m stays within EPS
    (bounded by weight q^M/(1 - q))."""
    if q == 0.0 or weight == 0.0:
        return 0
    return max(1, math.ceil(math.log(EPS * (1.0 - q) / weight) / math.log(q)))


def check(laurent, radius):
    """Refuse the series of `laurent` at |zeta| = radius: a winding left
    over, or a root on the wrong side of the radius. On the curve (radius
    1) such a root is a zero or pole of lambda12 on it, an unresolved branch
    (BranchUnresolvedError); on a ring, one between the ring and the curve
    (NearBoundaryError)."""
    worst = max([abs(b) / radius for b, _ in laurent.inner]
                + [abs(s) * radius for s, _ in laurent.outer], default=0.0)
    if worst < 1.0 and not laurent.winding:
        return
    if radius == 1.0 and not laurent.winding:
        raise BranchUnresolvedError(
            "a zero or pole of lambda12 lies on the curve: lambda12 is zero or not "
            "finite there, and its log has no branch")
    raise NearBoundaryError(
        "a zero or pole of lambda12 lies between the curve and the nodes "
        f"|zeta| = {radius:.6g}; refine the grid")


def _series(roots, weights, count):
    """(count, 2): the modes of zeta^-m and zeta^m, m = 1 .. count, at R = 1
    of the roots, weights[i] = (inner weight, outer weight) of root i (one
    of them 0): one cumulative product of the roots' powers, fewer than n
    rows, and one product by the weights."""
    table = np.array(roots)[None].repeat(count, axis=0)
    np.cumprod(table, axis=0, out=table)
    modes = table @ np.array(weights, dtype=complex)
    modes /= -np.arange(1.0, count + 1)[:, None]
    return modes


def spectra(laurent, n, radii):
    """(len(radii), n): the non-constant modes of `laurent` (`check`ed at
    each radius) at each |zeta| = radius, the DFT/n of its samples at the n
    nodes radius e^{2 pi i k/n}. A root whose series needs fewer than n
    terms (`terms`) at every radius takes its modes, scaled by R^m; a
    nearer one its factor's principal log at the nodes, transformed."""
    lo, hi = min(radii), max(radii)
    roots, weights, count, near = [], [], 0, []
    for pairs, side, scale in ((laurent.inner, 0, 1.0 / lo), (laurent.outer, 1, hi)):
        if not pairs:
            continue
        need = terms(max(abs(r) for r, _ in pairs) * scale, sum(abs(w) for _, w in pairs))
        for root, weight in pairs:
            own = need if need < n else terms(abs(root) * scale, abs(weight))
            if own < n:
                roots.append(root)
                weights.append((0.0, weight) if side else (weight, 0.0))
                count = max(count, own)
            else:
                near.append((root, weight, side))
    radii = np.asarray(radii, dtype=float)[:, None]
    bins = np.zeros((radii.size, n), dtype=complex)
    if count:
        modes = _series(roots, weights, count)
        if lo != 1.0 or hi != 1.0:  # at |zeta| = R: c_m R^m
            power = radii ** np.arange(1.0, count + 1)
            modes = np.stack([modes[:, 0] / power, modes[:, 1] * power], axis=2)
        bins[:, 1:count + 1] = modes[..., 1]
        bins[:, n - count:] += modes[..., ::-1, 0]  # zeta^-m in bin n - m
    if laurent.explicit:  # S's modes, of zeta^-1 .. zeta^-N, folded when N >= n
        j = np.arange(1, len(laurent.explicit) + 1)
        np.add.at(bins, (slice(None), -j % n), np.array(laurent.explicit) * radii ** -j)
    if near:
        nodes = np.exp(1j * (TWO_PI / n) * np.arange(n))
        for row, radius in zip(bins, radii[:, 0]):
            logs = sum(w * np.log1p(-(r / radius * nodes.conjugate() if side == 0
                                      else r * radius * nodes))
                       for r, w, side in near)
            row += np.fft.fft(logs, norm="forward")
    return bins


def density(laurent, n, radius=1.0):
    """The log density at the n nodes of |zeta| = radius: the inverse FFT of
    its `spectra` plus the constant, anchored (`anchored`)."""
    check(laurent, radius)
    values = np.fft.ifft(spectra(laurent, n, (radius,))[0], norm="forward")
    values += laurent.constant
    return anchored(values)


def anchored(log):
    """log (one density, or one per column) shifted in place by 2 pi i k so
    that node 0's phase lies in (ANCHOR_TILT - pi, ANCHOR_TILT + pi]."""
    turns = np.ceil((log[0].imag - np.pi - ANCHOR_TILT) / TWO_PI)
    if turns.any():
        log -= 2j * np.pi * turns
    return log
