"""Quadrature-domain identities by residues, the polygon corner formula, and
the rational structure of the exponential transform.

For a polynomial map curve the Schwarz function continues meromorphically
into the domain, with its only pullback pole at zeta = 0. Residues are
extracted uniformly by a contour integral on |zeta| = 1/2 in the pullback
plane, which handles arbitrary pole orders without symbolic work. Every
residue identity is paired with a direct boundary-integral form for
cross-checking; the polygon corner formula is checked against the exact
boundary integral of Green's theorem, evaluated edge by edge.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curve import ConformalMapCurve, PolygonCurve, band_refusal, kernel_sums
from .errors import (
    NotConformalMapCurveError,
    RankDeficientError,
    TangentNotMeromorphicError,
    WrongQuadrantError,
)
from .schwarz import polygon_schwarz
from .transforms import double_cauchy_batch

RESIDUE_RADIUS = 0.5
RESIDUE_NODES = 512
TANGENT_TAIL_TOL = 1e-8
QD_RESIDUAL_THRESHOLD = 1e-3

QUADRATURE_DOMAIN = "quadrature-domain"
NOT_QUADRATURE_DOMAIN = "not-quadrature-domain-at-degree"


def _require_conformal(curve):
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError(
            "residue quadrature needs a polynomial conformal-map curve")


def _pullback_residue_sum(integrand, r=RESIDUE_RADIUS, n=RESIDUE_NODES):
    """(1/2 pi i) * integral over |zeta| = r of integrand(zeta) dzeta,
    i.e. the residue at zeta = 0 when the integrand is meromorphic there."""
    th = 2.0 * np.pi * np.arange(n) / n
    zeta = r * np.exp(1j * th)
    return complex((r / n) * np.sum(integrand(zeta) * np.exp(1j * th)))


def classical_quadrature(curve, f_coeffs):
    """Mean (1/pi) * integral of f over the domain, by residues.

    Pullback residue at zeta = 0 of f(phi) * conj-phi(1/zeta) * phi'; equals
    the boundary integral (1/2 pi i) * integral of f(z) S(z) dz.
    """
    _require_conformal(curve)
    f_coeffs = tuple(complex(c) for c in f_coeffs)

    def integrand(zeta):
        return (npoly.polyval(curve.phi(zeta), f_coeffs)
                * curve.phi_reflected(zeta) * curve.dphi(zeta))

    return _pullback_residue_sum(integrand)


def abelian_quadrature(curve, f_coeffs):
    """Mean (1/pi) * integral of f' over the domain.

    Minus the pullback residue of f(phi) * S'(phi) * phi', where in pullback
    S'(phi(zeta)) * phi'(zeta) = -conj-phi'(1/zeta)/zeta^2.
    """
    _require_conformal(curve)
    f_coeffs = tuple(complex(c) for c in f_coeffs)

    def integrand(zeta):
        return (npoly.polyval(curve.phi(zeta), f_coeffs)
                * curve.dphi_reflected(zeta) / zeta ** 2)

    return _pullback_residue_sum(integrand)


def _inverse_tangent_series(grid):
    """Laurent data of 1/T in the pullback plane, when meromorphic.

    Fourier-analyzes the boundary samples conj(z')/|z'|; a genuine negative
    tail beyond the simple pole at zeta = 0 means 1/T has a branch point
    inside and the arc-length identity does not apply.
    """
    h = np.conjugate(grid.dz) / np.abs(grid.dz)
    coeff = np.fft.fft(h) / grid.n
    freqs = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    top = np.abs(coeff).max()
    tail = np.abs(coeff[freqs < -1])
    if tail.size and tail.max() > TANGENT_TAIL_TOL * top:
        raise TangentNotMeromorphicError(
            "reciprocal tangent has a nonvanishing negative-frequency tail "
            f"({tail.max():.3g} relative {tail.max() / top:.3g})")
    keep = (freqs >= -1) & (np.abs(coeff) > 1e-15 * top)
    return freqs[keep], coeff[keep]


def arclength_quadrature(curve, f_coeffs, grid=None):
    """Arc-length integral of f over the curve, by residues.

    2 pi i times the pullback residue of f(phi) * (1/T)(phi) * phi', with 1/T
    continued from its boundary Fourier series (validated meromorphic).
    """
    _require_conformal(curve)
    if grid is None:
        from .curve import sample
        grid = sample(curve, 512)
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    freqs, coeff = _inverse_tangent_series(grid)

    def inv_tangent(zeta):
        return sum(c * zeta ** int(m) for m, c in zip(freqs, coeff))

    def integrand(zeta):
        return (npoly.polyval(curve.phi(zeta), f_coeffs)
                * inv_tangent(zeta) * curve.dphi(zeta))

    return 2j * np.pi * _pullback_residue_sum(integrand)


def polygon_quadrature(polygon):
    """Corner nodes and weights for the polygon identity
    (1/pi) * integral of f'' over the polygon = sum_j c_j f(a_j).

    The weights are the jumps of the edge-wise Schwarz slope at the corners,
    divided by 2 pi i; they satisfy sum c_j = 0 and sum c_j a_j = 0.
    """
    if not isinstance(polygon, PolygonCurve):
        raise NotConformalMapCurveError("corner quadrature needs a polygon")
    n = polygon.n_vertices
    slopes = [polygon_schwarz(polygon, j)[0] for j in range(n)]
    return [(polygon.vertices[j], (slopes[j] - slopes[j - 1]) / (2j * np.pi))
            for j in range(n)]


def apply_polygon_quadrature(weights, f_coeffs):
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    return complex(sum(c * npoly.polyval(a, f_coeffs) for a, c in weights))


# direct boundary-integral forms (independent cross-checks for the residues)

def boundary_classical(grid, f_coeffs):
    """(1/2 pi i) * integral of f(z) conj(z) dz over the curve."""
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    vals = npoly.polyval(grid.z, f_coeffs) * np.conjugate(grid.z) * grid.dz
    return complex(grid.weight / (2j * np.pi) * np.sum(vals))


def boundary_abelian(grid, f_coeffs):
    """-(1/2 pi i) * integral of f(z) S'(z) dz, with S' in boundary form."""
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    zeta = np.exp(1j * grid.t)
    sprime = -grid.curve.dphi_reflected(zeta) / (zeta ** 2 * grid.curve.dphi(zeta))
    vals = npoly.polyval(grid.z, f_coeffs) * sprime * grid.dz
    return complex(-grid.weight / (2j * np.pi) * np.sum(vals))


def boundary_arclength(grid, f_coeffs):
    """Integral of f(z) |dz| over the curve."""
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    return complex(grid.weight * np.sum(npoly.polyval(grid.z, f_coeffs)
                                        * np.abs(grid.dz)))


def area_mean_polygon(polygon, f_coeffs):
    """(1/pi) * integral of f over a polygon, as the Green's-theorem boundary
    integral (1/2 pi i) * integral of f(z) conj(z) dz. Gauss-Legendre with
    len(f) + 1 nodes per edge is exact for the polynomial integrand."""
    f_coeffs = tuple(complex(c) for c in f_coeffs)
    s, wts = np.polynomial.legendre.leggauss(len(f_coeffs) + 1)
    a = np.asarray(polygon.vertices)[:, None]
    edge = np.roll(a, -1, axis=0) - a
    z = a + edge * (0.5 * (s + 1.0))
    vals = npoly.polyval(z, f_coeffs) * np.conjugate(z) * (0.5 * wts) * edge
    return complex(np.sum(vals) / (2j * np.pi))


def poly_derivative(f_coeffs, order=1):
    cs = tuple(complex(c) for c in f_coeffs)
    for _ in range(order):
        cs = tuple((k + 1) * cs[k + 1] for k in range(len(cs) - 1)) or (0j,)
    return cs


# rational structure of the exponential transform

@dataclass(frozen=True, eq=False)
class RationalStructure:
    """Fit F(z, w) = Q(z, conj w) / (P(z) conj(P(w))) on exterior samples.

    q_coeffs[j, k] multiplies z^j conj(w)^k and is hermitian; p_coeffs is
    monic (low-to-high). `residual` is the relative least-squares residual.
    """

    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    residual: float

    @property
    def is_quadrature_domain_at_degree(self):
        return self.residual < QD_RESIDUAL_THRESHOLD

    @property
    def classification(self):
        return (QUADRATURE_DOMAIN if self.is_quadrature_domain_at_degree
                else NOT_QUADRATURE_DOMAIN)


def default_exterior_samples(grid, count=12):
    """Deterministic well-separated exterior samples on two rings."""
    count = max(4, int(count))
    scale = np.abs(grid.z).max()
    half = count // 2
    ring1 = 1.6 * scale * np.exp(2j * np.pi * (np.arange(half) + 0.25) / half)
    ring2 = 2.4 * scale * np.exp(2j * np.pi * (np.arange(count - half) + 0.55)
                                 / (count - half))
    return np.concatenate([ring1, ring2])


def fit_rational_structure(grid, deg_q, deg_p, exterior_samples):
    """Two-stage linear least squares for the rational form of F.

    Stage one fits a common monic denominator P across slices in the first
    variable; stage two solves for the numerator Q given P and hermitizes it.
    The fit residual is the relative error of F * P(z) * conj(P(w)) - Q over
    all sample pairs; below the calibrated threshold the domain is classified
    as a quadrature domain at this degree.
    """
    deg_q, deg_p = int(deg_q), int(deg_p)
    zs = np.asarray(exterior_samples, dtype=complex)
    n_pairs = zs.size * zs.size
    if n_pairs < (deg_q + 1) ** 2 + deg_p + 1:
        raise RankDeficientError(
            f"need at least {(deg_q + 1) ** 2 + deg_p + 1} sample pairs, "
            f"got {n_pairs}")
    nearest, winding, _ = kernel_sums(grid, zs)
    for p, gap, wind in zip(zs, nearest, winding):
        if gap < grid.exclusion_band:
            raise band_refusal(grid, p)
        if wind > 0.5:
            raise WrongQuadrantError(f"sample {p} is not exterior")

    # F = E on exterior pairs: one kernel pass over all samples per column w
    fmat = np.empty((zs.size, zs.size), dtype=complex)
    for j, wj in enumerate(zs):
        fmat[:, j] = [cmath.exp(c) for c in double_cauchy_batch(grid, zs, wj)]
    return _fit_transform_matrix(zs, fmat, deg_q, deg_p)


def _fit_transform_matrix(zs, fmat, deg_q, deg_p):
    """Both least-squares stages on fmat[s, u] = F(zs[s], zs[u])."""
    n_s = zs.size
    n_num = deg_q + 1
    ncols = n_s * n_num + deg_p
    rows = n_s * n_s
    amat = np.zeros((rows, ncols), dtype=complex)
    rhs = np.zeros(rows, dtype=complex)
    zpow = zs[:, None] ** np.arange(max(deg_q, deg_p) + 1)[None, :]
    for s in range(n_s):
        for u in range(n_s):
            r = s * n_s + u
            amat[r, u * n_num:(u + 1) * n_num] = zpow[s, :n_num]
            if deg_p:
                amat[r, n_s * n_num:] = -fmat[s, u] * zpow[s, :deg_p]
            rhs[r] = fmat[s, u] * zs[s] ** deg_p
    sol, _, rank, _ = np.linalg.lstsq(amat, rhs, rcond=None)
    if rank < ncols:
        raise RankDeficientError(f"denominator stage rank {rank} < {ncols}")
    p_coeffs = np.concatenate([sol[n_s * n_num:], [1.0 + 0j]])

    pvals = npoly.polyval(zs, p_coeffs)
    a2 = np.zeros((rows, (deg_q + 1) ** 2), dtype=complex)
    b2 = np.zeros(rows, dtype=complex)
    wpow = np.conjugate(zs)[:, None] ** np.arange(deg_q + 1)[None, :]
    for s in range(n_s):
        for u in range(n_s):
            r = s * n_s + u
            a2[r] = np.outer(zpow[s, :n_num], wpow[u]).ravel()
            b2[r] = fmat[s, u] * pvals[s] * np.conjugate(pvals[u])
    qsol, _, rank2, _ = np.linalg.lstsq(a2, b2, rcond=None)
    if rank2 < (deg_q + 1) ** 2:
        raise RankDeficientError(f"numerator stage rank {rank2} < {(deg_q + 1) ** 2}")
    q_coeffs = qsol.reshape(deg_q + 1, deg_q + 1)
    q_coeffs = 0.5 * (q_coeffs + q_coeffs.conj().T)

    resid = np.linalg.norm(a2 @ q_coeffs.ravel() - b2) / max(np.linalg.norm(b2), 1e-300)
    return RationalStructure(q_coeffs=q_coeffs, p_coeffs=p_coeffs,
                             residual=float(resid))


def verify_algebraic_boundary(q_coeffs, grid):
    """max over nodes of |Q(z, conj z)| normalized by the largest coefficient."""
    q = np.asarray(q_coeffs, dtype=complex)
    deg = q.shape[0] - 1
    zp = grid.z[:, None] ** np.arange(deg + 1)[None, :]
    wp = np.conjugate(grid.z)[:, None] ** np.arange(deg + 1)[None, :]
    vals = np.einsum("nj,jk,nk->n", zp, q, wp)
    return float(np.abs(vals).max() / np.abs(q).max())


def quadrature_report(kind, residue_value, oracle_value, weights=None):
    """JSON-ready report comparing a residue identity with its oracle."""
    report = {
        "kind": kind,
        "residue_value": [residue_value.real, residue_value.imag],
        "oracle_value": [oracle_value.real, oracle_value.imag],
        "discrepancy": abs(residue_value - oracle_value),
    }
    if weights is not None:
        report["weights"] = [{"corner": [a.real, a.imag],
                              "weight": [c.real, c.imag]} for a, c in weights]
    return report
