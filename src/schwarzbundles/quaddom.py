"""Quadrature-domain identities by residues, the polygon corner formula, and
the rational structure of the exponential transform.

For a polynomial map curve the Schwarz function continues meromorphically
into the domain, with its only pullback pole at zeta = 0. Residues are
extracted uniformly by a contour integral on |zeta| = 1/2 in the pullback
plane, which handles arbitrary pole orders without symbolic work. Every
residue identity is paired with a direct boundary-integral form for
cross-checking; the polygon corner formula is checked against the exact
boundary integral of Green's theorem, evaluated edge by edge.

The rational structure F(z, w) = Q(z, conj w)/(P(z) conj(P(w))) is fitted
on all pairs of exterior samples, with F from one kernel pass: P by block
elimination (a deg_p-column solve), Q as a Kronecker solve. q and p carry
a relative error of about the fit's condition number times eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bundles import _pole_transition
from .curve import ConformalMapCurve, PolygonCurve, kernel_sums, off_band
from .errors import (
    NotConformalMapCurveError,
    ParseError,
    RankDeficientError,
    TangentNotMeromorphicError,
    WrongQuadrantError,
)
from .schwarz import polygon_schwarz
from .transforms import unwrap_log

RESIDUE_RADIUS = 0.5
RESIDUE_NODES = 512
TANGENT_TAIL_TOL = 1e-8
QD_RESIDUAL_THRESHOLD = 1e-3
EPS = np.finfo(float).eps

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
    zeta = grid.zeta
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
    """Fit F(z, w) = Q(z, conj w) / (P(z) conj(P(w))) on all sample pairs.

    F on every pair comes from one kernel pass (`_exterior_f_matrix`).
    Stage one fits a common monic denominator P across the slices F(., w_u)
    by block elimination; stage two solves for the numerator Q given P as
    a Kronecker least-squares problem and hermitizes it (`_solve_stages`).
    The fit residual is the relative error of F * P(z) * conj(P(w)) - Q over
    all sample pairs; below the calibrated threshold the domain is classified
    as a quadrature domain at this degree.
    """
    deg_q, deg_p = int(deg_q), int(deg_p)
    if min(deg_q, deg_p) < 0:
        raise ParseError(f"degrees must be nonnegative, got {deg_q} and {deg_p}")
    zs = np.asarray(exterior_samples, dtype=complex)
    n_pairs = zs.size * zs.size
    if n_pairs < (deg_q + 1) ** 2 + deg_p + 1:
        raise RankDeficientError(
            f"need at least {(deg_q + 1) ** 2 + deg_p + 1} sample pairs, "
            f"got {n_pairs}")
    return _solve_stages(zs, _exterior_f_matrix(grid, zs), deg_q, deg_p)


def _exterior_f_matrix(grid, zs):
    """F(zs[s], zs[u]) = exp(sum) for exterior samples: one kernel pass
    (`curve.off_band`) locates the samples, and one more sums the densities
    of their Schwarz-pole sections, the unwrapped pole transitions as columns."""
    inside, _ = off_band(grid, zs)
    if inside.any():
        raise WrongQuadrantError(f"sample {zs[inside][0]} is not exterior")
    dens, _ = unwrap_log(_pole_transition(grid, zs))
    return np.exp(kernel_sums(grid, zs, dens)[2])


def _solve_stages(zs, fmat, deg_q, deg_p):
    """Both least-squares stages on fmat[s, u] = F(zs[s], zs[u]) through
    their structure, with V = [zs[s]^j], j <= deg_q, and its SVD.

    Stage one, slice u: V c_u + B_u p = r_u with B_u = -F[:, u] zs^j, j <
    deg_p, and r_u = F[:, u] zs^deg_p. V is the same block for every u, so
    projecting onto the complement of its range eliminates every c_u and
    leaves a deg_p-column problem for p (variable projection); c_u is never
    formed. Stage two: rows zs[s]^j conj(zs[u])^k form kron(V, conj V), so
    the least-squares Q is V+ R V+^H for R = F P(zs) conj(P(zs))^T. Ranks
    are those of the dense systems under numpy's lstsq cut eps * max(rows,
    cols) * sigma_max, with sigma_max of stage one taken as max(sigma_max(V),
    |B|_2): stage one's rank is n_s rank(V) plus the reduced problem's, and
    stage two's singular values are the products sigma_i sigma_j of V's.
    """
    n_s, n_num = zs.size, deg_q + 1
    zpow = zs[:, None] ** np.arange(max(deg_q, deg_p) + 1)
    vand, zp = zpow[:, :n_num], zpow[:, :deg_p]
    u, sv, vh = np.linalg.svd(vand)

    ncols = n_s * n_num + deg_p
    # |B|_2 of the stacked B_u, from B^H B = Zp^H diag(sum_u |F[s, u]|^2) Zp
    b_norm = np.linalg.norm(np.linalg.norm(fmat, axis=1)[:, None] * zp, 2)
    tol = EPS * max(n_s * n_s, ncols) * max(sv[0], b_norm)
    rank_v = int(np.sum(sv > tol))
    perp = u[:, rank_v:].conj().T  # rows: the complement of V's range
    bmat = -(fmat[:, :, None] * zp[:, None, :]).reshape(n_s, n_s * deg_p)
    reduced = (perp @ bmat).reshape(perp.shape[0] * n_s, deg_p)
    ur, sr, vhr = np.linalg.svd(reduced, full_matrices=False)
    rank = n_s * rank_v + int(np.sum(sr > tol))
    if rank < ncols:
        raise RankDeficientError(f"denominator stage rank {rank} < {ncols}")
    rhs = (perp @ (fmat * zpow[:, deg_p, None])).ravel()
    p_low = vhr.conj().T @ ((ur.conj().T @ rhs) / sr)
    p_coeffs = np.concatenate([p_low, [1.0 + 0j]])

    pvals = npoly.polyval(zs, p_coeffs)
    rmat = fmat * pvals[:, None] * np.conjugate(pvals)[None, :]
    tol2 = EPS * max(n_s * n_s, n_num * n_num) * sv[0] ** 2
    rank2 = int(np.sum(np.multiply.outer(sv, sv) > tol2))
    if rank2 < n_num * n_num:
        raise RankDeficientError(f"numerator stage rank {rank2} < {n_num * n_num}")
    vpinv = (vh.conj().T / sv) @ u[:, :n_num].conj().T
    q_coeffs = vpinv @ rmat @ vpinv.conj().T
    q_coeffs = 0.5 * (q_coeffs + q_coeffs.conj().T)

    resid = (np.linalg.norm(vand @ q_coeffs @ vand.conj().T - rmat)
             / max(np.linalg.norm(rmat), 1e-300))
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
