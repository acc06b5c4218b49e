"""Quadrature-domain identities from the map's Taylor coefficients, the
polygon corner formula, and the rational structure of the exponential
transform.

The domain of a polynomial map phi = a0 + a1 zeta + ... + aN zeta^N is a
quadrature domain with all its nodes at phi(0) = a0: the Schwarz function
continues meromorphically inside, with its only pullback pole at zeta = 0.
Its harmonic moments M_k = (1/pi) * integral of z^k dA, k >= 0, are
therefore finite sums over the map's coefficients, one truncated product by
phi per order (`ConformalMapCurve.moments`). The classical identity is
sum_k f_k M_k, the Abelian identity the classical one of f'. The arc-length
identity is the residue of the reciprocal tangent's simple pole at zeta = 0,
2 pi |a1| f(a0); 1/T has that form only when phi' is constant, so the
identity answers circles and refuses every other map by the degree of phi'
(a branch point of 1/T in the disk, or a pole of higher order). Every
identity is paired with a direct boundary-integral form for cross-checking;
the polygon corner formula is checked against the exact boundary integral
of Green's theorem, evaluated edge by edge.

The rational structure F(z, w) = Q(z, conj w)/(P(z) conj(P(w))) is fitted
on all pairs of exterior samples, with F from the Taylor modes of log(phi -
z) at m <= n pullback nodes, one unwrap and one FFT over all samples: P by
block elimination (a deg_p-column solve), Q as a Kronecker solve. q and p
carry a relative error of about the fit's condition number times eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import laurent
from .curve import ConformalMapCurve, PolygonCurve, integer_argument, off_band
from .errors import (
    NotConformalMapCurveError,
    ParseError,
    RankDeficientError,
    TangentNotMeromorphicError,
    WrongQuadrantError,
)
from .schwarz import _prime_at, polygon_schwarz
from .transforms import _pole_transition, unwrap_log

QD_RESIDUAL_THRESHOLD = 1e-3
EPS = np.finfo(float).eps

QUADRATURE_DOMAIN = "quadrature-domain"
NOT_QUADRATURE_DOMAIN = "not-quadrature-domain-at-degree"


def _require_conformal(curve):
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError(
            "residue quadrature needs a polynomial conformal-map curve")


def classical_quadrature(curve, f_coeffs):
    """Mean (1/pi) * integral of f over the domain: sum_k f_k M_k, with the
    moments M_k from the map's coefficients (`ConformalMapCurve.moments`).
    Equals the boundary integral (1/2 pi i) * integral of f(z) S(z) dz."""
    _require_conformal(curve)
    f = np.asarray(f_coeffs, dtype=complex).reshape(-1)
    return complex(f @ curve.moments(f.size - 1))


def abelian_quadrature(curve, f_coeffs):
    """Mean (1/pi) * integral of f' over the domain, sum_k k f_k M_{k-1}: the
    classical identity of f'. Equals -(1/2 pi i) * integral of f(z) S'(z) dz."""
    return classical_quadrature(curve, poly_derivative(f_coeffs))


def arclength_quadrature(curve, f_coeffs):
    """Arc-length integral of f over the curve, by residues: 2 pi |a1| f(a0)
    for a circle, from the coefficients alone.

    On the circle 1/T = -i zeta^-1 conj(phi'(zeta))/|phi'(zeta)|, which
    continues into the disk as -i zeta^-1 (phi'^*(1/zeta)/phi'(zeta))^(1/2),
    phi'^* the conjugate coefficients. The identity 2 pi i times the residue
    at zeta = 0 of f(phi) (1/T) phi' takes 1/T to be a simple pole at zeta = 0
    and holomorphic elsewhere in the disk, which holds exactly when phi' is
    the constant a1 (a circle): then 1/T = -i conj(a1)/(|a1| zeta). A phi' of
    degree d >= 1 has its roots r beyond 1/rho, so phi'^*(1/zeta) vanishes at
    1/conj(r) inside the disk: a root of odd multiplicity (always one when d
    is odd) is a branch point of 1/T, and when every multiplicity is even
    1/T has a pole of order d/2 + 1 at zeta = 0, whose residue needs
    derivatives of f at a0. Both are refused (TangentNotMeromorphicError).
    """
    _require_conformal(curve)
    a0, a1 = curve.coeffs[:2]
    d = curve.degree - 1  # the degree of phi'
    if d:  # the multiplicities of its roots sum to d
        raise TangentNotMeromorphicError(
            f"the arc-length identity holds for circles only; phi' has degree {d}: " + (
                "odd, so a root of odd multiplicity puts a branch point of 1/T in the disk"
                if d % 2 else "a root of odd multiplicity puts a branch point of 1/T in the "
                f"disk, and a perfect square a pole of order {d // 2 + 1} at zeta = 0"))
    return complex(2.0 * np.pi * abs(a1) * npoly.polyval(a0, f_coeffs))


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
    vals = npoly.polyval(grid.z, f_coeffs) * _prime_at(grid.curve, grid.zeta) * grid.dz
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
    """Deterministic well-separated exterior samples on two rings; a count
    below 4 is refused (ParseError)."""
    count = integer_argument(count, "count")
    if count < 4:
        raise ParseError(f"at least 4 exterior samples are needed, got {count}")
    scale = np.abs(grid.z).max()
    half = count // 2
    ring1 = 1.6 * scale * np.exp(2j * np.pi * (np.arange(half) + 0.25) / half)
    ring2 = 2.4 * scale * np.exp(2j * np.pi * (np.arange(count - half) + 0.55)
                                 / (count - half))
    return np.concatenate([ring1, ring2])


def fit_rational_structure(grid, deg_q, deg_p, exterior_samples):
    """Fit F(z, w) = Q(z, conj w) / (P(z) conj(P(w))) on all sample pairs.

    F on every pair comes from the Taylor modes of log(phi - z) at every
    sample z, one unwrap and one FFT at m <= n pullback nodes, and one real
    product (`_exterior_f_matrix`); no kernel pass.
    Stage one fits a common monic denominator P across the slices F(., w_u)
    by block elimination; stage two solves for the numerator Q given P as
    a Kronecker least-squares problem and hermitizes it (`_solve_stages`).
    The fit residual is the relative error of F * P(z) * conj(P(w)) - Q over
    all sample pairs; below the calibrated threshold the domain is classified
    as a quadrature domain at this degree.
    """
    deg_q, deg_p = integer_argument(deg_q, "deg_q"), integer_argument(deg_p, "deg_p")
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
    """F(zs[s], zs[u]) = exp C for exterior samples, from the Taylor modes
    l_k(z) of log((phi(zeta) - z)/(a0 - z)): C(z, w) = -sum_{k >= 1} k l_k(z)
    conj(l_k(w)), the Cauchy sum of the Schwarz-pole section of w summed by
    its residues at z's preimages.

    One side decision (`curve.off_band`) locates the samples. phi - z has
    every root at |zeta| >= rho (`_root_modulus_bound`), so |l_k| <= N
    rho^-k/k at degree N, and the modes 1 <= k < m/2 of m nodes e^{2 pi i
    j/m} carry truncation and aliasing below N^2 rho^-m/(1 - 1/rho) in C: m
    is the least power of two >= 16 that puts it within EPS (`laurent.terms`)
    and keeps the true phase step, at most 2 pi N/(m (rho - 1)), below pi/2,
    so that the unwrap's branch is the continuous one; n when rho <= 1 or
    the bound asks more (`_mode_nodes`). The m nodes are every (n/m)-th
    grid node, and the values unwrapped there are the Schwarz-pole
    transitions 1/(S - conj z) = 1/conj(phi(zeta) - z), whose log is
    -conj(log(phi - z)): its FFT holds -conj(l_k) in bin m - k, and its
    constant, bin 0, drops out. That one unwrap's refusal is the fit's
    (BranchUnresolvedError) and the one n nodes would give: the m nodes
    are a subset of the n, so a modulus refusal at m is one at n, and at m
    < n the phase step is below pi/2. C is one real product of the modes'
    parts, as in `curve.kernel_sums`: after a complex product the complex
    exp ran about twentyfold slower with OpenBLAS."""
    inside, _ = off_band(grid, zs)
    if inside.any():
        raise WrongQuadrantError(f"sample {zs[inside][0]} is not exterior")
    m = _mode_nodes(grid.curve, zs, grid.n)
    log = unwrap_log(_pole_transition(grid, zs, grid.n // m))[0]
    # bins m/2 + 1 .. m - 1 hold -conj(l_k), k = m/2 - 1 .. 1, so that C =
    # -conj(sum_k k X_k(z) conj(X_k(w))); read as reals, row 2s of the
    # product holds k Re X(z_s) . (Re X(z_u), Im X(z_u)), row 2s + 1 the same
    # of Im X(z_s)
    modes = np.fft.fft(log, axis=0, norm="forward")[m // 2 + 1:]
    parts = (modes * np.arange(m // 2 - 1.0, 0.0, -1.0)[:, None]).view(float).T @ modes.view(float)
    c = np.empty((zs.size, zs.size), dtype=complex)
    np.add(parts[0::2, 0::2], parts[1::2, 1::2], out=c.real)
    np.negative(c.real, out=c.real)
    np.subtract(parts[1::2, 0::2], parts[0::2, 1::2], out=c.imag)
    return np.exp(c, out=c)


def _mode_nodes(curve, zs, n):
    """The pullback nodes m of `_exterior_f_matrix`: a power of two from 16
    to n, n when `_root_modulus_bound` is at most 1."""
    rho = _root_modulus_bound(curve, zs)
    if not rho > 1.0:
        return n
    degree = curve.degree
    need = max(laurent.terms(1.0 / rho, degree * degree), 4 * degree / (rho - 1.0), 16)
    return min(1 << (math.ceil(need) - 1).bit_length(), n)


def _root_modulus_bound(curve, zs):
    """rho <= |zeta| at every root of phi - z, z in zs: sum_{j >= 1} |a_j|
    rho^j < d = min |z - a0| keeps |phi(zeta) - z| > 0 on |zeta| <= rho.

    That convex increasing sum meets d at r* <= min_j (d/|a_j|)^(1/j), where
    it is at most N d: Newton's method in Python floats from there falls to
    r*, monotonically and without overflow, until its step is within 1e-15
    of r, within N 1e-15 of r* on either side. rho is that r less 1e-9 of
    it, which lowers the sum by at least 1e-9 d, beyond both at degrees N
    below 1e5."""
    gap = float(np.abs(zs - curve.coeffs[0]).min())
    a = [abs(c) for c in curve.coeffs[1:curve.degree + 1]]
    r = min((gap / c) ** (1.0 / j) for j, c in enumerate(a, 1) if c)
    while True:
        value = slope = 0.0  # sum |a_j| r^(j - 1) and its derivative, by Horner
        for c in reversed(a):
            slope = slope * r + value
            value = value * r + c
        step = (r * value - gap) / (value + r * slope)
        if not step > 1e-15 * r:
            return r * (1.0 - 1e-9)
        r -= step


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
