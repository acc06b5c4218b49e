"""The Schwarz function S of an analytic curve: S(z) = conj(z) on the curve.

For a curve phi(unit circle), S extends analytically to the validated annulus
through the reflection S(z) = conj(phi(1/conj(zeta))) with zeta = phi^{-1}(z).
The inverse map is one Newton iteration over a whole batch of points, each
seeded from the nearest of _N_SEEDS samples of the curve. conj(S(z)) is the
anti-conformal reflection across the curve.

`invert_conformal_map`, `schwarz_near`, `schwarz_prime` and `schwarz_reflect`,
like `bundles.holomorphic_tangent`, take a scalar or an array of points: a
scalar gives a Python complex, an array an array of its shape. A batch is
refused as a whole when any of its points is. The evaluators of
`bundles.custom_bundle` and `bundles.verify_m_differential_match` are called
once, on the node array, so these helpers serve there as they are.

Polygons have an edge-wise affine Schwarz function S(z) = alpha*z + beta.
"""

from __future__ import annotations

import numpy as np

from .curve import KERNEL_BLOCK, TWO_PI, ConformalMapCurve, PolygonCurve, integer_argument
from .errors import (
    DegenerateEdgeError,
    NewtonDivergedError,
    NotConformalMapCurveError,
    OutsideAnnulusError,
    ParseError,
)

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-13
_N_SEEDS = 256


def _like(z, values):
    """values as a Python complex for a scalar z, else as they are."""
    return complex(values) if np.ndim(z) == 0 else values


def invert_conformal_map(curve, z):
    """zeta with phi(zeta) = z, for z in the validated annular image.

    z is a scalar or an array. Newton steps run on the points not yet within
    NEWTON_TOL * (1 + |z|) of their image, each from the nearest of _N_SEEDS
    samples of the curve; a point stops once a step takes it beyond
    |zeta| = 4/rho. The batch is refused, naming its first failing point,
    for a non-finite z or one whose modulus overflows (ParseError), no
    convergence within NEWTON_MAX_ITER steps (NewtonDivergedError) or a
    zeta outside [rho, 1/rho] (OutsideAnnulusError).
    """
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError("Schwarz evaluation needs a conformal-map curve")
    zs = np.asarray(z, dtype=complex).reshape(-1)
    scale = 1.0 + np.abs(zs)
    if not np.all(scale < np.inf):  # NaN, infinite, or a modulus that overflows
        raise ParseError(f"points must be finite, got {zs[~(scale < np.inf)][0]}")
    seeds = np.exp(1j * TWO_PI * np.arange(_N_SEEDS) / _N_SEEDS)
    # the nearest seed, at most KERNEL_BLOCK point-seed pairs at a time
    vals, blocks = curve.phi(seeds), 1 + zs.size * _N_SEEDS // KERNEL_BLOCK
    zeta = np.concatenate([seeds[np.abs(part[:, None] - vals).argmin(axis=1)]
                           for part in np.array_split(zs, blocks)])
    todo = np.arange(zs.size)
    for _ in range(NEWTON_MAX_ITER):
        f = curve.phi(zeta[todo]) - zs[todo]
        keep = np.abs(f) > NEWTON_TOL * scale[todo]
        todo, f = todo[keep], f[keep]
        if not todo.size:
            break
        zeta[todo] -= f / curve.dphi(zeta[todo])
        todo = todo[np.abs(zeta[todo]) <= 4.0 / curve.rho]  # escaped: refused below
    r = np.abs(zeta)
    failed = ~((curve.rho * (1.0 - 1e-10) <= r) & (r <= (1.0 + 1e-10) / curve.rho))
    failed[todo] = True  # not converged
    if failed.any():
        j = failed.argmax()
        if j in todo:
            raise NewtonDivergedError(f"no convergence inverting the map at z = {zs[j]}")
        raise OutsideAnnulusError(f"Newton ends at |zeta| = {r[j]:.6g} for z = {zs[j]}, "
                                  f"outside [{curve.rho}, {1 / curve.rho:.6g}]")
    return _like(z, zeta.reshape(np.shape(z)))


def _prime_at(curve, zeta):
    """S' at the points phi(zeta): the chain rule through the map and its
    reflection, -dphi_reflected(zeta)/(zeta^2 dphi(zeta))."""
    return -curve.dphi_reflected(zeta) / (zeta * zeta * curve.dphi(zeta))


def schwarz_boundary(curve, t):
    """S on the curve itself: conj(z(t))."""
    if not isinstance(curve, ConformalMapCurve):
        raise NotConformalMapCurveError("polygons carry edge-wise Schwarz data")
    return np.conjugate(curve.point(t))


def schwarz_near(curve, z):
    """S(z) for z in the validated annulus around the curve."""
    return _like(z, curve.phi_reflected(invert_conformal_map(curve, z)))


def schwarz_prime(curve, z):
    """S'(z), by the chain rule through the map and its reflection."""
    return _like(z, _prime_at(curve, invert_conformal_map(curve, z)))


def schwarz_reflect(curve, z):
    """Anti-conformal reflection across the curve, conj(S(z)); an involution."""
    return schwarz_near(curve, z).conjugate()


def polygon_schwarz(polygon, edge_index):
    """Affine Schwarz data (alpha, beta) with S(z) = alpha*z + beta on an edge.

    alpha = conj(T)/T for the edge tangent T, and beta is fixed by
    S(vertex) = conj(vertex) at the edge start.
    """
    if not isinstance(polygon, PolygonCurve):
        raise NotConformalMapCurveError("edge Schwarz data needs a polygon")
    a, b = polygon.edge(integer_argument(edge_index, "edge_index"))
    e = b - a
    if polygon.is_zero_length(abs(e)):
        raise DegenerateEdgeError(f"edge {edge_index} has zero length")
    tangent = e / abs(e)
    alpha = tangent.conjugate() / tangent
    beta = a.conjugate() - alpha * a
    return alpha, beta
