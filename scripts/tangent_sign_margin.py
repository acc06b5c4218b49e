"""Sign margin of the holomorphic tangent's closed form, `bundles._pullback_tangent`.

For the benchmark curves and phi = ((1 + 0.55 zeta)^7 - 1)/3.85 at rho 0.56
(a 6-fold zero of phi' just beyond 1/rho), on n points of each pullback ring
|zeta| = r from 1.01 rho to 0.99/rho, it prints:

- the smallest ratio between the distances of the two root candidates
  -sqrt(g) and +sqrt(g) to the factored root |phi'(0)| prod_j sqrt(u_j),
  the farther over the nearer (inf where the nearer is exact); the sign is
  decided where this ratio is large;
- the points where the closed-form tangent and a radial tracker of the root
  in `steps` steps from the circle give opposite signs.

Usage: python scripts/tangent_sign_margin.py [n] [steps]   (default 4001 2000)
"""

import sys

import numpy as np
from numpy.polynomial import polynomial as npoly

import schwarzbundles as sb

CURVES = (("disk", [0, 1], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75),
          ("(1+0.55z)^7", npoly.polysub(npoly.polypow([1, 0.55], 7), [1]) / 3.85, 0.56))


def candidate_ratio(curve, zeta):
    """Smallest ratio, over the points, of the farther candidate root's
    distance to the factored root over the nearer one's."""
    root = np.sqrt(curve.dphi(zeta) * curve.dphi_reflected(zeta))
    product = np.full_like(zeta, abs(curve.dphi(0.0)))
    for s in 1.0 / curve.dphi_roots:
        product *= np.sqrt((1.0 + abs(s) ** 2) - (zeta * s + s.conjugate() / zeta))
    near, far = np.sort([np.abs(root - product), np.abs(root + product)], axis=0)
    with np.errstate(divide="ignore"):
        return float(np.min(far / near))


def tracked_tangent(curve, zeta, steps):
    """The tangent with the root of g followed radially from the circle,
    where it is |phi'|, in `steps` steps."""
    r, base = np.abs(zeta), zeta / np.abs(zeta)
    root = 1.0
    for k in range(steps + 1):
        zz = base * (1.0 + (r - 1.0) * k / steps)
        cand = np.sqrt(curve.dphi(zz) * curve.dphi_reflected(zz))
        root = np.where(np.abs(cand - root) > np.abs(cand + root), -cand, cand)
    return 1j * zeta * curve.dphi(zeta) / root


def main(n, steps):
    print(f"n = {n} points per ring, tracker of {steps} steps")
    print(f"{'curve':12s} {'|zeta|/rho':>10s} {'|zeta|':>9s} {'min ratio':>11s} {'flips':>6s}")
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        for radius in np.geomspace(1.01 * rho, 0.99 / rho, 5):
            zeta = radius * np.exp(2j * np.pi * np.arange(n) / n)
            closed = sb.bundles._pullback_tangent(curve, zeta)
            tracked = tracked_tangent(curve, zeta, steps)
            flips = np.count_nonzero(np.abs(closed - tracked) > np.abs(closed + tracked))
            print(f"{name:12s} {radius / rho:10.4f} {radius:9.4f} "
                  f"{candidate_ratio(curve, zeta):11.3g} {flips:6d}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4001,
         int(sys.argv[2]) if len(sys.argv) > 2 else 2000)
