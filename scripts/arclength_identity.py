"""Which curves the arc-length residue identity answers, and how far its
simple-pole value 2 pi |a1| f(a0) lies from the boundary integral.

For each curve it prints "accepted" or "refused" with the reason from
`arclength_quadrature`, then the simple-pole value for f = 1 + 2z + z^2
minus `boundary_arclength` on grids of n = 512 and 4096 nodes. On a circle
both differences are rounding; on any other map they are the error that
answering would make: 1.3e-9 for [0, 1, 1e-10], a map whose reciprocal
tangent's Fourier tail (about 1e-10) lies below a 1e-8 tail test.

Usage: python scripts/arclength_identity.py
"""

import numpy as np

import schwarzbundles as sb
from schwarzbundles.errors import TangentNotMeromorphicError

CURVES = (("disk", [0, 1], 0.5),
          ("shifted circle", [0.1 + 0.2j, 2, 0, 0], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75),
          ("(1 + 0.2z)^2", [0, 1, 0.2, 0.04 / 3], 0.6),
          ("[0, 1, 1e-10]", [0, 1, 1e-10], 0.5),
          ("[0, 1, 1e-7]", [0, 1, 1e-7], 0.5))
F = [1.0, 2.0, 1.0]


def main():
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        try:
            sb.arclength_quadrature(curve, F)
            verdict = "accepted"
        except TangentNotMeromorphicError as exc:
            verdict = f"refused: {exc}"
        a0, a1 = curve.coeffs[:2]
        value = 2.0 * np.pi * abs(a1) * np.polynomial.polynomial.polyval(a0, F)
        gaps = [abs(value - sb.boundary_arclength(sb.sample(curve, n), F))
                for n in (512, 4096)]
        print(f"{name}: {verdict}")
        print(f"  2 pi |a1| f(a0) = {complex(value):.15g}; minus the boundary integral "
              f"at n = 512: {gaps[0]:.3g}, at n = 4096: {gaps[1]:.3g}")


if __name__ == "__main__":
    main()
