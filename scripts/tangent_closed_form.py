"""The unit tangent's one closed form on the curve grid, against dz/|dz|.

Every grid forms T with `curve._pullback_tangent`, the curve's grid as well
as its rings. On the curve the direction of the velocity, dz/|dz|, is the
same number up to rounding. For the benchmark curves and the test quartic
at each n, it prints the largest |T - dz/|dz|| over the nodes, the time to
form each (best of `repeats` calls), and the `verify_transition` value of
the tangent section T^1 (class -1) on that grid.

Usage: python scripts/tangent_closed_form.py [repeats]   (default 20)
"""

import sys
import timeit

import numpy as np

import schwarzbundles as sb

CURVES = (("disk", [0, 1], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75),
          ("test-quartic", [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72))


def main(repeats):
    print(f"{'curve':14s} {'n':>5s} {'max move':>9s} {'closed us':>9s} "
          f"{'dz/|dz| us':>10s} {'verify T^1':>10s}")
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        for n in (512, 1024, 4096):
            grid = sb.sample(curve, n)
            move = np.abs(grid._tangent - grid.dz / np.abs(grid.dz)).max()
            closed = min(timeit.repeat(lambda: sb.curve._pullback_tangent(curve, grid.zeta),
                                       number=1, repeat=repeats))
            direct = min(timeit.repeat(lambda: grid.dz / np.abs(grid.dz),
                                       number=1, repeat=repeats))
            bundle = sb.tangent_power_bundle(curve, -1)
            section = sb.canonical_section(bundle, grid)
            residual = sb.verify_transition(section, bundle,
                                            sb.annulus_verification_points(grid, 32))
            print(f"{name:14s} {n:5d} {move:9.2e} {closed * 1e6:9.1f} "
                  f"{direct * 1e6:10.1f} {residual:10.2e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
