"""The spectral value of `verify_transition` against the point residual it
bounds, and the time per call of each, for the disk, the cardioid, the
quartic and a complex cubic, the four built-in bundle kinds with a section,
and sections correct or off log lambda12 by 1e-8 times one mode.

The point residual is the contour-shift residual at the 32 verification
points from one kernel pass per ring (`tests/oracles.py`,
`point_transition_residual`). Times are the best of `repeats` calls on a
grid whose rings, weights and ring tangents, and the points' sides, are
already kept.

Usage: python scripts/spectral_verify_bound.py [n] [repeats]   (default 1024 5)
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

import schwarzbundles as sb

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import point_transition_residual  # noqa: E402

CURVES = (("disk", [0, 1], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72),
          ("cubic", [0.2j, 1, 0.2 + 0.15j, -0.04 + 0.05j], 0.7))
MODES = (("correct", None), ("sin 3t", lambda t: np.sin(3 * t)),
         ("e^-it", lambda t: np.exp(-1j * t)), ("e^2it", lambda t: np.exp(2j * t)),
         ("e^40it", lambda t: np.exp(40j * t)), ("e^-40it", lambda t: np.exp(-40j * t)))


def bundles_of(curve):
    return (("exp-schwarz", sb.exp_schwarz_bundle(curve)),
            ("pole 3", sb.schwarz_pole_bundle(curve, 3)),
            ("pole inside", sb.schwarz_pole_bundle(curve, complex(curve.phi(0.3 + 0.1j)))),
            ("T^1", sb.tangent_power_bundle(curve, -1)))


def best_ms(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main(n, repeats):
    print(f"n = {n}; ms per call, best of {repeats}")
    print(f"{'curve':9s} {'bundle':12s} {'density':8s} {'point':>10s} {'spectral':>10s} "
          f"{'ratio':>7s} {'point ms':>9s} {'spec ms':>8s}")
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        grid = sb.sample(curve, n)
        pts = sb.annulus_verification_points(grid, 32)
        for kind, bundle in bundles_of(curve):
            section = sb.canonical_section(bundle, grid)
            for label, mode in MODES:
                tried = section if mode is None else dataclasses.replace(
                    section, density=section.density + 1e-8 * mode(grid.t))
                point = point_transition_residual(tried, bundle, pts)
                value = sb.verify_transition(tried, bundle, pts)
                point_ms = best_ms(lambda: point_transition_residual(tried, bundle, pts), repeats)
                value_ms = best_ms(lambda: sb.verify_transition(tried, bundle, pts), repeats)
                print(f"{name:9s} {kind:12s} {label:8s} {point:10.2e} {value:10.2e} "
                      f"{value / point if point else float('inf'):7.2f} "
                      f"{point_ms:9.3f} {value_ms:8.3f}")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(int(args[0]) if args else 1024, int(args[1]) if len(args) > 1 else 5)
