"""Latency of the inverse map: per-point time of `invert_conformal_map` for
one point and for a batch of 2000 points of the validated annulus, on the
disk, the cardioid and a quartic, and the time of
`verify_m_differential_match` at n = 256 on the quartic (evaluators z and
S, m = 0). Each time is the best of the given number of rounds; a round
times a fixed number of calls.

Usage: python scripts/inverse_latency.py [rounds]   (default 5)
"""

import sys
import timeit

import numpy as np

import schwarzbundles as sb

CURVES = (("disk", [0, 1], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03], 0.72))
BATCH = 2000


def best(call, number, rounds):
    return min(timeit.repeat(call, number=number, repeat=rounds)) / number


def main(rounds):
    rng = np.random.default_rng(0)
    print(f"best of {rounds} rounds, us per point")
    print(f"{'curve':10s} {'one point':>10s} {f'{BATCH} points':>12s}")
    for name, coeffs, rho in CURVES:
        curve = sb.build_polynomial_curve(coeffs, rho)
        radius = rho + (1.0 / rho - rho) * rng.random(BATCH)
        zs = curve.phi(radius * np.exp(2j * np.pi * rng.random(BATCH)))
        one = best(lambda: sb.invert_conformal_map(curve, complex(zs[0])), 20, rounds)
        many = best(lambda: sb.invert_conformal_map(curve, zs), 1, rounds) / BATCH
        print(f"{name:10s} {1e6 * one:10.1f} {1e6 * many:12.2f}")
    quartic = sb.build_polynomial_curve(CURVES[2][1], CURVES[2][2])
    grid = sb.sample(quartic, 256)
    match = best(lambda: sb.verify_m_differential_match(
        lambda z: z, lambda z: sb.schwarz_near(quartic, z), quartic, grid, 0), 5, rounds)
    print(f"verify_m_differential_match, quartic, n = 256: {1e3 * match:.2f} ms")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
