"""Print the four analytic pieces of the exponential transform on the unit
disk, and C = log E with each, against their closed forms, plus Chern classes
and transition residuals. Exits nonzero when a piece or C is off its closed
form by more than TOL. G at z = 0.5 and 0.5 +- 0.1i, w = 3, sits on and
beside the ray z - w < 0, where adding a principal log(conj z - conj w) to
the pole section's Cauchy sum shifts Im C by 2 pi.

Usage: python scripts/disk_pieces_demo.py [node_count]
"""

import cmath
import sys

import schwarzbundles as sb

TOL = 1e-12


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    disk = sb.build_circle(0, 1)
    grid = sb.sample(disk, n)

    print(f"unit disk, {n} nodes\n")
    print("piece values and C = log E vs closed forms:")
    rows = [  # name, piece, z, w, piece closed form, E closed form
        ("F(2, 3)", sb.piece_f, 2, 3, 1 - 1 / 6, 1 - 1 / 6),
        ("G(0.5, 3)", sb.piece_g, 0.5, 3, -1 / 3, 1 - 0.5 / 3),
        ("G(.5+.1i, 3)", sb.piece_g, 0.5 + 0.1j, 3, -1 / 3, 1 - (0.5 - 0.1j) / 3),
        ("G(.5-.1i, 3)", sb.piece_g, 0.5 - 0.1j, 3, -1 / 3, 1 - (0.5 + 0.1j) / 3),
        ("H(0, 0.5)", sb.piece_h, 0, 0.5, 1.0, 0.25),
        ("G*(2, 0.5)", sb.piece_gstar, 2, 0.5, -0.5, 1 - 0.5 / 2),
    ]
    worst = 0.0
    for name, piece, z, w, expect, e_exact in rows:
        got = piece(grid, z, w)
        c = sb.double_cauchy(grid, z, w).C
        c_exact = cmath.log(e_exact)  # Re E > 0 on the disk: C is the principal log
        worst = max(worst, abs(got - expect), abs(c - c_exact))
        print(f"  {name:12s} = {got:+.15f}   exact {expect:+.15f}   "
              f"err {abs(got - expect):.2e}")
        print(f"  {'C':>12s} = {c:+.15f}   exact {c_exact:+.15f}   "
              f"err {abs(c - c_exact):.2e}")
    if worst > TOL:
        sys.exit(f"a piece or C is off its closed form by {worst:.2e} > {TOL:.0e}")

    print("\nChern classes and transition residuals:")
    pts = sb.annulus_verification_points(grid, 32)
    for label, bundle in [
        ("exp-schwarz", sb.exp_schwarz_bundle(disk)),
        ("pole w=3   ", sb.schwarz_pole_bundle(disk, 3)),
        ("pole w=0   ", sb.schwarz_pole_bundle(disk, 0)),
        ("pole w=.4+.2i", sb.schwarz_pole_bundle(disk, 0.4 + 0.2j)),
    ]:
        c = sb.chern_class(bundle, grid)
        section = sb.canonical_section(bundle, grid)
        resid = sb.verify_transition(section, bundle, pts)
        print(f"  {label:14s} chern {c:+d}   residual {resid:.2e}")
    kappa = sb.tangent_power_bundle(disk, 2)
    print(f"  tangent^-2     chern {sb.chern_class(kappa, grid):+d}   "
          "(no holomorphic sections)")


if __name__ == "__main__":
    main()
