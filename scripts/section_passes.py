"""Passes made by each step of the section chain chern_class ->
canonical_section -> annulus_verification_points -> verify_transition, for
the five bundle kinds of the `sections` benchmark workload on the disk, the
cardioid and the quartic at n = 1024.

Each row counts the calls of `unwrap_log`, `LineBundle.transition_at_nodes`
and `curve.kernel_sums` made inside one step. The counts come from wrapping
those functions in-process at every name through which the package reaches
them. Every chain runs on a fresh grid, so the verification points and rings
are built in its own steps; a chain stops after chern_class when the Chern
class is negative, as the workload's does.

Usage: python scripts/section_passes.py [n]   (default 1024)
"""

import sys

import numpy as np

import schwarzbundles as sb

CURVES = (("disk", [0, 1], 0.5),
          ("cardioid", [0, 1, 0.3], 0.7),
          ("quartic", [0, 1, 0.1, 0.04, 0.02], 0.75))
KINDS = ("exp-schwarz", "pole-exterior", "pole-interior", "tangent-m-1", "tangent-m2")
STEPS = ("chern_class", "canonical_section", "annulus_verification_points",
         "verify_transition")
COUNTED = ("unwrap_log", "transition_at_nodes", "kernel_sums")


def bundle_of(curve, kind, angle=1.0):
    """The workload's bundle of this kind, its pole at a fixed angle: outside
    at twice the curve's reach, inside at the image of 0.25 e^{i angle}."""
    if kind == "exp-schwarz":
        return sb.exp_schwarz_bundle(curve)
    if kind == "pole-exterior":
        reach = np.abs(curve.phi(np.exp(2j * np.pi * np.arange(256) / 256) / curve.rho)).max()
        return sb.schwarz_pole_bundle(curve, 2.0 * reach * np.exp(1j * angle))
    if kind == "pole-interior":
        return sb.schwarz_pole_bundle(curve, complex(curve.phi(0.25 * np.exp(1j * angle))))
    return sb.tangent_power_bundle(curve, -1 if kind == "tangent-m-1" else 2)


def install_counters(counts):
    """Wrap each counted function at every module name that binds it (and
    the transition method on its class); returns the undo list."""
    undo = []

    def wrap(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, name, counted)
        undo.append((owner, name, original))

    for module in (sb.curve, sb.transforms, sb.bundles, sb.quaddom):
        for name in ("unwrap_log", "kernel_sums"):
            if name in vars(module):
                wrap(module, name, name)
    wrap(sb.bundles.LineBundle, "transition_at_nodes", "transition_at_nodes")
    return undo


def chain_counts(curve, kind, n, counts):
    """Counts per step of one chain on a fresh grid, a dict per step."""
    grid = sb.sample(curve, n)
    bundle = bundle_of(curve, kind)
    rows = {}

    def step(name, call):
        counts.update(dict.fromkeys(COUNTED, 0))
        value = call()
        rows[name] = dict(counts)
        return value

    if step("chern_class", lambda: sb.chern_class(bundle, grid)) < 0:
        return rows
    section = step("canonical_section", lambda: sb.canonical_section(bundle, grid))
    points = step("annulus_verification_points",
                  lambda: sb.annulus_verification_points(grid, 32))
    step("verify_transition", lambda: sb.verify_transition(section, bundle, points))
    return rows


def main(n):
    counts = dict.fromkeys(COUNTED, 0)
    undo = install_counters(counts)
    try:
        print(f"calls per step at n = {n}: unwrap_log / transition_at_nodes / kernel_sums")
        print(f"{'curve':9s} {'bundle':14s} " + " ".join(f"{s:>28s}" for s in STEPS))
        for name, coeffs, rho in CURVES:
            curve = sb.build_polynomial_curve(coeffs, rho)
            for kind in KINDS:
                rows = chain_counts(curve, kind, n, counts)
                cells = ["/".join(str(rows[s][c]) for c in COUNTED) if s in rows else "-"
                         for s in STEPS]
                print(f"{name:9s} {kind:14s} " + " ".join(f"{c:>28s}" for c in cells))
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1024)
