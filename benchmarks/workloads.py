"""Seeded inputs, operations and correctness checks of the workloads.

An operation (op) is one user-level call chain: `run` is timed, `check` is
not. The seed moves positions only (curve perturbations, pole positions,
lattice offsets and sample rotations); every seed runs the same ops at the
same node counts.

Workloads:

- sections: chern_class -> canonical_section -> annulus_verification_points
  -> verify_transition per (curve, bundle, n). Dominated by one Newton
  inversion per node inside LineBundle.transition_at_nodes; barely touches
  the Cauchy kernel.
- sweep: whole-lattice calls (plotdata lattices through the CLI, rational
  fits, the moment expansion check). Dominated by locate, the Cauchy kernel
  and a per-point unwrap_log on one fixed grid; no Newton work.
- queries: one in-process CLI call per op over all seven verbs, including
  documented refusals. Dominated by per-call curve validation, adaptive
  refinement and CLI parsing and formatting.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

TRANSITION_TOL = 1e-9
MOMENT_CHECK_TOL = 1e-10
VALUE_TOL = 1e-9          # closed forms at pinned or refined node counts
REFERENCE_TOL = 1e-8      # adaptive CLI values against a fine-grid library value
REFERENCE_N = 16384


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one mode; the smoke mode is a reduced copy."""

    section_n: tuple = (1024, 4096)
    lattice: int = 40
    lattice_n: int = 1024
    fit_samples: tuple = (12, 24)
    moment_n: int = 4096
    query_section_n: int = 4096
    small_lattice: int = 8


FULL = Sizes()
SMOKE = Sizes(section_n=(512,), lattice=8, lattice_n=256, fit_samples=(12,),
              moment_n=1024, query_section_n=1024, small_lattice=4)


@dataclass
class Verdict:
    """Outcome of one op. `ok` is False when the op failed (raised, wrong
    exit code or failed check); `wrong` marks a produced value that is
    incorrect. `answers` counts the values asked for, `refused` the
    documented refusals among them (band refusals, blanks, exit codes 1-5)."""

    ok: bool
    wrong: bool = False
    answers: int = 1
    refused: int = 0
    note: str = ""


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable


def last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def failed(note, wrong=True, answers=1):
    return Verdict(ok=False, wrong=wrong, answers=answers, note=note)


# seeded curves (JSON specs, the format the CLI reads)

def curve_specs(rng):
    center = complex(*rng.uniform(-0.3, 0.3, 2))
    pert = rng.uniform(-0.01, 0.01, (3, 2))
    quartic = [[0.0, 0.0], [1.0, 0.0]] + [
        [base + dx, dy] for base, (dx, dy) in zip((0.1, 0.04, 0.02), pert)]
    x0, y0 = rng.uniform(-0.5, 0.5, 2)
    return {
        "disk": {"kind": "conformal", "rho": 0.5,
                 "coeffs": [[center.real, center.imag], [1.0, 0.0]]},
        "cardioid": {"kind": "conformal", "rho": 0.7,
                     "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.3, 0.0]]},
        "quartic": {"kind": "conformal", "rho": 0.75, "coeffs": quartic},
        "square": {"kind": "polygon", "vertices": [
            [x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0]]},
    }


# the workload's grids: (curve name, n) per workload and mode
def grid_keys(workload, sizes):
    if workload == "sections":
        return [(c, n) for c in ("disk", "cardioid", "quartic")
                for n in sizes.section_n]
    if workload == "sweep":
        return [("disk", sizes.lattice_n), ("cardioid", 512), ("quartic", 512),
                ("cardioid", sizes.moment_n)]
    return [(c, 512) for c in ("disk", "cardioid", "quartic")]


@dataclass
class Context:
    curves: dict
    grids: dict


def setup(sb, specs, workload, sizes):
    """Parse and validate the curves and sample the workload's grids."""
    curves = {name: sb.curve_from_json(json.dumps(spec))
              for name, spec in specs.items()}
    grids = {key: sb.sample(curves[key[0]], key[1])
             for key in grid_keys(workload, sizes)}
    return Context(curves, grids)


def fmt_complex(z):
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


def call(module, name, *args):
    """Call module.name, looked up at call time so that tracing sees it."""
    return getattr(module, name)(*args)


def run_cli(cli, argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# closed forms and exact references

def disk_exp_transform(center, radius, z, w):
    """E(z, w) of the disk, from the unit-disk forms by affine invariance:
    F = 1 - 1/(z conj w), G-side 1 - conj z/conj w, G*-side 1 - w/z,
    H-side |z - w|^2/(1 - z conj w)."""
    zz = (np.asarray(z) - center) / radius
    ww = (w - center) / radius
    z_in, w_in = np.abs(zz) < 1.0, abs(ww) < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if w_in:
            return np.where(z_in, np.abs(zz - ww) ** 2 / (1.0 - zz * np.conj(ww)),
                            1.0 - ww / zz)
        return np.where(z_in, 1.0 - np.conj(zz) / np.conj(ww),
                        1.0 - 1.0 / (zz * np.conj(ww)))


def exact_moment(coeffs, k):
    """M_k, k >= 0, of the image of the unit circle under the polynomial
    phi: the coefficient sum conj(a_j) [zeta^(j-1)] phi^k phi'."""
    a = np.asarray(coeffs, dtype=complex)
    prod = npoly.polymul(npoly.polypow(a, k), npoly.polyder(a))
    return complex(sum(np.conj(a[j]) * prod[j - 1]
                       for j in range(1, len(a)) if j - 1 < len(prod)))


def pullback_point(curve, radius, angle):
    return complex(curve.phi(radius * np.exp(1j * angle)))


def reach(curve):
    """Largest |phi| on |zeta| = 1/rho, which bounds every point whose
    preimage lies in the validated annulus."""
    zeta = np.exp(2j * np.pi * np.arange(256) / 256) / curve.rho
    return float(np.abs(curve.phi(zeta)).max())


# sections

BUNDLES = ("exp-schwarz", "pole-exterior", "pole-interior", "tangent-m-1",
           "tangent-m2")
EXPECTED_CHERN = {"exp-schwarz": 0, "pole-exterior": 0, "pole-interior": 1,
                  "tangent-m-1": 1, "tangent-m2": -2}


def _bundle(sb, curve, kind, rng):
    if kind == "exp-schwarz":
        return sb.exp_schwarz_bundle(curve)
    if kind == "pole-exterior":
        return sb.schwarz_pole_bundle(
            curve, 2.0 * reach(curve) * np.exp(2j * np.pi * rng.uniform()))
    if kind == "pole-interior":
        return sb.schwarz_pole_bundle(
            curve, pullback_point(curve, 0.25, 2 * np.pi * rng.uniform()))
    return sb.tangent_power_bundle(curve, -1 if kind == "tangent-m-1" else 2)


def section_chain(sb, bundle, grid):
    chern = sb.chern_class(bundle, grid)
    if chern < 0:
        return chern, None
    section = sb.canonical_section(bundle, grid)
    points = sb.annulus_verification_points(grid, 32)
    return chern, sb.verify_transition(section, bundle, points)


def check_section(expected, result):
    chern, residual = result
    if chern != expected:
        return failed(f"chern {chern}, expected {expected}")
    if chern >= 0 and not residual <= TRANSITION_TOL:
        return failed(f"transition residual {residual:.3g}")
    return Verdict(ok=True)


def sections_ops(sb, ctx, rng, sizes, files):
    ops = []
    for cname in ("disk", "cardioid", "quartic"):
        curve = ctx.curves[cname]
        for kind in BUNDLES:
            bundle = _bundle(sb, curve, kind, rng)
            for n in sizes.section_n:
                ops.append(Op(f"{cname}/{kind}/n{n}",
                              partial(section_chain, sb, bundle, ctx.grids[(cname, n)]),
                              partial(check_section, EXPECTED_CHERN[kind])))
    return ops


# sweep

def _lattice(center, offset, count, half_width=2.0):
    lo = complex(center + offset - half_width * (1 + 1j))
    hi = complex(center + offset + half_width * (1 + 1j))
    spec = f"{lo.real!r}:{hi.real!r}:{count},{lo.imag!r}:{hi.imag!r}:{count}"
    xs, ys = np.linspace(lo.real, hi.real, count), np.linspace(lo.imag, hi.imag, count)
    points = (xs[None, :] + 1j * ys[:, None]).ravel()   # rows by y, then x
    return spec, points


def lattice_expectation(grid, points, center, w):
    """Expected |E| per lattice point, NaN where the CLI must leave a blank
    (inside the exclusion band, or coincident interior arguments)."""
    near = np.array([np.abs(grid.z - p).min() < grid.exclusion_band for p in points])
    values = np.abs(disk_exp_transform(center, 1.0, points, w))
    inside = np.abs(points - center) < 1.0
    coincident = inside & (abs(w - center) < 1.0) \
        & (np.abs(points - w) <= 1e-12 * (1.0 + np.abs(points)))
    values[near | coincident] = np.nan
    return values


def check_lattice(points, expected, result):
    code, out, err = result
    answers = points.size
    if code != 0:
        return failed(f"plotdata exit {code}: {last_line(err)}", wrong=False,
                      answers=answers)
    rows = out.splitlines()
    if rows[:1] != ["x,y,abs_E"] or len(rows) != answers + 1:
        return failed("plotdata rows malformed", answers=answers)
    blanks = 0
    for row, p, e in zip(rows[1:], points, expected):
        x, y, val = row.split(",")
        if float(x) != p.real or float(y) != p.imag:
            return failed(f"lattice point {row} out of order", answers=answers)
        if math.isnan(e) != (val == ""):
            return failed(f"blank mismatch at {row}", answers=answers)
        if val == "":
            blanks += 1
        elif not abs(float(val) - e) <= VALUE_TOL * (1.0 + e):
            return failed(f"|E| {val} vs closed form {e!r}", answers=answers)
    return Verdict(ok=True, answers=answers, refused=blanks)


def ring_samples(grid, count, rng):
    """Two rings of exterior samples with seeded rotations."""
    scale = np.abs(grid.z).max()
    half = count // 2
    turn1, turn2 = rng.uniform(0.0, 1.0, 2)
    ring1 = 1.6 * scale * np.exp(2j * np.pi * (np.arange(half) + turn1) / half)
    ring2 = 2.4 * scale * np.exp(2j * np.pi * (np.arange(count - half) + turn2)
                                 / (count - half))
    return np.concatenate([ring1, ring2])


def check_fit(threshold, fit):
    if not fit.residual < threshold:
        return failed(f"fit residual {fit.residual:.3g} at the curve's degree")
    return Verdict(ok=True)


def check_moment_expansion(residual):
    if not residual <= MOMENT_CHECK_TOL:
        return failed(f"moment expansion residual {residual:.3g}")
    return Verdict(ok=True)


def sweep_ops(sb, ctx, rng, sizes, files):
    disk = ctx.curves["disk"]
    center = disk.conformal_center
    grid = ctx.grids[("disk", sizes.lattice_n)]
    ops = []
    w_ext = center + 2.5 * np.exp(2j * np.pi * rng.uniform())
    w_int = center + 0.5 * np.exp(2j * np.pi * rng.uniform())
    for label, w in (("w-exterior", w_ext), ("w-interior", w_int)):
        offset = complex(*rng.uniform(-0.05, 0.05, 2))
        spec, points = _lattice(center, offset, sizes.lattice)
        argv = ["plotdata", files["disk"], "--quantity", "exp-transform-abs",
                f"--n={sizes.lattice_n}", f"--grid={spec}", f"--w={fmt_complex(w)}"]
        ops.append(Op(f"plotdata/{label}", partial(run_cli, sb.cli, argv),
                      partial(check_lattice, points,
                              lattice_expectation(grid, points, center, w))))
    threshold = sb.quaddom.QD_RESIDUAL_THRESHOLD
    for cname, count in zip(("cardioid", "quartic"), sizes.fit_samples):
        fit_grid = ctx.grids[(cname, 512)]
        degree = ctx.curves[cname].degree
        samples = ring_samples(fit_grid, count, rng)
        ops.append(Op(f"fit/{cname}/{count}",
                      partial(call, sb, "fit_rational_structure", fit_grid,
                              degree, degree, samples),
                      partial(check_fit, threshold)))
    ops.append(Op("moment-expansion-check",
                  partial(call, sb, "moment_expansion_check",
                          ctx.grids[("cardioid", sizes.moment_n)], 6),
                  check_moment_expansion))
    return ops


# queries

def check_query(expected_code, expect, result):
    """Exit code, then `expect` on stdout for a zero exit."""
    code, out, err = result
    if code != expected_code:
        return failed(f"exit {code}, expected {expected_code}: {last_line(err)}",
                      wrong=False)
    if expected_code != 0:
        return Verdict(ok=True, refused=1)
    problem = expect(out)
    if problem:
        return failed(problem)
    return Verdict(ok=True)


def on_json(check):
    def expect(out):
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return check(payload)
    return expect


def _close(got, want, tol):
    got = complex(*got) if isinstance(got, list) else complex(got)
    return abs(got - want) <= tol * (1.0 + abs(want))


def expect_fields(**want):
    """Payload check: exact fields (`name=value`) and close numeric fields
    (`name=(value, tol)`)."""
    @on_json
    def expect(payload):
        for key, value in want.items():
            if key not in payload:
                return f"missing field {key}"
            if isinstance(value, tuple):
                if not _close(payload[key], value[0], value[1]):
                    return f"{key} = {payload[key]}, expected {value[0]!r}"
            elif payload[key] != value:
                return f"{key} = {payload[key]!r}, expected {value!r}"
        return None
    return expect


def expect_moments(coeffs):
    @on_json
    def expect(payload):
        for entry in payload["moments"]:
            k = entry["k"]
            if k >= 0 and not _close(entry["value"], exact_moment(coeffs, k),
                                     VALUE_TOL):
                return f"M_{k} = {entry['value']}"
        return None
    return expect


def expect_transform(want_e, tol, quadrant, piece, n_range):
    @on_json
    def expect(payload):
        if payload["quadrant"] != quadrant or payload["piece"]["name"] != piece:
            return f"quadrant {payload['quadrant']} piece {payload['piece']['name']}"
        if not n_range[0] <= payload["n"] <= n_range[1]:
            return f"refined to n = {payload['n']}"
        if not _close(payload["E"], want_e, tol):
            return f"E = {payload['E']}, expected {want_e!r}"
        return None
    return expect


def query_mix(sb, ctx, rng, sizes, files):
    """(name, argv, expected exit code, payload check) in a fixed order."""
    disk, cardioid = ctx.curves["disk"], ctx.curves["cardioid"]
    quartic = ctx.curves["quartic"]
    center = disk.conformal_center
    f_disk, f_card = files["disk"], files["cardioid"]
    f_quartic, f_square = files["quartic"], files["square"]

    def on_disk(radius):
        return center + radius * np.exp(2j * np.pi * rng.uniform())

    mix = []
    for name, curve, path in (("cardioid", cardioid, f_card),
                              ("quartic", quartic, f_quartic)):
        mix.append((f"validate/{name}", ["validate", path], 0,
                    expect_fields(valid=True, degree=curve.degree,
                                  area_over_pi=(exact_moment(curve.coeffs, 0).real,
                                                VALUE_TOL))))
    mix.append(("validate/square", ["validate", f_square], 0,
                expect_fields(kind="polygon", n_vertices=4,
                              area_over_pi=(1.0 / np.pi, VALUE_TOL))))

    z = on_disk(1.2)
    mix.append(("transform/cauchy", ["transform", f_disk, f"--z={fmt_complex(z)}"], 0,
                expect_fields(side="exterior",
                              cauchy_transform=(1.0 / (z - center), VALUE_TOL))))
    # the point pairs settle at n = 512, 2048 and 8192 under adaptive refinement
    for label, zr, wr, quad, piece, n_range in (
            ("G", 0.93, 3.0, "int:ext", "G", (512, 512)),
            ("F", 1.02, 2.5, "ext:ext", "F", (2048, 2048)),
            ("G*", 1.005, 0.4, "ext:int", "G*", (8192, 8192))):
        z, w = on_disk(zr), on_disk(wr)
        want = complex(disk_exp_transform(center, 1.0, z, w))
        mix.append((f"transform/disk-{label}",
                    ["transform", f_disk, f"--z={fmt_complex(z)}", f"--w={fmt_complex(w)}"],
                    0, expect_transform(want, VALUE_TOL, quad, piece, n_range)))
    z = pullback_point(cardioid, 1.3, 2 * np.pi * rng.uniform())
    w = pullback_point(cardioid, 1.35, 2 * np.pi * rng.uniform())
    reference = sb.double_cauchy(sb.sample(cardioid, REFERENCE_N), z, w).E
    mix.append(("transform/cardioid-F",
                ["transform", f_card, f"--z={fmt_complex(z)}", f"--w={fmt_complex(w)}"],
                0, expect_transform(reference, REFERENCE_TOL, "ext:ext", "F",
                                    (256, 2 ** 16))))

    for name, curve, path in (("cardioid", cardioid, f_card),
                              ("quartic", quartic, f_quartic)):
        mix.append((f"moments/{name}", ["moments", path], 0,
                    expect_moments(curve.coeffs)))

    mix.append(("section/exp-schwarz", ["section", f_card, "--bundle", "exp-schwarz"],
                0, expect_fields(chern=0, n=512, normalization="one-at-infinity")))
    pole = pullback_point(quartic, 0.3, 2 * np.pi * rng.uniform())
    mix.append(("section/pole-verify",
                ["section", f_quartic, "--bundle", "schwarz-pole",
                 f"--pole={fmt_complex(pole)}", f"--n={sizes.query_section_n}",
                 "--verify"],
                0, expect_fields(chern=1, n=sizes.query_section_n,
                                 transition_residual=(0.0, TRANSITION_TOL))))

    # mean-value and arc-length closed forms on the disk for f = 1 + 2z + z^2
    f_center = 1 + 2 * center + center ** 2
    for kind, want in (("classical", f_center), ("abelian", 2 + 2 * center),
                       ("arc-length", 2 * np.pi * f_center)):
        mix.append((f"quadrature/{kind}",
                    ["quadrature", f_disk, "--kind", kind, "--f", "1;2;1"],
                    0, expect_fields(kind=kind, residue_value=(want, VALUE_TOL))))
    mix.append(("quadrature/corner",
                ["quadrature", f_square, "--kind", "corner", "--f", "0;0;1"],
                0, expect_fields(kind="corner", residue_value=(2.0 / np.pi, VALUE_TOL))))

    mix.append(("rational-fit", ["rational-fit", f_card, "--deg-q", "2", "--deg-p", "2"],
                0, expect_fields(classification="quadrature-domain",
                                 residual=(0.0, sb.quaddom.QD_RESIDUAL_THRESHOLD))))

    w = on_disk(2.0)
    offset = complex(*rng.uniform(-0.05, 0.05, 2))
    spec, points = _lattice(center, offset, sizes.small_lattice)
    expected = lattice_expectation(sb.sample(disk, 256), points, center, w)
    mix.append(("plotdata/small",
                ["plotdata", f_disk, "--quantity", "exp-transform-abs",
                 f"--grid={spec}", f"--w={fmt_complex(w)}"],
                0, partial(_lattice_query, points, expected)))

    # documented refusals
    mix.append(("refuse/band", ["transform", f_disk, f"--z={fmt_complex(on_disk(1.001))}",
                                "--n=512"], 3, None))
    mix.append(("refuse/section-polygon",
                ["section", f_square, "--bundle", "exp-schwarz"], 5, None))
    # known defect: a NaN argument should be a parse error (exit 2)
    mix.append(("refuse/z-nan", ["transform", f_disk, "--z=nan"], 2, None))
    return mix


def _lattice_query(points, expected, out):
    """plotdata stdout check for the queries mix."""
    verdict = check_lattice(points, expected, (0, out, ""))
    return None if verdict.ok else verdict.note


class QueryCheck:
    """Checks one query and that its stdout repeats byte for byte."""

    def __init__(self, expected_code, expect):
        self.expected_code = expected_code
        self.expect = expect
        self.first_stdout = None

    def __call__(self, result):
        verdict = check_query(self.expected_code, self.expect, result)
        stdout = result[1]
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            return failed("stdout differs from the first cycle")
        return verdict


def queries_ops(sb, ctx, rng, sizes, files):
    return [Op(name, partial(run_cli, sb.cli, argv), QueryCheck(code, expect))
            for name, argv, code, expect in query_mix(sb, ctx, rng, sizes, files)]


WORKLOAD_OPS = {"sections": sections_ops, "sweep": sweep_ops, "queries": queries_ops}


def write_curve_files(specs, directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, spec in specs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        files[name] = str(path)
    return files
