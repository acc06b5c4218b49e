"""Command-line surface: validate curves, evaluate transforms and moments,
build and verify bundle sections, run quadrature identities, fit the rational
structure, and dump plot data.

Numeric output uses 17 significant digits so values round-trip exactly.
Configuration comes from flags, with SCHWARZ_TOL / SCHWARZ_N environment
fallbacks; flags win. `_dispatch` fills the flags an environment variable
supplies and loads the curve for every verb, and takes the exit code of a
refusal from the first row of `REFUSALS` that its class matches;
geometry refusals are the library's own. Exit codes: 0 ok, 1 validation or
computation failure (a floating-point overflow, division by zero or
invalid operation in numpy among them) or stdout closed by its reader
before the output was written, 2 parse error (malformed or non-finite
input, an argument out of range), 3 near-boundary refusal, 4 unresolved
branch, 5 incompatible geometry.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import bundles, quaddom, render, transforms
from .curve import (
    ConformalMapCurve,
    adaptive_refine,
    curve_from_json,
    node_count,
    sample,
)
from .errors import (
    BranchUnresolvedError,
    NearBoundaryError,
    NotConformalMapCurveError,
    ParseError,
    SchwarzBundleError,
    TangentNotMeromorphicError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_NEAR_BOUNDARY = 3
EXIT_BRANCH = 4
EXIT_GEOMETRY = 5

# (refusal classes, exit code, stderr label), tried in order: the first row
# whose classes match the refusal decides it
REFUSALS = (
    (ParseError, EXIT_PARSE, "parse error"),
    (NearBoundaryError, EXIT_NEAR_BOUNDARY, "near-boundary refusal"),
    (BranchUnresolvedError, EXIT_BRANCH, "branch unresolved"),
    ((NotConformalMapCurveError, TangentNotMeromorphicError), EXIT_GEOMETRY,
     "incompatible geometry"),
    ((SchwarzBundleError, FloatingPointError), EXIT_FAILURE, "error"),
)

# Input caps: the fit's F matrix and eliminations grow with the square of
# the sample count, a lattice's output and closed rows with its point
# count, a moment table with its number of orders. At the caps a fresh
# process running the verb, stdout to /dev/null, peaks at about 87 MB
# (cardioid, degrees 2 and 2, n = 512), 59 MB (the disk's [-2, 2]^2
# lattice at w = 0.3 and at w = -3 + 0.5i, n = 256) and 42 MB resident
# (disk, orders -4096 to 4096), of which 30 MB is the interpreter, numpy
# and the package (ru_maxrss, 2-core x86_64). A lattice's rows are
# rendered CSV_BLOCK values at a time; as one joined text of all rows they
# peaked at 106 MB (112 MB).
MAX_FIT_SAMPLES = 512
MAX_GRID_POINTS = 512 * 512
MAX_MOMENT_ORDER = 4096
# values of a CSV table rendered at a time (`render`): about 250 bytes of
# buffers and text each
CSV_BLOCK = 8192


def parse_complex(text):
    """Accept finite values written '1+2j', '2', or 're,im'."""
    text = text.strip()
    parts = text.split(",")
    try:
        value = complex(float(parts[0]), float(parts[1])) if len(parts) == 2 \
            else complex(text.replace("i", "j"))
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        raise ParseError(f"cannot parse a finite complex number from {text!r}")
    return value


def parse_coeff_list(text):
    """Semicolon-separated list of complex coefficients, low to high."""
    coeffs = [parse_complex(part) for part in text.split(";") if part.strip()]
    if not coeffs:
        raise ParseError(f"no coefficients in {text!r}")
    return coeffs


def _load_curve(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return curve_from_json(data)


def _config_from(args):
    """Fill an absent --tol / --n from SCHWARZ_TOL / SCHWARZ_N, else the
    verb's default tolerance; refuse a malformed environment value, a
    tolerance that is not finite and positive, a node count that is not a
    power of two from 16 to MAX_NODES (`curve.node_count`, for every verb and
    curve, before anything of that size is allocated) and a moment order
    beyond MAX_MOMENT_ORDER."""
    env = os.environ
    try:
        tol = float(env.get("SCHWARZ_TOL", args.default_tol))
        n = int(env["SCHWARZ_N"]) if "SCHWARZ_N" in env else None
    except ValueError as exc:
        raise ParseError(f"bad environment configuration: {exc}") from exc
    args.tol = tol if args.tol is None else args.tol
    args.n = n if args.n is None else args.n
    if not 0.0 < args.tol < np.inf:
        raise ParseError(f"tolerance must be finite and positive, got {args.tol}")
    args.n = None if args.n is None else node_count(args.n)
    if max(getattr(args, "kmax", 0), -getattr(args, "kmin", 0)) > MAX_MOMENT_ORDER:
        raise ParseError(f"k range {args.kmin}..{args.kmax} exceeds the cap {MAX_MOMENT_ORDER}")


def _grid_for(curve, args, functional=None, n=512, n_start=256):
    """The pinned grid, else the functional's grid refined from n_start
    nodes, else n nodes."""
    if args.n is not None or functional is None:
        return sample(curve, n if args.n is None else args.n)
    return adaptive_refine(curve, functional, args.tol, n_start=n_start)


def _emit(payload, args):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_csv(payload)


def _flatten(prefix, value, rows):
    """One (key, value) row per leaf: dict keys and the indices of lists of
    lists or dicts join the key with '.', a list of scalars is one
    ';'-separated value."""
    if isinstance(value, dict):
        for key, sub in sorted(value.items()):
            _flatten(f"{prefix}{key}.", sub, rows)
    elif isinstance(value, (list, tuple)) \
            and any(isinstance(v, (dict, list, tuple)) for v in value):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}{i}.", sub, rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix.rstrip("."),
                     ";".join(render.fmt17(v) if isinstance(v, float) else str(v)
                              for v in value)))
    elif isinstance(value, float):
        rows.append((prefix.rstrip("."), render.fmt17(value)))
    else:
        rows.append((prefix.rstrip("."), str(value)))


def _emit_csv(payload):
    rows = []
    _flatten("", payload, rows)
    for key, val in rows:
        print(f"{key},{val}")


def cmd_validate(args, curve):
    """The area over pi of a map curve is its moment M_0 = sum_j j |a_j|^2,
    exact from the coefficients, on no grid."""
    if isinstance(curve, ConformalMapCurve):
        payload = {"kind": "conformal", "degree": curve.degree,
                   "annulus": [curve.rho, 1.0 / curve.rho],
                   "area_over_pi": float(curve.moments(0)[0].real)}
    else:
        payload = {"kind": "polygon", "n_vertices": curve.n_vertices,
                   "area_over_pi": curve.area_over_pi()}
    _emit({"valid": True, **payload}, args)
    return EXIT_OK


def cmd_transform(args, curve):
    z = parse_complex(args.z)
    if args.w is None:
        grid = _grid_for(curve, args,
                         functional=lambda g: transforms.cauchy_transform(g, z))
        side, value = transforms._located_cauchy_transform(grid, z)
        payload = {"z": [z.real, z.imag], "side": side.value,
                   "cauchy_transform": [value.real, value.imag]}
    else:
        w = parse_complex(args.w)
        grid = _grid_for(curve, args,
                         functional=lambda g: transforms.double_cauchy(g, z, w).C)
        tv = transforms.double_cauchy(grid, z, w)
        name, piece = tv.piece
        payload = transforms.transform_values_to_json([tv])[0]
        payload["piece"] = {"name": name, "value": [piece.real, piece.imag]}
    _emit({**payload, "n": grid.n}, args)
    return EXIT_OK


def cmd_moments(args, curve):
    """Refinement starts at the least power of two above |kmin|, at least
    256: a grid of n <= |kmin| nodes aliases the order kmin and refuses it."""
    def functional(g):
        table = transforms.harmonic_moments(g, args.kmin, args.kmax)
        return sum(m / (1.0 + abs(k)) for k, m in table.items())

    grid = _grid_for(curve, args, functional, n_start=max(256, 1 << (-args.kmin).bit_length()))
    table = transforms.harmonic_moments(grid, args.kmin, args.kmax)
    if args.format == "csv":
        _print_moments_csv(table)
    else:
        _emit({"n": grid.n, "moments": [{"k": k, "value": [m.real, m.imag]}
                                        for k, m in table.items()]}, args)
    return EXIT_OK


def _print_moments_csv(table):
    """The orders print as floats: %.17g of an integer below 1e16 is its
    decimal."""
    m = np.fromiter(table.values(), dtype=complex, count=len(table))
    _print_csv("k,re_M,im_M", _table_blocks(
        np.fromiter(table, dtype=float, count=len(table)), m.real, m.imag))


def _print_csv(header, blocks):
    """The header, then each nonempty block of rows. The table's last
    newline is a write of its own, as print made it: a write that a closed
    pipe cuts short returns with no error, and only the next write raises
    BrokenPipeError."""
    text = header + "\n"
    for block in filter(None, blocks):
        sys.stdout.write(text)
        text = block
    sys.stdout.write(text[:-1])
    sys.stdout.write("\n")


def _table_blocks(*columns):
    """The CSV rows (`render`) of the float columns, about CSV_BLOCK values
    at a time."""
    step = CSV_BLOCK // len(columns)
    for lo in range(0, len(columns[0]), step):
        fields = render.float_fields(np.stack([c[lo:lo + step] for c in columns], axis=1))
        yield render.csv_rows(*fields.reshape(-1, len(columns), render.FIELD).transpose(1, 0, 2))


def _lattice_blocks(xs, ys, abs_e):
    """The x,y,abs_E rows, by y then x, with a blank where |E| is NaN, about
    CSV_BLOCK at a time: a block's coordinates and values are rendered in
    one call, each coordinate once per block."""
    step = max(1, CSV_BLOCK // max(xs.size, 1))
    for lo in range(0, ys.size, step):
        block = abs_e[lo:lo + step]
        x_txt, y_txt, e_txt = np.split(render.float_fields(
            np.concatenate([xs, ys[lo:lo + step], block.reshape(-1)]), blank_nan=True),
            [xs.size, xs.size + len(block)])
        yield render.csv_rows(x_txt[None], y_txt[:, None],
                              e_txt.reshape(*block.shape, render.FIELD))


def _schwarz_pole(curve, args):
    if args.pole is None:
        raise ParseError("schwarz-pole needs --pole")
    return bundles.schwarz_pole_bundle(curve, parse_complex(args.pole))


def _tangent_power(curve, args):
    if args.power is None:
        raise ParseError("tangent-power needs --power")
    return bundles.tangent_power_bundle(curve, args.power)


# --bundle name -> the bundle of a curve and the parsed arguments
BUNDLES = {
    "exp-schwarz": lambda curve, args: bundles.exp_schwarz_bundle(curve),
    "schwarz-pole": _schwarz_pole,
    "tangent-power": _tangent_power,
}


def cmd_section(args, curve):
    """The Chern class comes first, stored on every CLI bundle; a negative one
    is reported with no section."""
    adjust = None if args.adjust is None else parse_complex(args.adjust)
    grid = _grid_for(curve, args)
    bundle = BUNDLES[args.bundle](curve, args)
    chern = bundles.chern_class(bundle, grid)
    payload = {"bundle": args.bundle, "n": grid.n, "chern": chern, "normalization": None}
    if args.verify:
        payload["transition_residual"] = None
    if chern < 0:
        payload["note"] = "negative Chern class; no holomorphic sections"
    else:
        section = bundles.canonical_section(bundle, grid, a=adjust)
        payload["normalization"] = section.normalization
        if args.verify:
            pts = bundles.annulus_verification_points(grid, 32)
            payload["transition_residual"] = bundles.verify_transition(
                section, bundle, pts)
        if args.dump:  # written before stdout, so that a refusal prints nothing
            try:
                with open(args.dump, "w", encoding="utf-8") as fh:
                    json.dump(bundles.section_to_json(section), fh, indent=1)
            except OSError as exc:
                raise ParseError(f"cannot write {args.dump}: {exc}") from exc
    _emit(payload, args)
    return EXIT_OK


# --kind name -> (residue identity on the curve, boundary-integral oracle on
# a grid), each of the polynomial coefficients f; "corner" is the polygons'
QUADRATURES = {
    "classical": (quaddom.classical_quadrature, quaddom.boundary_classical),
    "abelian": (quaddom.abelian_quadrature, quaddom.boundary_abelian),
    "arc-length": (quaddom.arclength_quadrature, quaddom.boundary_arclength),
}


def cmd_quadrature(args, curve):
    """Exit 0 when the residue value meets its oracle within the tolerance."""
    f_coeffs = parse_coeff_list(args.f) if args.f is not None else [1.0 + 0j]
    weights = None
    if args.kind == "corner":
        weights = quaddom.polygon_quadrature(curve)
        residue_value = quaddom.apply_polygon_quadrature(weights, f_coeffs)
        oracle_value = quaddom.area_mean_polygon(
            curve, quaddom.poly_derivative(f_coeffs, 2))
    else:
        grid = _grid_for(curve, args)
        residue, oracle = QUADRATURES[args.kind]
        residue_value, oracle_value = residue(curve, f_coeffs), oracle(grid, f_coeffs)
    report = quaddom.quadrature_report(args.kind, residue_value, oracle_value, weights)
    _emit(report, args)
    return EXIT_OK if report["discrepancy"] < args.tol else EXIT_FAILURE


def cmd_rational_fit(args, curve):
    """Fit on the default exterior samples. q and p carry a relative error of
    about the fit stage's condition number times eps (about 1e7 * eps for
    the quartic at degree 4 on 24 samples); their 17 digits are printed so
    that the values round-trip, not because all of them are significant."""
    if args.samples > MAX_FIT_SAMPLES:
        raise ParseError(f"--samples {args.samples} exceeds the cap {MAX_FIT_SAMPLES}")
    grid = _grid_for(curve, args)
    samples = quaddom.default_exterior_samples(grid, args.samples)
    fit = quaddom.fit_rational_structure(grid, args.deg_q, args.deg_p, samples)
    payload = {
        "deg_q": args.deg_q,
        "deg_p": args.deg_p,
        "residual": fit.residual,
        "classification": fit.classification,
        "boundary_residual": quaddom.verify_algebraic_boundary(fit.q_coeffs, grid),
        "q": [[[c.real, c.imag] for c in row] for row in fit.q_coeffs],
        "p": [[c.real, c.imag] for c in fit.p_coeffs],
    }
    _emit(payload, args)
    return EXIT_OK


def _parse_grid_spec(text):
    """(x0, x1, nx, y0, y1, ny): finite bounds, nonnegative counts, at most
    MAX_GRID_POINTS points."""
    try:
        xpart, ypart = text.split(",")
        x0, x1, nx = xpart.split(":")
        y0, y1, ny = ypart.split(":")
        spec = float(x0), float(x1), int(nx), float(y0), float(y1), int(ny)
    except ValueError as exc:
        raise ParseError(f"bad grid spec {text!r}; "
                         "expected xmin:xmax:nx,ymin:ymax:ny") from exc
    if not np.isfinite(spec).all() or min(spec[2], spec[5]) < 0:
        raise ParseError(f"grid spec {text!r} needs finite bounds and counts >= 0")
    if spec[2] * spec[5] > MAX_GRID_POINTS:
        raise ParseError(f"grid spec {text!r} has {spec[2] * spec[5]} points, "
                         f"more than the cap {MAX_GRID_POINTS}")
    return spec


def cmd_plotdata(args, curve):
    grid = _grid_for(curve, args, n=256)
    if args.quantity == "exp-transform-abs":
        if args.w is None:
            raise ParseError("exp-transform-abs needs --w")
        w = parse_complex(args.w)
        x0, x1, nx, y0, y1, ny = _parse_grid_spec(args.grid)
        xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
        zs = np.empty((ys.size, xs.size), dtype=complex)
        zs.real, zs.imag = xs[None, :], ys[:, None]
        cs = transforms.double_cauchy_batch(grid, zs, w).reshape(zs.shape)
        # |E| = |exp(C)|; NaN where refused
        _print_csv("x,y,abs_E", _lattice_blocks(xs, ys, np.exp(cs.real)))
        return EXIT_OK
    if args.quantity == "moments":
        _print_moments_csv(transforms.harmonic_moments(grid, args.kmin, args.kmax))
        return EXIT_OK
    bundle = BUNDLES[args.bundle](curve, args)  # section-density
    section = bundles.canonical_section(
        bundle, grid, a=None if args.adjust is None else parse_complex(args.adjust))
    _print_csv("t,re_density,im_density", _table_blocks(
        section.grid.t, section.density.real, section.density.imag))
    return EXIT_OK


# flags whose value may start with "-" without being a plain negative number
# ("-0.5,0.2", "-2:2:4,-2:2:4"), which argparse would read as an option
VALUE_FLAGS = ("--z", "--w", "--pole", "--adjust", "--f", "--grid")


def _attach_values(argv):
    """Rewrite "--z -0.5,0.2" as "--z=-0.5,0.2" for the flags in VALUE_FLAGS."""
    out = []
    for token in argv:
        if out and out[-1] in VALUE_FLAGS and token.startswith("-"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call of main can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("curve_file")
    common.add_argument("--tol", type=float, default=None,
                        help="refinement tolerance (env SCHWARZ_TOL)")
    common.add_argument("--n", type=int, default=None,
                        help="pin the node count (env SCHWARZ_N)")
    common.set_defaults(default_tol=1e-10)
    verb = argparse.ArgumentParser(add_help=False, parents=[common])  # every verb but plotdata
    verb.add_argument("--format", choices=("json", "csv"), default="json")
    bundle_args = argparse.ArgumentParser(add_help=False)
    bundle_args.add_argument("--pole", default=None)
    bundle_args.add_argument("--power", type=int, default=None)
    bundle_args.add_argument("--adjust", default=None)
    moment_args = argparse.ArgumentParser(add_help=False)
    moment_args.add_argument("--kmin", type=int, default=-3)
    moment_args.add_argument("--kmax", type=int, default=3)
    parser = argparse.ArgumentParser(
        prog="schwarzbundles",
        description="Schwarz functions, Cauchy/exponential transforms, line "
                    "bundle sections, and quadrature-domain identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a curve file", parents=[verb])
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transform", help="Cauchy / exponential transform values", parents=[verb])
    p.add_argument("--z", required=True)
    p.add_argument("--w", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("moments", help="harmonic moment table",
                       parents=[verb, moment_args])
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("section", help="canonical bundle section",
                       parents=[verb, bundle_args])
    p.add_argument("--bundle", required=True, choices=tuple(BUNDLES))
    p.add_argument("--verify", action="store_true")
    p.add_argument("--dump", default=None)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("quadrature", help="residue quadrature identities", parents=[verb])
    p.add_argument("--kind", required=True, choices=(*QUADRATURES, "corner"))
    p.add_argument("--f", default=None,
                   help="polynomial coefficients, low to high, ';'-separated")
    p.set_defaults(func=cmd_quadrature, default_tol=1e-9)  # the pass threshold

    p = sub.add_parser("rational-fit", help="rational structure of F(z, w)", parents=[verb])
    p.add_argument("--deg-q", type=int, required=True, dest="deg_q")
    p.add_argument("--deg-p", type=int, required=True, dest="deg_p")
    p.add_argument("--samples", type=int, default=12,
                   help=f"exterior sample count (at least 4, at most {MAX_FIT_SAMPLES})")
    p.set_defaults(func=cmd_rational_fit)

    p = sub.add_parser("plotdata", help="CSV samples for external plotting",
                       parents=[common, moment_args, bundle_args])
    p.add_argument("--quantity", required=True,
                   choices=("exp-transform-abs", "moments", "section-density"))
    p.add_argument("--grid", default="1.5:4:25,1.5:4:25",
                   help="xmin:xmax:nx,ymin:ymax:ny for exp-transform-abs, "
                        f"nx * ny at most {MAX_GRID_POINTS}")
    p.add_argument("--w", default=None)
    p.add_argument("--bundle", default="exp-schwarz", choices=tuple(BUNDLES))
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None):
    """Run one command and return its exit code. A reader that closes stdout
    early ends the run quietly with EXIT_FAILURE, and no traceback."""
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_FAILURE
    return code


def _drop_stdout():
    """Point stdout at the null device once its reader has gone, so that the
    interpreter's last flush does not fail again."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # a stdout without a file descriptor
        pass


def _refuse_flags_before_the_verb(parser, argv):
    """Name the flags given before the verb (exit 2), which argparse would
    otherwise report as an invalid verb: the flags follow the verb."""
    flags = [token.split("=")[0] for token in itertools.takewhile(
        lambda token: token.startswith("-"), argv) if token not in ("-h", "--help")]
    if flags:
        parser.error(f"flags follow the verb: {' '.join(flags)}")


def _dispatch(argv):
    parser = build_parser()
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    try:
        _refuse_flags_before_the_verb(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _config_from(args)
            return args.func(args, _load_curve(args.curve_file))
    except Exception as exc:  # a class no row of REFUSALS names propagates
        for kinds, code, label in REFUSALS:
            if isinstance(exc, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
