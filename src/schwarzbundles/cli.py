"""Command-line surface: validate curves, evaluate transforms and moments,
build and verify bundle sections, run quadrature identities, fit the rational
structure, and dump plot data.

Numeric output uses 17 significant digits so values round-trip exactly.
Configuration comes from flags, with SCHWARZ_TOL / SCHWARZ_N environment
fallbacks; flags win. `_dispatch` builds the configuration and loads the
curve for every verb, and maps the class of a refusal to the exit code;
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
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bundles, quaddom, transforms
from .curve import (
    ConformalMapCurve,
    adaptive_refine,
    curve_from_json,
    sample,
)
from .errors import (
    BranchUnresolvedError,
    NearBoundaryError,
    NoHolomorphicSectionError,
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

# Input caps: the fit's F matrix and eliminations grow with the square of
# the sample count, a lattice's output and kernel pass with its point count.
# At the caps a run peaks at about 70 MB and 90 MB resident (disk, n = 256).
MAX_FIT_SAMPLES = 512
MAX_GRID_POINTS = 512 * 512


@dataclass
class RunConfig:
    tolerance: float = 1e-10
    n: int = None          # pinned node count; adaptive when None
    fmt: str = "json"


def fmt17(x):
    return f"{float(x):.17g}"


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
    """Flags, else SCHWARZ_TOL / SCHWARZ_N, else the verb's defaults."""
    cfg = RunConfig(tolerance=getattr(args, "default_tol", RunConfig.tolerance))
    try:
        env_tol = os.environ.get("SCHWARZ_TOL")
        if env_tol is not None:
            cfg.tolerance = float(env_tol)
        env_n = os.environ.get("SCHWARZ_N")
        if env_n is not None:
            cfg.n = int(env_n)
    except ValueError as exc:
        raise ParseError(f"bad environment configuration: {exc}") from exc
    if getattr(args, "tol", None) is not None:
        cfg.tolerance = args.tol
    if getattr(args, "n", None) is not None:
        cfg.n = args.n
    if getattr(args, "format", None):
        cfg.fmt = args.format
    if not 0.0 < cfg.tolerance < np.inf:
        raise ParseError(f"tolerance must be finite and positive, got {cfg.tolerance}")
    return cfg


def _grid_for(curve, cfg, functional=None, n=512):
    """The pinned grid, else the functional's refined one, else n nodes."""
    if cfg.n is not None or functional is None:
        return sample(curve, n if cfg.n is None else cfg.n)
    return adaptive_refine(curve, functional, cfg.tolerance, n_start=256)


def _emit(payload, cfg):
    if cfg.fmt == "json":
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
                     ";".join(fmt17(v) if isinstance(v, float) else str(v)
                              for v in value)))
    elif isinstance(value, float):
        rows.append((prefix.rstrip("."), fmt17(value)))
    else:
        rows.append((prefix.rstrip("."), str(value)))


def _emit_csv(payload):
    rows = []
    _flatten("", payload, rows)
    for key, val in rows:
        print(f"{key},{val}")


def cmd_validate(args, cfg, curve):
    if isinstance(curve, ConformalMapCurve):
        grid = _grid_for(curve, cfg)
        area_over_pi = quaddom.boundary_classical(grid, [1])
        payload = {
            "valid": True,
            "kind": "conformal",
            "degree": curve.degree,
            "annulus": [curve.rho, 1.0 / curve.rho],
            "area_over_pi": area_over_pi.real,
        }
    else:
        payload = {
            "valid": True,
            "kind": "polygon",
            "n_vertices": curve.n_vertices,
            "area_over_pi": curve.area_over_pi(),
        }
    _emit(payload, cfg)
    return EXIT_OK


def cmd_transform(args, cfg, curve):
    z = parse_complex(args.z)
    if args.w is None:
        grid = _grid_for(curve, cfg,
                         functional=lambda g: transforms.cauchy_transform(g, z))
        side, value = transforms._located_cauchy_transform(grid, z)
        payload = {"z": [z.real, z.imag], "side": side.value,
                   "cauchy_transform": [value.real, value.imag],
                   "n": grid.n}
        _emit(payload, cfg)
        return EXIT_OK
    w = parse_complex(args.w)
    grid = _grid_for(curve, cfg,
                     functional=lambda g: transforms.double_cauchy(g, z, w).C)
    tv = transforms.double_cauchy(grid, z, w)
    name, piece = tv.piece
    payload = transforms.transform_values_to_json([tv])[0]
    payload.update(piece={"name": name, "value": [piece.real, piece.imag]}, n=grid.n)
    _emit(payload, cfg)
    return EXIT_OK


def cmd_moments(args, cfg, curve):
    def functional(g):
        table = transforms.harmonic_moments(g, args.kmin, args.kmax)
        return sum(m / (1.0 + abs(k)) for k, m in table.items())

    grid = _grid_for(curve, cfg, functional=functional)
    table = transforms.harmonic_moments(grid, args.kmin, args.kmax)
    if cfg.fmt == "csv":
        _print_moments_csv(table)
    else:
        _emit({"n": grid.n, "moments": [{"k": k, "value": [m.real, m.imag]}
                                        for k, m in table.items()]}, cfg)
    return EXIT_OK


def _print_moments_csv(table):
    print("k,re_M,im_M")
    for k, m in table.items():
        print(f"{k},{fmt17(m.real)},{fmt17(m.imag)}")


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


def cmd_section(args, cfg, curve):
    """The section's one unwrap of the transition gives its Chern class, a
    negative one through the refusal that carries it."""
    adjust = parse_complex(args.adjust) if args.adjust else None
    grid = _grid_for(curve, cfg)
    bundle = BUNDLES[args.bundle](curve, args)
    payload = {"bundle": args.bundle, "n": grid.n, "normalization": None}
    if args.verify:
        payload["transition_residual"] = None
    try:
        section = bundles.canonical_section(bundle, grid, a=adjust)
    except NoHolomorphicSectionError as exc:
        payload.update(chern=exc.chern, note="negative Chern class; no holomorphic sections")
    else:
        payload.update(chern=section.chern, normalization=section.normalization)
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
    _emit(payload, cfg)
    return EXIT_OK


def cmd_quadrature(args, cfg, curve):
    """Exit 0 when the residue value meets its oracle within the tolerance."""
    f_coeffs = parse_coeff_list(args.f) if args.f else [1.0 + 0j]
    weights = None
    if args.kind == "corner":
        weights = quaddom.polygon_quadrature(curve)
        residue_value = quaddom.apply_polygon_quadrature(weights, f_coeffs)
        oracle_value = quaddom.area_mean_polygon(
            curve, quaddom.poly_derivative(f_coeffs, 2))
    else:
        grid = _grid_for(curve, cfg)
        if args.kind == "classical":
            residue_value = quaddom.classical_quadrature(curve, f_coeffs)
            oracle_value = quaddom.boundary_classical(grid, f_coeffs)
        elif args.kind == "abelian":
            residue_value = quaddom.abelian_quadrature(curve, f_coeffs)
            oracle_value = quaddom.boundary_abelian(grid, f_coeffs)
        else:
            residue_value = quaddom.arclength_quadrature(curve, f_coeffs, grid)
            oracle_value = quaddom.boundary_arclength(grid, f_coeffs)
    report = quaddom.quadrature_report(args.kind, residue_value, oracle_value, weights)
    _emit(report, cfg)
    return EXIT_OK if report["discrepancy"] < cfg.tolerance else EXIT_FAILURE


def cmd_rational_fit(args, cfg, curve):
    """Fit on the default exterior samples. q and p carry a relative error of
    about the fit stage's condition number times eps (about 1e7 * eps for
    the quartic at degree 4 on 24 samples); their 17 digits are printed so
    that the values round-trip, not because all of them are significant."""
    if args.samples > MAX_FIT_SAMPLES:
        raise ParseError(f"--samples {args.samples} exceeds the cap {MAX_FIT_SAMPLES}")
    grid = _grid_for(curve, cfg)
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
    _emit(payload, cfg)
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


def cmd_plotdata(args, cfg, curve):
    grid = _grid_for(curve, cfg, n=256)
    if args.quantity == "exp-transform-abs":
        if args.w is None:
            raise ParseError("exp-transform-abs needs --w")
        w = parse_complex(args.w)
        x0, x1, nx, y0, y1, ny = _parse_grid_spec(args.grid)
        xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
        zs = np.empty((ys.size, xs.size), dtype=complex)
        zs.real, zs.imag = xs[None, :], ys[:, None]
        cs = transforms.double_cauchy_batch(grid, zs, w).reshape(zs.shape)
        abs_e = np.exp(cs.real)  # |exp(C)|; NaN where refused
        x_txt = [fmt17(x) for x in xs]
        lines = ["x,y,abs_E"]
        for y, row in zip(ys, abs_e.tolist()):
            y_txt = fmt17(y)
            for x, e in zip(x_txt, row):
                value = "" if e != e else fmt17(e)  # NaN: blank
                lines.append(f"{x},{y_txt},{value}")
        print("\n".join(lines))
        return EXIT_OK
    if args.quantity == "moments":
        _print_moments_csv(transforms.harmonic_moments(grid, args.kmin, args.kmax))
        return EXIT_OK
    bundle = BUNDLES[args.bundle](curve, args)  # section-density
    section = bundles.canonical_section(
        bundle, grid, a=parse_complex(args.adjust) if args.adjust else None)
    print("t,re_density,im_density")
    for t, d in zip(section.grid.t, section.density):
        print(f"{fmt17(t)},{fmt17(d.real)},{fmt17(d.imag)}")
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
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="refinement tolerance (env SCHWARZ_TOL)")
    common.add_argument("--n", type=int, default=argparse.SUPPRESS,
                        help="pin the node count (env SCHWARZ_N)")
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    verb = argparse.ArgumentParser(add_help=False, parents=[common])
    verb.add_argument("curve_file")
    bundle_args = argparse.ArgumentParser(add_help=False)
    bundle_args.add_argument("--pole", default=None)
    bundle_args.add_argument("--power", type=int, default=None)
    bundle_args.add_argument("--adjust", default=None)
    moment_args = argparse.ArgumentParser(add_help=False)
    moment_args.add_argument("--kmin", type=int, default=-3)
    moment_args.add_argument("--kmax", type=int, default=3)
    parser = argparse.ArgumentParser(
        prog="schwarzbundles",
        parents=[common],
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
    p.add_argument("--kind", required=True,
                   choices=("classical", "abelian", "arc-length", "corner"))
    p.add_argument("--f", default=None,
                   help="polynomial coefficients, low to high, ';'-separated")
    p.set_defaults(func=cmd_quadrature, default_tol=1e-9)  # the pass threshold

    p = sub.add_parser("rational-fit", help="rational structure of F(z, w)", parents=[verb])
    p.add_argument("--deg-q", type=int, required=True, dest="deg_q")
    p.add_argument("--deg-p", type=int, required=True, dest="deg_p")
    p.add_argument("--samples", type=int, default=12,
                   help=f"exterior sample count (at most {MAX_FIT_SAMPLES})")
    p.set_defaults(func=cmd_rational_fit)

    p = sub.add_parser("plotdata", help="CSV samples for external plotting",
                       parents=[verb, moment_args, bundle_args])
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


def _dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args, _config_from(args), _load_curve(args.curve_file))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NearBoundaryError as exc:
        print(f"near-boundary refusal: {exc}", file=sys.stderr)
        return EXIT_NEAR_BOUNDARY
    except BranchUnresolvedError as exc:
        print(f"branch unresolved: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    except (NotConformalMapCurveError, TangentNotMeromorphicError) as exc:
        print(f"incompatible geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (SchwarzBundleError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
