"""Fuzz of the command line: every input ends in a value or a refusal.

`main` runs in process over all seven verbs, with curve files that are
scaled, non-finite or malformed and flags drawn from fixed pools of bad
values. Each run must return an exit code in 0-5, raise nothing (the
suite's filterwarnings = error turns a leaked numpy warning into an
exception) and print no non-finite number. Every example pins --n, so none
refines adaptively.
"""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import schwarzbundles as sb
from schwarzbundles.cli import EXIT_PARSE, _load_curve, main
from schwarzbundles.errors import SchwarzBundleError

BASES = {
    "disk": {"kind": "conformal", "coeffs": [[0, 0], [1, 0]], "rho": 0.5},
    "cardioid": {"kind": "conformal", "coeffs": [[0, 0], [1, 0], [0.3, 0]], "rho": 0.7},
    "quartic": {"kind": "conformal", "rho": 0.75,
                "coeffs": [[0, 0], [1, 0], [0.1, 0], [0.04, 0], [0.02, 0]]},
    "square": {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
}


def _scaled(spec, e):
    key = "coeffs" if spec["kind"] == "conformal" else "vertices"
    return dict(spec, **{key: [[x * 10.0 ** e, y * 10.0 ** e] for x, y in spec[key]]})


def _curve_texts():
    """File name -> text (bytes: not UTF-8; None: no such file)."""
    # scales 1e150 (|z|^2 about 1e300) to 1e300, past the squared-extent
    # refusal from about 1e154, and 1e-150 to 1e-300, past the refusal of a
    # map whose |a1|^2 underflows from about 1e-154
    texts = {f"{name}{e:+d}": json.dumps(_scaled(spec, e))
             for name, spec in BASES.items()
             for e in [*range(-3, 4), 150, 160, 300, -150, -200, -300]}
    for literal in ("NaN", "Infinity", "1e400"):  # JSON literals Python reads
        for name, spec in BASES.items():
            key = "coeffs" if spec["kind"] == "conformal" else "vertices"
            text = json.dumps(dict(spec, **{key: [["X", 0]] + spec[key][1:]}))
            texts[f"{name}-{literal}"] = text.replace('"X"', literal)
        texts[f"rho-{literal}"] = json.dumps(dict(BASES["disk"], rho="X")).replace(
            '"X"', literal)
    shapes = [
        '{"kind": "conformal", "coeffs": [1, 2], "rho": 0.5}',
        '{"kind": "conformal", "coeffs": [[0, 0, 0], [1, 0]], "rho": 0.5}',
        '{"kind": "conformal", "coeffs": [["a", 0], [1, 0]], "rho": 0.5}',
        '{"kind": "conformal", "coeffs": {"0": 1}, "rho": 0.5}',
        '{"kind": "conformal", "coeffs": [[0, 0], [1, 0]]}',
        '{"kind": "conformal", "coeffs": [[0, 0], [1, 0]], "rho": null}',
        '{"kind": "conformal", "coeffs": [[0, 0], [1, 0]], "rho": "x"}',
        '{"kind": "conformal", "coeffs": [[0, 0]], "rho": 0.5}',
        '{"kind": "polygon"}',
        '{"kind": "polygon", "vertices": [[0, 0], [1, 0]]}',
        '{"kind": "polygon", "vertices": [0, 1, 2]}',
        '{"coeffs": [[0, 0], [1, 0]], "rho": 0.5}',
        '{"kind": "ellipse"}',
        "[1, 2]",
        "NaN",
        "{oops",
        "[" * 100000,
        "",
    ]
    texts.update((f"shape{i}", text) for i, text in enumerate(shapes))
    texts["missing"] = None
    texts["binary"] = b"\xff\xfe{"
    return texts


CURVES = _curve_texts()

INTS = ["-7", "-1", "0", "1", "2", "3", "4000", "nan", "inf", "1e400", ""]
COMPLEX = ["-3,-0.5", "-0.5,0.2", "-1", "0", "0.3", "0.5j", "1", "2", "3", "1e300",
           "nan", "inf", "1e400", ""]
TOLS = ["-1", "0", "1e-30", "1e-10", "1e-3", "nan", "inf", "1e400", ""]
POLYS = ["1", "1;2;1", "0;0;1", "-1;2,-1", ";", "1;nan", "inf", ""]
GRIDS = ["0.5:1.5:7,-0.2:0.2:3", "-2:2:4,-2:2:4", "-4000:4000:3,-1:1:3",
         "0:1:0,0:1:3", "0:1:-2,0:1:2", "nan:1:2,0:1:2", "0:inf:2,0:1:2",
         "1e400:1:2,0:1:2", "0:1:2", ""]
# 4000 is above the command line's sample cap (cli.MAX_FIT_SAMPLES): a
# parse error wherever the curve file loads. It comes first, where the
# derandomized draws reach it on loadable curves.
SAMPLES = ["4000", "-1", "0", "4", "12", "nan", ""]
POWERS = INTS + ["1000001"]
VERBS = ["validate", "transform", "moments", "section", "quadrature",
         "rational-fit", "plotdata"]
BUNDLES = ["exp-schwarz", "schwarz-pole", "tangent-power"]

NON_FINITE = re.compile(r"(?<![A-Za-z])(NaN|nan|Infinity|inf)(?![A-Za-z])")


def draw_argv(pick, path_of):
    """One command line; pick(pool) chooses an element, path_of(name) is
    the path of a curve file."""
    verb = pick(VERBS)
    argv = [verb, path_of(pick(sorted(CURVES))), "--n", pick(["7", "16", "64", "256", "0"])]

    def maybe(flag, pool):
        value = pick([None] + pool)
        if value is not None:
            argv.append(f"{flag}={value}")

    maybe("--format", ["json", "csv"])
    maybe("--tol", TOLS)
    if verb == "transform":
        argv.append(f"--z={pick(COMPLEX)}")
        maybe("--w", COMPLEX)
    if verb in ("moments", "plotdata"):
        maybe("--kmin", INTS)
        maybe("--kmax", INTS)
    if verb in ("section", "plotdata"):
        argv.append(f"--bundle={pick(BUNDLES)}")
        maybe("--pole", COMPLEX)
        maybe("--power", POWERS)
        maybe("--adjust", COMPLEX)
    if verb == "section" and pick([False, True]):
        argv.append("--verify")
    if verb == "quadrature":
        argv.append(f"--kind={pick(['classical', 'abelian', 'arc-length', 'corner'])}")
        maybe("--f", POLYS)
    if verb == "rational-fit":
        argv += [f"--deg-q={pick(INTS)}", f"--deg-p={pick(INTS)}"]
        maybe("--samples", SAMPLES)
    if verb == "plotdata":
        argv.append("--quantity="
                    + pick(["exp-transform-abs", "moments", "section-density"]))
        maybe("--grid", GRIDS)
        maybe("--w", COMPLEX)
    return argv


@pytest.fixture(scope="module")
def curve_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("curves")
    paths = {}
    for name, text in CURVES.items():
        paths[name] = str(root / f"{name}.json")
        if isinstance(text, bytes):
            (root / f"{name}.json").write_bytes(text)
        elif text is not None:
            (root / f"{name}.json").write_text(text)
    return paths


@settings(max_examples=400, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_cli_input_ends_in_a_value_or_a_refusal(capsys, curve_files, data):
    argv = draw_argv(lambda pool: data.draw(st.sampled_from(pool)), curve_files.get)
    code = main(argv)
    out = capsys.readouterr().out
    assert code in range(6), argv
    assert not NON_FINITE.search(out), (argv, out[:200])
    if "--samples=4000" in argv and _loads(argv[1]):
        assert code == EXIT_PARSE, argv


def test_every_map_of_the_pool_keeps_its_nodes_apart():
    # the refusal of maps whose nodes collapse in rounding leaves every map
    # curve of the pool, at every scale, as it was: each one that loads
    # today loaded before it, and none is refused for its nodes
    for name, text in CURVES.items():
        if isinstance(text, str) and '"conformal"' in text:
            try:
                sb.curve_from_json(text)
            except SchwarzBundleError as exc:
                assert "collapse" not in str(exc), name


def _loads(path):
    """Whether the curve file loads, so that the verb's own checks run."""
    try:
        _load_curve(path)
    except SchwarzBundleError:
        return False
    return True
