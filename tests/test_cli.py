import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schwarzbundles as sb
from schwarzbundles import cli, errors
from schwarzbundles.curve import clear_rows
from schwarzbundles.cli import (
    EXIT_FAILURE,
    MAX_FIT_SAMPLES,
    MAX_GRID_POINTS,
    MAX_MOMENT_ORDER,
    QUADRATURES,
    main,
    parse_complex,
)
from schwarzbundles.errors import (
    BranchUnresolvedError,
    NearBoundaryError,
    NotConformalMapCurveError,
    ParseError,
    SchwarzBundleError,
    TangentNotMeromorphicError,
)

DISK = '{"kind": "conformal", "coeffs": [[0,0],[1,0]], "rho": 0.5}'
CARDIOID = '{"kind": "conformal", "coeffs": [[0,0],[1,0],[0.3,0]], "rho": 0.7}'
BAD_CURVE = '{"kind": "conformal", "coeffs": [[0,0],[1,0],[0.6,0]], "rho": 0.8}'
SQUARE = '{"kind": "polygon", "vertices": [[0,0],[1,0],[1,1],[0,1]]}'
TRIANGLE = '{"kind": "polygon", "vertices": [[0,0],[1,0],[0.3,0.8]]}'
FAR_DISK = '{"kind": "conformal", "coeffs": [[800,0],[1,0]], "rho": 0.5}'


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(DISK)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert parse_complex("2") == 2
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex("0.5,0.2") == 0.5 + 0.2j


@pytest.mark.parametrize("text", ["nan", "inf", "nanj", "1e999", "nan,0", "0,inf"])
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(ParseError):
        parse_complex(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["transform", "--z", "nan"],
    ["transform", "--z", "2", "--w", "inf"],
    ["section", "--bundle", "schwarz-pole", "--pole", "nan"],
    ["section", "--bundle", "schwarz-pole", "--pole", "0", "--adjust", "nan,0"],
])
def test_non_finite_arguments_are_parse_errors(capsys, disk_file, argv):
    code, _, err = run(capsys, argv[0], disk_file, *argv[1:])
    assert code == 2
    assert "finite" in err


def test_validate_disk(capsys, disk_file):
    code, out, _ = run(capsys, "validate", disk_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["area_over_pi"] == pytest.approx(1.0, abs=1e-12)


def test_validate_area_is_the_exact_moment_on_no_grid(capsys, monkeypatch, tmp_path):
    # area_over_pi is M_0 = sum_j j |a_j|^2 from the coefficients, bit for
    # bit, and no grid is sampled, pinned n or not
    def no_grid(*args):
        raise AssertionError("validate sampled a grid")

    monkeypatch.setattr("schwarzbundles.curve.sample", no_grid)
    monkeypatch.setattr("schwarzbundles.cli.sample", no_grid)
    for coeffs, rho in (([0, 1], 0.5), ([0, 1, 0.3], 0.7),
                        ([0, 1, 0.1, 0.04, 0.02], 0.75), ([0.2j, 1, 0.2 + 0.15j], 0.6)):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(sb.curve_to_json(sb.build_polynomial_curve(coeffs, rho))))
        want = sb.build_polynomial_curve(coeffs, rho).moments(0)[0].real
        for extra in ([], ["--n", "4096"]):
            code, out, _ = run(capsys, "validate", str(path), *extra)
            assert code == 0 and json.loads(out)["area_over_pi"] == want


def test_validate_does_not_count_trailing_zero_coefficients(capsys, tmp_path):
    # the cardioid padded with two zero coefficients is the cardioid: degree 2
    path = tmp_path / "padded.json"
    path.write_text('{"kind": "conformal", "coeffs": [[0,0],[1,0],[0.3,0],[0,0],[0,0]], '
                    '"rho": 0.7}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["degree"] == 2


def test_validate_invalid_curve(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(BAD_CURVE)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "vanishes" in err


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_transform_pair(capsys, disk_file):
    code, out, _ = run(capsys, "transform", disk_file, "--z", "2", "--w", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["E"][0] == pytest.approx(5 / 6, abs=1e-9)
    assert payload["piece"]["name"] == "F"


@pytest.mark.parametrize("z, w, name", [
    (2, 3, "F"), (0.5, 3, "G"), (2, 0.5, "G*"), (0, 0.5, "H")])
def test_transform_piece_is_the_library_piece(capsys, disk_file, z, w, name):
    code, out, _ = run(capsys, "transform", disk_file, "--n", "512",
                       "--z", str(z), "--w", str(w))
    assert code == 0
    piece = json.loads(out)["piece"]
    tv = sb.double_cauchy(sb.sample(sb.build_circle(0, 1), 512), z, w)
    assert piece["name"] == name
    assert complex(*piece["value"]) == tv.piece[1]


def _disk_e(z, w):
    """E(z, w) on the unit disk in closed form, quadrant by quadrant."""
    if abs(z) < 1.0:
        return abs(z - w) ** 2 / (1.0 - z * w.conjugate()) if abs(w) < 1.0 \
            else 1.0 - (z / w).conjugate()
    return 1.0 - w / z if abs(w) < 1.0 else 1.0 - 1.0 / (z * w.conjugate())


@pytest.mark.parametrize("theta", [0.3, 2.0, 4.4])
@pytest.mark.parametrize("zr, wr, n", [(0.93, 3.0, 512), (1.02, 2.5, 2048), (1.005, 0.4, 8192)])
def test_transform_settles_where_the_band_clears_z(capsys, disk_file, theta, zr, wr, n):
    # z and w clear of the nodes' annulus take the closed rows, whose C does
    # not move with n: refinement stops at the first grid whose band clears
    # z, the n the benchmark's query mix pins, and E is the closed form
    z, w = zr * cmath.exp(1j * theta), wr * cmath.exp(1j * (theta + 1.0))
    code, out, _ = run(capsys, "transform", disk_file, f"--z={z.real},{z.imag}",
                       f"--w={w.real},{w.imag}")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == n
    for count, placed in ((n // 2, False), (n, True)):
        outside, inside = clear_rows(sb.sample(sb.build_circle(0, 1), count), [z])
        assert bool(outside[0] or inside[0]) == placed
    assert abs(complex(*payload["E"]) - _disk_e(z, w)) <= 1e-12


def test_transform_single(capsys, disk_file):
    code, out, _ = run(capsys, "transform", disk_file, "--z", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cauchy_transform"][0] == pytest.approx(0.5, abs=1e-10)


def test_transform_near_boundary(capsys, disk_file):
    code, _, err = run(capsys, "transform", disk_file, "--z", "1.0000001",
                       "--n", "4096")
    assert code == 3
    assert "band" in err


def test_section_commands(capsys, disk_file):
    code, out, _ = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                       "--pole", "0", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["chern"] == 1
    assert payload["transition_residual"] < 1e-9

    code, out, _ = run(capsys, "section", disk_file, "--bundle", "exp-schwarz")
    assert json.loads(out)["chern"] == 0

    code, out, _ = run(capsys, "section", disk_file, "--bundle", "tangent-power",
                       "--power", "2")
    assert json.loads(out)["chern"] == -2


FAR_POLE_CURVES = {"disk": DISK, "cardioid": CARDIOID,
                   "disk-at-0.2": '{"kind": "conformal", "coeffs": [[0.2,0],[1,0]], "rho": 0.5}'}
FAR_POLE_VERBS = {"transform": ["transform", "--z", "3", "--w"],
                  "section": ["section", "--bundle", "schwarz-pole", "--pole"],
                  "plotdata": ["plotdata", "--quantity", "exp-transform-abs",
                               "--grid=-2:2:3,-2:2:3", "--w"]}


@pytest.mark.parametrize("curve", sorted(FAR_POLE_CURVES))
@pytest.mark.parametrize("verb", sorted(FAR_POLE_VERBS))
def test_far_pole_is_a_parse_error_that_names_it(capsys, tmp_path, curve, verb):
    # beyond about 1e290 |a_j| every non-constant coefficient of phi - w is
    # trimmed, and phi - w keeps no root: exit 2, not a traceback; 1e289
    # keeps its roots and answers
    path = tmp_path / "curve.json"
    path.write_text(FAR_POLE_CURVES[curve])
    verb_name, *flags = FAR_POLE_VERBS[verb]
    for pole in ("1e291", "1e300", "-1e300j"):
        code, out, err = run(capsys, verb_name, str(path), *flags, pole)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: pole {complex(pole)} is too far")
    code, out, err = run(capsys, verb_name, str(path), *flags, "1e289")
    assert code == 0 and out and err == ""


@pytest.mark.filterwarnings("error")
def test_section_exp_schwarz_far_curve(capsys, tmp_path):
    # exp(S) overflows at the nodes of this curve; its log S does not
    path = tmp_path / "far.json"
    path.write_text(FAR_DISK)
    code, out, _ = run(capsys, "section", str(path), "--bundle", "exp-schwarz")
    assert code == 0
    assert json.loads(out)["chern"] == 0


@pytest.mark.filterwarnings("error")
def test_section_verify_far_curve_answers(capsys, tmp_path):
    # exp(S) would overflow at the verification points; the residual is
    # formed from log lambda12 = S and needs no exp
    path = tmp_path / "far.json"
    path.write_text(FAR_DISK)
    code, out, err = run(capsys, "section", str(path), "--bundle", "exp-schwarz",
                         "--verify")
    assert code == 0 and err == ""
    assert json.loads(out)["transition_residual"] <= 1e-9


def test_section_verify_pole_by_the_inner_ring_answers(capsys, disk_file):
    # the adjustment point 0.9 lies in the inner verification ring's band,
    # but the pole's modes need only its preimage inside the ring: the check
    # answers, with the ring's aliasing of the root 0.9 (about 4.9e-9)
    code, out, err = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                         "--pole", "0.9", "--verify", "--n", "512")
    assert code == 0 and err == ""
    assert json.loads(out)["transition_residual"] <= 1e-8


def test_section_pole_in_the_band_is_a_band_refusal(capsys, disk_file):
    # the class-1 pole 0.99 is the default adjustment point, and it lies in
    # the band at n = 256: refused, not replaced by the conformal center
    code, out, err = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                         "--pole", "0.99", "--n", "256")
    assert (code, out) == (3, "")
    assert "exclusion band" in err


def test_arclength_off_a_circle_is_incompatible_geometry(capsys, tmp_path):
    # phi = zeta + 1e-10 zeta^2 is no circle, however near one
    path = tmp_path / "curve.json"
    path.write_text('{"kind": "conformal", "coeffs": [[0, 0], [1, 0], [1e-10, 0]], "rho": 0.5}')
    code, out, err = run(capsys, "quadrature", str(path), "--kind", "arc-length")
    assert (code, out) == (5, "")
    assert err.startswith("incompatible geometry: the arc-length identity holds for "
                          "circles only; phi' has degree")


@pytest.mark.filterwarnings("error")
def test_section_pole_on_a_node_is_a_branch_refusal(capsys, disk_file):
    code, out, err = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                         "--pole", "1", "--n", "512")
    assert code == 4
    assert out == "" and "not finite" in err


def test_section_dump(capsys, disk_file, tmp_path):
    dump = tmp_path / "section.json"
    code, _, _ = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                     "--pole", "3", "--dump", str(dump))
    assert code == 0
    blob = json.loads(dump.read_text())
    assert blob["chern"] == 0 and len(blob["density"]) == 512


@pytest.mark.parametrize("where", ["missing/section.json", "."],
                         ids=["missing-directory", "directory"])
def test_section_dump_to_an_unwritable_path_is_a_parse_error(capsys, disk_file,
                                                             tmp_path, where):
    # refused before the payload is printed, as an unreadable curve file is
    dump = tmp_path / where
    code, out, err = run(capsys, "section", disk_file, "--bundle", "exp-schwarz",
                         "--n", "256", "--dump", str(dump))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot write {dump}: ")


@pytest.mark.parametrize("bundle, chern", [
    (["schwarz-pole", "--pole", "3"], 0),
    (["schwarz-pole", "--pole", "0.2+0.1j"], 1),
    (["tangent-power", "--power", "-1"], 1),
    (["tangent-power", "--power", "2"], -2),
], ids=["exterior", "interior", "tangent", "negative"])
def test_section_makes_no_unwrap(capsys, monkeypatch, disk_file, bundle, chern):
    # the Chern class is stored on the bundle, and the section's density and
    # its check are the bundle's modes: no unwrap and no transition value,
    # adjusted at an interior pole or not; a negative class makes no section
    calls = []
    unwrap = sb.bundles.unwrap_log
    monkeypatch.setattr(sb.bundles, "unwrap_log", lambda *a: calls.append(a) or unwrap(*a))
    transition = sb.LineBundle.transition_at_nodes
    monkeypatch.setattr(sb.LineBundle, "transition_at_nodes",
                        lambda self, g: calls.append(g) or transition(self, g))
    code, out, _ = run(capsys, "section", disk_file, "--bundle", *bundle, "--n", "512",
                       "--verify")
    assert code == 0 and json.loads(out)["chern"] == chern
    assert not calls


@pytest.mark.parametrize("z, side", [("2", "exterior"), ("0.1", "interior")])
def test_transform_without_w_is_one_kernel_pass(capsys, monkeypatch, disk_file, z, side):
    # the side and the value come from cauchy_transform's one off_band pass
    calls = []
    kernel = sb.curve.kernel_sums
    monkeypatch.setattr(sb.curve, "kernel_sums", lambda *a: calls.append(a) or kernel(*a))
    code, out, _ = run(capsys, "transform", disk_file, "--z", z, "--n", "512")
    assert code == 0 and json.loads(out)["side"] == side
    assert len(calls) == 1


@pytest.mark.parametrize("bundle", [["tangent-power", "--power", "2"],
                                    ["exp-schwarz"]], ids=["negative", "zero"])
def test_section_malformed_adjust_is_a_parse_error(capsys, disk_file, bundle):
    # refused whatever the Chern class, before any output
    code, out, err = run(capsys, "section", disk_file, "--bundle", *bundle,
                         "--adjust", "zz", "--n", "256")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("verb", [["section"], ["plotdata", "--quantity", "section-density"]],
                         ids=["section", "plotdata"])
@pytest.mark.parametrize("adjust", ["", "x"], ids=["empty", "letter"])
def test_empty_adjust_is_a_parse_error(capsys, disk_file, verb, adjust):
    # an empty adjustment point is malformed, not a missing one
    code, out, err = run(capsys, verb[0], disk_file, *verb[1:], "--bundle", "schwarz-pole",
                         "--pole", "0.2", "--adjust", adjust, "--n", "256")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_quadrature_disk_classical(capsys, disk_file):
    code, out, _ = run(capsys, "quadrature", disk_file, "--kind", "classical",
                       "--f", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_value"][0] == pytest.approx(1.0, abs=1e-10)
    assert payload["discrepancy"] < 1e-9


def test_quadrature_square_corner(capsys, square_file):
    code, out, _ = run(capsys, "quadrature", square_file, "--kind", "corner",
                       "--f", "0;0;1")
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_value"][0] == pytest.approx(2 / 3.141592653589793,
                                                        abs=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", ["0;0;1", "0;0;0;1", "0;0;0;0;1"])
def test_quadrature_triangle_corner(capsys, tmp_path, f):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE)
    code, out, _ = run(capsys, "quadrature", str(path), "--kind", "corner", "--f", f)
    assert code == 0
    assert json.loads(out)["discrepancy"] < 1e-14


def test_quadrature_corner_answers_a_tiny_square(capsys, tmp_path):
    # a square of side 1e-20 passes validation and its corner quadrature
    path = tmp_path / "tiny.json"
    path.write_text('{"kind": "polygon", "vertices": '
                    '[[0,0],[1e-20,0],[1e-20,1e-20],[0,1e-20]]}')
    code, out, _ = run(capsys, "quadrature", str(path), "--kind", "corner",
                       "--f", "0;0;1")
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_value"][0] == pytest.approx(2e-40 / np.pi, rel=1e-12)


def test_quadrature_incompatible(capsys, square_file):
    code, _, err = run(capsys, "quadrature", square_file, "--kind", "classical",
                       "--f", "1")
    assert code == 5


def test_rational_fit(capsys, disk_file):
    code, out, _ = run(capsys, "rational-fit", disk_file, "--deg-q", "1",
                       "--deg-p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-8
    assert payload["classification"] == "quadrature-domain"


def _json_leaf(payload, key):
    """The value at a CSV key: '.'-separated dict keys and list indices."""
    for part in key.split("."):
        payload = payload[int(part)] if isinstance(payload, list) else payload[part]
    return payload


@pytest.mark.parametrize("curve, argv, keys", [
    (CARDIOID, ["rational-fit", "--deg-q", "2", "--deg-p", "2", "--samples", "12",
                "--n", "256"],
     ["boundary_residual", "classification", "deg_p", "deg_q", "p.0", "p.1", "p.2"]
     + [f"q.{i}.{j}" for i in range(3) for j in range(3)] + ["residual"]),
    (SQUARE, ["quadrature", "--kind", "corner", "--f", "0;0;1"],
     ["discrepancy", "kind", "oracle_value", "residue_value"]
     + [f"weights.{i}.{part}" for i in range(4) for part in ("corner", "weight")]),
], ids=["rational-fit", "corner"])
def test_csv_rows_hold_the_json_numbers(capsys, tmp_path, curve, argv, keys):
    # nested lists and lists of dicts flatten to one row per leaf, keyed by
    # index; every number is printed as in JSON, never as a numpy repr
    path = tmp_path / "curve.json"
    path.write_text(curve)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [key for key, _ in rows] == keys
    for key, text in rows:
        want = _json_leaf(payload, key)
        if isinstance(want, list):
            assert [float(item) for item in text.split(";")] == want
        elif isinstance(want, float):
            assert float(text) == want
        else:
            assert text == str(want)


def test_input_caps_are_documented_and_inclusive(capsys, disk_file):
    from schwarzbundles.cli import _parse_grid_spec
    assert _parse_grid_spec(f"0:1:{MAX_GRID_POINTS},2:3:1")[2] == MAX_GRID_POINTS
    code, out, _ = run(capsys, "rational-fit", disk_file, "--deg-q", "1", "--deg-p",
                       "1", "--samples", str(MAX_FIT_SAMPLES), "--n", "256")
    assert code == 0 and json.loads(out)["classification"] == "quadrature-domain"
    for verb, cap in (("rational-fit", MAX_FIT_SAMPLES), ("plotdata", MAX_GRID_POINTS)):
        code, out, _ = run(capsys, verb, "--help")
        assert code == 0 and f"at most {cap}" in " ".join(out.split())


@pytest.mark.parametrize("coeffs, rho", [([[0, 0], [1, 0]], 0.5),
                                         ([[0, 0], [1, 0], [0.3, 0]], 0.7)])
@pytest.mark.parametrize("w", [3 + 0.5j, 0.2 - 0.1j])
def test_plotdata_abs_e_is_the_modulus_of_exp_c(capsys, tmp_path, coeffs, rho, w):
    # |E| = exp(Re C), within 4 ulps of abs(exp(C)) per point; blank where
    # the batch gives NaN
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"kind": "conformal", "coeffs": coeffs, "rho": rho}))
    code, out, _ = run(capsys, "plotdata", str(path), "--quantity", "exp-transform-abs",
                       "--w", f"{w.real},{w.imag}", "--n", "256",
                       "--grid", "-2:2:21,-2:2:21")
    assert code == 0
    grid = sb.sample(sb.build_polynomial_curve([complex(*c) for c in coeffs], rho), 256)
    xs = np.linspace(-2.0, 2.0, 21)
    cs = sb.double_cauchy_batch(grid, (xs[None, :] + 1j * xs[:, None]).ravel(), w)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == cs.size
    assert [value == "" for _, _, value in rows] == list(np.isnan(cs))
    for (_, _, value), c in zip(rows, cs):
        if value:
            want = abs(cmath.exp(c))
            assert abs(float(value) - want) <= 4 * np.spacing(want)


def test_plotdata_grid_band_cells_empty(capsys, disk_file):
    code, out, _ = run(capsys, "plotdata", disk_file, "--quantity",
                       "exp-transform-abs", "--w", "3",
                       "--grid", "0.5:1.5:7,-0.2:0.2:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,abs_E"
    assert any(line.endswith(",") for line in lines[1:])      # band cells empty
    assert any(not line.endswith(",") for line in lines[1:])  # others filled


def test_plotdata_w_in_the_band_is_refused(capsys, disk_file):
    # used to print a lattice of blanks and exit 0
    code, out, err = run(capsys, "plotdata", disk_file, "--quantity",
                         "exp-transform-abs", "--w", "1.01",
                         "--grid", "0.5:1.5:7,-0.2:0.2:3")
    assert code == 3
    assert out == ""
    assert "exclusion band" in err


def test_plotdata_moments(capsys, disk_file):
    code, out, _ = run(capsys, "plotdata", disk_file, "--quantity", "moments",
                       "--kmin", "-3", "--kmax", "3")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1]
            for line in out.strip().split("\n")[1:]}
    assert float(rows["0"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows["2"]) == pytest.approx(0.0, abs=1e-12)


SHIFTED_DISK = '{"kind": "conformal", "coeffs": [[5,0],[1,0]], "rho": 0.5}'


@pytest.mark.parametrize("argv", [
    ["moments", "--kmin", "0", "--kmax", "3"],
    ["moments", "--kmin", "0", "--kmax", "3", "--n", "256"],
    ["plotdata", "--quantity", "moments", "--kmin", "0", "--kmax", "3"],
], ids=["moments", "moments-n256", "plotdata"])
def test_moments_of_nonnegative_order_need_no_interior_origin(capsys, tmp_path, argv):
    # the unit circle about 5: M_k = 5^k
    path = tmp_path / "shifted.json"
    path.write_text(SHIFTED_DISK)
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    if argv[0] == "moments":
        values = {row["k"]: complex(*row["value"]) for row in json.loads(out)["moments"]}
    else:
        values = {int(k): complex(float(re), float(im))
                  for k, re, im in (line.split(",") for line in out.split()[1:])}
    assert sorted(values) == [0, 1, 2, 3]
    for k, value in values.items():
        assert abs(value - 5.0 ** k) <= 1e-12 * 5.0 ** k


def test_moments_of_nonnegative_order_stop_refining_at_the_first_grid(capsys, disk_file):
    # the k >= 0 moments are exact from the map's coefficients, so the
    # refinement's functional does not move from n = 256 to 512
    code, out, _ = run(capsys, "moments", disk_file, "--kmin", "0", "--kmax", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 256
    values = [complex(*row["value"]) for row in payload["moments"]]
    assert values == [1.0] + [0.0] * 1000


def test_moments_answer_up_to_the_last_finite_order(capsys, tmp_path):
    # about 5, M_441 = 5^441 is finite and M_442 is not (the out-of-range
    # parametrization below refuses the orders beyond)
    path = tmp_path / "shifted.json"
    path.write_text(SHIFTED_DISK)
    code, out, _ = run(capsys, "moments", str(path), "--kmin", "0", "--kmax", "441")
    assert code == 0
    last = json.loads(out)["moments"][-1]
    assert last["k"] == 441
    assert abs(complex(*last["value"]) - 5.0 ** 441) <= 4e-15 * 5.0 ** 441


def test_moments_of_negative_order_need_an_interior_origin(capsys, tmp_path):
    path = tmp_path / "shifted.json"
    path.write_text(SHIFTED_DISK)
    code, out, err = run(capsys, "moments", str(path), "--kmin", "-1", "--kmax", "3")
    assert (code, out) == (1, "")
    assert "origin is interior" in err


def test_deterministic_output(capsys, disk_file):
    _, out1, _ = run(capsys, "transform", disk_file, "--n", "256",
                     "--z", "2", "--w", "3")
    _, out2, _ = run(capsys, "transform", disk_file, "--n", "256",
                     "--z", "2", "--w", "3")
    assert out1 == out2


def test_seventeen_digit_roundtrip(capsys, disk_file):
    code, out, _ = run(capsys, "moments", disk_file, "--format", "csv",
                       "--kmin", "0", "--kmax", "0")
    assert code == 0
    value = out.strip().split("\n")[1].split(",")[1]
    assert float(value) == json.loads(run(capsys, "moments", disk_file,
                                          "--kmin", "0", "--kmax", "0")[1]
                                      )["moments"][0]["value"][0]


@pytest.mark.parametrize("argv", [
    ["transform", "--z", "-0.5,0.2", "--w", "-3,0.5"],
    ["transform", "--z", "-3,-0.5"],
    ["section", "--bundle", "schwarz-pole", "--pole", "-0.3,0.2", "--adjust", "-0.1,-0.1"],
    ["quadrature", "--kind", "classical", "--f", "-1;2,-1"],
    ["plotdata", "--quantity", "exp-transform-abs", "--w", "-3,0.5", "--grid", "-2:2:4,-2:2:4"],
    ["plotdata", "--quantity", "section-density", "--bundle", "schwarz-pole",
     "--pole", "-0.3,0.2", "--adjust", "-0.1,-0.1"],
])
def test_values_starting_with_minus_take_either_form(capsys, disk_file, argv):
    # "--z -0.5,0.2" is the same as "--z=-0.5,0.2", not an unknown option
    joined = []
    for token in argv:
        if token[:1] == "-" and token[1:2] != "-":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    spaced = run(capsys, argv[0], disk_file, "--n", "256", *argv[1:])
    assert spaced == run(capsys, joined[0], disk_file, "--n", "256", *joined[1:])
    assert spaced[0] == 0 and spaced[1] and not spaced[2]


def _cli_process(argv, stdout):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-m", "schwarzbundles.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_reader_closing_stdout_early_ends_quietly(disk_file):
    # like "| head -2": about 0.5 MB of lattice rows outgrow the pipe buffer,
    # so the writer is still printing when the reader goes
    proc = _cli_process(["plotdata", disk_file, "--quantity", "exp-transform-abs",
                         "--w", "3", "--grid", "-2:2:100,-2:2:100"], subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_FAILURE
    assert head[0] == b"x,y,abs_E\n" and head[1].startswith(b"-2,-2,")
    assert err == b""


def test_stdout_closed_before_the_last_flush_ends_quietly(disk_file):
    # a short answer sits in the buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(["validate", disk_file], write_end)
    os.close(write_end)
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == EXIT_FAILURE
    assert err == b""


def test_one_parser_serves_many_calls(capsys, disk_file, square_file):
    # the parser is built once per process; verbs run one after another in
    # it, with parse errors between them, answer as calls that each build
    # their own parser
    from schwarzbundles.cli import build_parser
    calls = [
        ["validate", disk_file],
        ["transform", disk_file, "--z", "2", "--w", "3", "--n", "256"],
        ["transform", disk_file, "--w", "3"],  # --z missing
        ["moments", disk_file, "--kmin", "-2", "--kmax", "2", "--format", "csv"],
        ["section", disk_file, "--bundle", "no-such-bundle"],
        ["section", disk_file, "--bundle", "schwarz-pole", "--pole", "3"],
        ["quadrature", square_file, "--kind", "corner", "--f", "0;0;1"],
        ["rational-fit", disk_file, "--deg-q", "1", "--deg-p", "1", "--bogus"],
        ["rational-fit", disk_file, "--deg-q", "1", "--deg-p", "1"],
        ["plotdata", disk_file, "--quantity", "exp-transform-abs", "--w", "3",
         "--grid", "-2:2:5,-2:2:5"],
        ["validate", disk_file, "--format", "csv"],
    ]
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    separate = []
    for argv in calls:
        build_parser.cache_clear()
        separate.append(run(capsys, *argv))
    assert shared == separate
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0]
    assert all(out for code, out, _ in shared if code == 0)


@pytest.mark.parametrize("text", [
    '{"kind": "conformal", "coeffs": [[NaN, 0], [1, 0]], "rho": 0.5}',
    '{"kind": "conformal", "coeffs": [[0, 0], [Infinity, 0]], "rho": 0.5}',
    '{"kind": "conformal", "coeffs": [[0, 0], [1, 1e400]], "rho": 0.5}',
    '{"kind": "polygon", "vertices": [[0, 0], [1, 0], [NaN, 1], [0, 1]]}',
])
def test_non_finite_curve_data_is_a_parse_error(capsys, tmp_path, text):
    # used to print "valid": true with a NaN area and leak a RuntimeWarning
    path = tmp_path / "curve.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert "finite" in err


@pytest.mark.parametrize("curve, argv", [
    (DISK, ["moments", "--kmin", "1"]),
    (DISK, ["plotdata", "--quantity", "moments", "--kmin", "2"]),
    (SHIFTED_DISK, ["moments", "--kmin", "0", "--kmax", "4000", "--n", "256"]),  # 5^k overflows
    (DISK, ["moments", "--kmax", str(MAX_MOMENT_ORDER + 1)]),
    (DISK, ["moments", "--kmin", str(-MAX_MOMENT_ORDER - 1)]),
    (DISK, ["plotdata", "--quantity", "moments", "--kmax", str(MAX_MOMENT_ORDER + 1)]),
    (DISK, ["rational-fit", "--deg-q", "-1", "--deg-p", "1"]),
    (DISK, ["rational-fit", "--deg-q", "1", "--deg-p", "-1"]),
    (DISK, ["quadrature", "--kind", "classical", "--f", ";"]),
    (DISK, ["quadrature", "--kind", "classical", "--f", ""]),  # used to compute with f = 1
    (DISK, ["plotdata", "--quantity", "exp-transform-abs", "--w", "3",
            "--grid", "0:1:-2,0:1:2"]),
    (DISK, ["plotdata", "--quantity", "exp-transform-abs", "--w", "3",
            "--grid", "0:inf:2,0:1:2"]),
    (DISK, ["transform", "--z", "2", "--tol", "0"]),
    (DISK, ["transform", "--z", "2", "--tol", "inf"]),
    (DISK, ["rational-fit", "--deg-q", "1", "--deg-p", "1",
            "--samples", str(MAX_FIT_SAMPLES + 1)]),
    # a count below 4 used to fit on 4 samples
    (DISK, ["rational-fit", "--deg-q", "1", "--deg-p", "1", "--samples", "-5"]),
    (DISK, ["rational-fit", "--deg-q", "1", "--deg-p", "1", "--samples", "0"]),
    (DISK, ["rational-fit", "--deg-q", "1", "--deg-p", "1", "--samples", "3"]),
    (DISK, ["plotdata", "--quantity", "exp-transform-abs", "--w", "3",
            "--grid", f"0:1:{MAX_GRID_POINTS // 2 + 1},0:1:2"]),
])
def test_out_of_range_arguments_are_parse_errors(capsys, tmp_path, curve, argv):
    path = tmp_path / "curve.json"
    path.write_text(curve)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("argv, message", [
    (["section", "--bundle", "schwarz-pole"], "schwarz-pole needs --pole"),
    (["section", "--bundle", "tangent-power"], "tangent-power needs --power"),
    (["plotdata", "--quantity", "exp-transform-abs"], "exp-transform-abs needs --w"),
    (["plotdata", "--quantity", "exp-transform-abs", "--w", "3", "--grid", "1:2:3"],
     "bad grid spec '1:2:3'"),
])
def test_missing_and_malformed_verb_arguments_are_parse_errors(capsys, disk_file, argv,
                                                               message):
    code, out, err = run(capsys, argv[0], disk_file, *argv[1:])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("kind", ["abelian", "arc-length"])
def test_quadrature_abelian_and_arc_length_on_the_disk(capsys, disk_file, kind):
    code, out, _ = run(capsys, "quadrature", disk_file, "--kind", kind, "--f", "1;2;1")
    assert code == 0
    assert json.loads(out)["discrepancy"] < 1e-9


def test_quadrature_threshold_reads_schwarz_tol(capsys, monkeypatch, disk_file):
    argv = ["quadrature", disk_file, "--kind", "classical", "--f", "1;2;1"]
    assert run(capsys, *argv)[0] == 0           # the verb's default, 1e-9
    monkeypatch.setenv("SCHWARZ_TOL", "1e-30")
    assert run(capsys, *argv)[0] == EXIT_FAILURE
    assert run(capsys, *argv, "--tol", "1e-3")[0] == 0  # the flag wins
    for bad in ("-1", "inf", "nan"):
        monkeypatch.setenv("SCHWARZ_TOL", bad)
        assert run(capsys, *argv)[0] == 2


def test_node_count_reads_schwarz_n(capsys, monkeypatch, disk_file):
    argv = ["transform", disk_file, "--z", "2"]
    monkeypatch.setenv("SCHWARZ_N", "1024")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["n"] == 1024
    code, out, _ = run(capsys, *argv, "--n", "256")  # the flag wins
    assert code == 0 and json.loads(out)["n"] == 256


@pytest.mark.parametrize("name", ["SCHWARZ_N", "SCHWARZ_TOL"])
def test_malformed_environment_configuration_is_a_parse_error(capsys, monkeypatch,
                                                              disk_file, name):
    monkeypatch.setenv(name, "abc")
    code, out, err = run(capsys, "transform", disk_file, "--z", "2")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: bad environment configuration")


@pytest.mark.parametrize("flag", [["--n", "256"], ["--tol", "1e-8"], ["--format", "csv"]])
def test_configuration_flags_follow_the_verb(capsys, disk_file, flag):
    code, out, err = run(capsys, *flag, "validate", disk_file)
    assert (code, out) == (2, "")
    assert f"flags follow the verb: {flag[0]}" in err


def test_band_refusal_cleared_by_finer_grids_is_no_convergence(capsys, disk_file):
    # 1.02 is in the band up to n = 1024 and answered from n = 2048, so a
    # tolerance that no grid meets runs out of budget instead of refusing
    code, out, err = run(capsys, "transform", disk_file, "--z", "1.02", "--tol", "1e-30")
    assert (code, out) == (EXIT_FAILURE, "")
    assert "no convergence up to n = 65536" in err


@pytest.mark.parametrize("argv, text", [
    (["section", "square", "--bundle", "exp-schwarz"], "grids are only defined"),
    (["rational-fit", "square", "--deg-q", "1", "--deg-p", "1"], "grids are only defined"),
    (["quadrature", "square", "--kind", "abelian"], "grids are only defined"),
    (["quadrature", "disk", "--kind", "corner"], "corner quadrature needs a polygon"),
])
def test_geometry_refusals_come_from_the_library(capsys, disk_file, square_file,
                                                 argv, text):
    files = {"disk": disk_file, "square": square_file}
    code, out, err = run(capsys, argv[0], files[argv[1]], *argv[2:])
    assert (code, out) == (5, "")
    assert err.startswith("incompatible geometry: ") and text in err


@pytest.mark.parametrize("argv", [
    ["validate"], ["transform", "--z", "2"], ["moments"],
    ["section", "--bundle", "exp-schwarz"], ["quadrature", "--kind", "classical"],
    ["rational-fit", "--deg-q", "1", "--deg-p", "1"],
    ["plotdata", "--quantity", "moments"],
    ["quadrature", "--kind", "corner"],  # on the polygon, which samples no grid
])
@pytest.mark.parametrize("n", ["0", "7", "48"])
def test_node_count_not_a_power_of_two_is_refused(capsys, disk_file, square_file, argv, n):
    path = square_file if "corner" in argv else disk_file
    code, out, err = run(capsys, argv[0], path, "--n", n, *argv[1:])
    assert (code, out) == (EXIT_FAILURE, "")
    assert "power of two" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("n", [2 ** 17, 2 ** 32, 2 ** 60])
def test_node_count_beyond_the_cap_is_refused_before_any_grid(capsys, monkeypatch,
                                                              disk_file, source, n):
    def no_grid(*args):
        raise AssertionError("a grid was allocated")

    # every grid, the curve's and its rings, is built by `_ring`
    monkeypatch.setattr(sb.curve, "_ring", no_grid)
    argv = ["transform", disk_file, "--z", "2"]
    if source == "env":
        monkeypatch.setenv("SCHWARZ_N", str(n))
    else:
        argv += ["--n", str(n)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_FAILURE, "")
    assert f"node count {n} exceeds the cap 65536" in err


@pytest.mark.parametrize("spec", [
    '{"kind": "conformal", "coeffs": [[0, 0], [1e200, 0]], "rho": 0.5}',
    '{"kind": "conformal", "coeffs": [[1e200, 0], [1, 0]], "rho": 0.5}',  # circle
    '{"kind": "conformal", "coeffs": [[0, 0], [1, 0], [1e155, 0]], "rho": 0.5}',
    '{"kind": "polygon", "vertices": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]}',
    '{"kind": "conformal", "coeffs": [[0, 0], [1e150, 0]], "rho": 0.5}',
], ids=["disk-1e200", "circle-1e200", "map-1e155", "square-1e200", "disk-1e150"])
def test_large_finite_coefficients_validate_finitely(capsys, tmp_path, spec):
    path = tmp_path / "big.json"
    path.write_text(spec)
    code, out, _ = run(capsys, "validate", str(path))
    assert code in range(6)
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.filterwarnings("error")
def test_polygon_area_near_the_float_limit_is_finite(capsys, tmp_path):
    # extent^2 = 1.44e308 is finite, but the shoelace terms sum to 2.88e308
    path = tmp_path / "diamond.json"
    path.write_text('{"kind": "polygon", "vertices": '
                    '[[1.2e154, 0], [0, 1.2e154], [-1.2e154, 0], [0, -1.2e154]]}')
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["area_over_pi"] == pytest.approx(2.0 / np.pi * 1.2e154 * 1.2e154,
                                                            rel=1e-15)


@pytest.mark.parametrize("argv", [
    ["transform", "--z", "2"], ["moments"], ["quadrature", "--kind", "classical"],
])
def test_squared_extent_overflow_is_a_parse_error(capsys, tmp_path, argv):
    path = tmp_path / "big.json"
    path.write_text('{"kind": "conformal", "coeffs": [[0, 0], [1, 0], [1e155, 0]], "rho": 0.5}')
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert "overflows when squared" in err


@pytest.mark.parametrize("coeffs, argv", [
    ([[0, 0], [1e150, 0]], ["quadrature", "--kind", "classical", "--f", "0;0;1"]),
    ([[0, 0], [1e150, 0], [3e149, 0]], ["quadrature", "--kind", "classical", "--f", "1;2;1"]),
    ([[0, 0], [1e150, 0], [3e149, 0]],
     ["rational-fit", "--deg-q", "0", "--deg-p", "1", "--samples", "12", "--format", "csv"]),
], ids=["disk-z2", "cardioid-quadratic", "cardioid-fit"])
def test_overflowing_values_are_refused(capsys, tmp_path, coeffs, argv):
    # a curve of scale 1e150 is valid, but z^2 conj(z) or the fit's F matrix
    # leave the floating-point range: a refusal, not inf or NaN on stdout
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "conformal", "coeffs": coeffs, "rho": 0.7}))
    code, out, err = run(capsys, argv[0], str(path), "--n", "256", *argv[1:])
    assert (code, out) == (EXIT_FAILURE, "")
    assert "overflow" in err


def _refusal_chain(exc):
    """(exit code, stderr label) of a refusal, written out as the chain of
    isinstance tests the README's exit codes describe, apart from the table."""
    if isinstance(exc, ParseError):
        return 2, "parse error"
    if isinstance(exc, NearBoundaryError):
        return 3, "near-boundary refusal"
    if isinstance(exc, BranchUnresolvedError):
        return 4, "branch unresolved"
    if isinstance(exc, (NotConformalMapCurveError, TangentNotMeromorphicError)):
        return 5, "incompatible geometry"
    return 1, "error"


@pytest.fixture
def raising_validate(monkeypatch):
    """Make the validate verb raise the given exception; the cached parser,
    which holds the verb, is rebuilt around the patch and after it."""
    def install(exc):
        def verb(args, curve):
            raise exc
        monkeypatch.setattr(cli, "cmd_validate", verb)
        cli.build_parser.cache_clear()
    yield install
    monkeypatch.undo()
    cli.build_parser.cache_clear()


REFUSAL_CLASSES = [cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, SchwarzBundleError)]


@pytest.mark.parametrize("kind", REFUSAL_CLASSES + [FloatingPointError],
                         ids=lambda kind: kind.__name__)
def test_refusals_table_gives_the_exit_code_and_label_of_each_class(
        capsys, disk_file, raising_validate, kind):
    raising_validate(kind("boom"))
    code = cli._dispatch(["validate", disk_file])
    captured = capsys.readouterr()
    want_code, want_label = _refusal_chain(kind("boom"))
    assert (code, captured.out, captured.err) == (want_code, "", f"{want_label}: boom\n")


def test_a_class_no_refusal_row_names_propagates(disk_file, raising_validate):
    raising_validate(KeyError("boom"))
    with pytest.raises(KeyError):
        cli._dispatch(["validate", disk_file])


def test_quadrature_kinds_are_the_table_and_corner():
    quadrature = cli.build_parser()._subparsers._group_actions[0].choices["quadrature"]
    kind = next(action for action in quadrature._actions if action.dest == "kind")
    assert kind.choices == (*QUADRATURES, "corner")


def test_a_constant_map_is_refused(capsys, tmp_path):
    path = tmp_path / "constant.json"
    path.write_text('{"kind": "conformal", "coeffs": [[1, 0]], "rho": 0.5}')
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert "degree at least one" in err


def test_a_curve_file_holding_an_array_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("where", ["missing.json", "."], ids=["missing", "directory"])
def test_an_unreadable_curve_path_is_a_parse_error(capsys, tmp_path, where):
    code, out, err = run(capsys, "validate", str(tmp_path / where))
    assert (code, out) == (2, "")
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    ["moments", "--n", "256", "--kmin", "-257"],
    ["moments", "--n", "256", "--kmin", "-256"],
    ["plotdata", "--quantity", "moments", "--kmin", "-258"],
    ["plotdata", "--quantity", "moments", "--kmin", "-256"],
], ids=["moments-257", "moments-256", "plotdata-258", "plotdata-256"])
def test_an_order_the_grid_aliases_is_a_parse_error(capsys, disk_file, argv):
    # on n nodes of the unit circle the trapezoidal M_{-n} is 1, not 0
    code, out, err = run(capsys, argv[0], disk_file, *argv[1:])
    assert (code, out) == (2, "")
    assert "aliases on 256 nodes; n = 512 or more answers it" in err


def test_moments_refine_from_above_the_lowest_order(capsys, monkeypatch, disk_file):
    # the refinement starts at the least power of two above |kmin|, so no
    # grid it samples aliases the order kmin
    sizes = []
    sample = sb.curve.sample
    monkeypatch.setattr(sb.curve, "sample", lambda curve, n: sizes.append(n) or sample(curve, n))
    code, out, _ = run(capsys, "moments", disk_file, "--kmin", "-300", "--kmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 512 and min(sizes) == 512
    values = {row["k"]: complex(*row["value"]) for row in payload["moments"]}
    assert abs(values.pop(0) - 1) <= 1e-15
    assert max(map(abs, values.values())) <= 1e-13


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plotdata_takes_no_format(capsys, disk_file, fmt):
    # plotdata prints CSV only; --format json used to be accepted and ignored
    code, out, err = run(capsys, "plotdata", disk_file, "--quantity", "moments", "--format", fmt)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format" in err
