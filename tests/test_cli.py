import json

import pytest

import schwarzbundles as sb
from schwarzbundles.cli import main, parse_complex
from schwarzbundles.errors import ParseError

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


def test_section_verify_unplaceable_ring_is_a_band_refusal(capsys, disk_file):
    # the adjustment point 0.9 lies in the inner verification ring's band
    code, out, err = run(capsys, "section", disk_file, "--bundle", "schwarz-pole",
                         "--pole", "0.9", "--verify", "--n", "512")
    assert code == 3
    assert out == "" and "refine the grid" in err


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
