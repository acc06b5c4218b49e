"""The CSV renderer against f"{x:.17g}" value by value, with no tolerance,
and the CLI's tables and `transform_values_to_csv` against the per-value
loops they replaced (`oracles`), byte for byte."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import schwarzbundles as sb
from schwarzbundles import cli, render

LO, HI = render.EXACT_RANGE
CARDIOID = '{"kind": "conformal", "coeffs": [[0,0],[1,0],[0.3,0]], "rho": 0.7}'


def rendered(values, blank_nan=False):
    """Each value's text through float_fields and csv_rows."""
    fields = render.float_fields(np.asarray(values, dtype=float), blank_nan)
    return render.csv_rows(fields).split("\n")[:-1]


def expected(values, blank_nan=False):
    return ["" if blank_nan and v != v else f"{v:.17g}" for v in map(float, values)]


def assert_renders(values, blank_nan=False):
    with np.errstate(all="raise"):  # as the CLI runs
        assert rendered(values, blank_nan) == expected(values, blank_nan)


inside = st.floats(LO, HI, exclude_max=True)
outside = st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not LO <= abs(x) < HI)
signed = st.builds(lambda x, negative: -x if negative else x, inside, st.booleans())


@given(st.lists(signed, max_size=60))
def test_the_exact_range_renders_as_format(values):
    assert_renders(values)


@given(st.lists(st.one_of(signed, outside), max_size=60), st.booleans())
def test_mixed_values_render_as_format_with_nan_blank(values, blank_nan):
    assert_renders(values, blank_nan)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=60))
def test_any_finite_value_renders_as_format(values):
    assert_renders(values)


def test_zeros_infinities_and_nan():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308, np.nextafter(LO, 0)]
    assert rendered(values) == ["0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324",
                                "-1e+308", "9.9999999999999991e-05"]
    assert rendered(values, blank_nan=True)[4] == ""
    assert_renders(values)


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-8, 20)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             np.nextafter(np.nextafter(powers, 0), 0)])
    assert_renders(np.concatenate([values, -values]))


@pytest.mark.parametrize("off", [-1, 1])
def test_an_exponent_estimate_one_off_is_corrected(monkeypatch, off):
    # np.log10 rounds, so near a power of ten its floor may be one off: the
    # exact range check of the product must mend an estimate one off either
    # way; here every estimate is (%.16e's exponent, the true one) + off
    monkeypatch.setattr(np, "log10", lambda a: np.array(
        [int(f"{v:.16e}".split("e")[1]) + off + 0.5 for v in a.tolist()]))
    powers = 10.0 ** np.arange(-4, 16)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             np.random.default_rng(3).uniform(LO, 100, 200)])
    assert_renders(values[(values >= LO) & (values < HI)])


def test_half_way_ties_round_to_even():
    # x = odd / 2^(d + 1) with k = 10 .. 14 has d + 1 = 17 - k fraction
    # digits, the last a 5: at %.17g's d digits it lies half way
    rng = np.random.default_rng(7)
    ties = []
    for k in range(10, 15):
        scale = 2 ** (17 - k)
        odd = 2 * rng.integers(10 ** k * scale // 2, 10 ** (k + 1) * scale // 2, 400) + 1
        ties += [int(o) / scale for o in odd]
    for x in ties:
        digits = Fraction(x) * 10 ** (16 - len(str(int(x))) + 1)
        assert digits.denominator == 2, x  # a true tie
    assert_renders(ties + [-x for x in ties])
    assert rendered([662585919944200.375]) == ["662585919944200.38"]


def test_integers_render_as_their_decimals():
    # the moments table prints its orders through the renderer
    k = np.arange(-4096, 4097)
    assert rendered(k) == [str(v) for v in k]


def test_csv_rows_broadcasts_fields_and_drops_the_padding():
    x = render.float_fields([1.5, -2.0])[None]
    y = render.float_fields([0.25, 3.0, 1e22])[:, None]
    tags = render.text_fields(["a", "bcd"])[None]
    assert render.csv_rows(x, y, tags) == (
        "1.5,0.25,a\n-2,0.25,bcd\n1.5,3,a\n-2,3,bcd\n1.5,1e+22,a\n-2,1e+22,bcd\n")
    assert render.csv_rows(render.float_fields([]), render.text_fields([])) == ""


def test_transform_values_csv_is_the_loops(disk_grid):
    tvs = [sb.double_cauchy(disk_grid, z, w)
           for z, w in [(2, 3), (0.5, 3), (0.3j, 0.2 - 0.1j), (-2.5 + 1e-5j, 0.1), (1e6, 3)]]
    assert sb.transform_values_to_csv(tvs) == oracles.transform_values_csv_loop(tvs)
    assert sb.transform_values_to_csv([]) == oracles.transform_values_csv_loop([])


@pytest.fixture
def cardioid_file(tmp_path):
    path = tmp_path / "cardioid.json"
    path.write_text(CARDIOID)
    return str(path)


def stdout(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("spec, w", [
    ("-2:2:40,-2:2:40", 3.0), ("-1:1:31,-1:1:30", 0.1 + 0.05j), ("-2:2:0,-2:2:5", 3.0),
    ("-2:2:7,-2:2:0", 3.0), ("1.5:4:25,1.5:4:25", -3 + 0.5j)],
    ids=["exterior-w", "interior-w-blanks", "no-columns", "no-rows", "default-grid"])
def test_plotdata_lattice_is_the_loop(capsys, cardioid_file, cardioid, spec, w):
    out = stdout(capsys, "plotdata", cardioid_file, "--quantity", "exp-transform-abs",
                 "--n", "256", f"--grid={spec}", f"--w={w.real},{w.imag}" if w.imag else
                 f"--w={w.real}")
    x0, x1, nx, y0, y1, ny = cli._parse_grid_spec(spec)
    xs, ys = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    zs = xs[None, :] + 1j * ys[:, None]
    cs = sb.double_cauchy_batch(sb.sample(cardioid, 256), zs, complex(w)).reshape(zs.shape)
    assert out == "\n".join(oracles.lattice_csv_lines(xs, ys, np.exp(cs.real))) + "\n"


@pytest.mark.parametrize("bundle", [[], ["--bundle", "schwarz-pole", "--pole", "0.2"]],
                         ids=["exp-schwarz", "pole"])
def test_plotdata_section_density_is_the_loop(capsys, cardioid_file, cardioid, bundle):
    out = stdout(capsys, "plotdata", cardioid_file, "--quantity", "section-density",
                 "--n", "512", *bundle)
    made = sb.schwarz_pole_bundle(cardioid, 0.2) if bundle else sb.exp_schwarz_bundle(cardioid)
    section = sb.canonical_section(made, sb.sample(cardioid, 512))
    assert out == oracles.table_csv_loop("t,re_density,im_density", section.grid.t,
                                         section.density.real, section.density.imag)


@pytest.mark.parametrize("argv", [
    ["moments", "--format", "csv", "--kmin", "-40", "--kmax", "300"],
    ["plotdata", "--quantity", "moments", "--kmin", "-3", "--kmax", "3000"]],
    ids=["moments", "plotdata"])
def test_moment_tables_are_the_loop(capsys, cardioid_file, cardioid, argv):
    out = stdout(capsys, argv[0], cardioid_file, "--n", "8192", *argv[1:])
    kmin, kmax = int(argv[-3]), int(argv[-1])
    table = sb.harmonic_moments(sb.sample(cardioid, 8192), kmin, kmax)
    assert out == oracles.moments_csv_loop(table)


def test_a_reader_gone_during_a_tables_one_block_ends_the_run(tmp_path):
    # 90 x 90 values are one block of about 0.45 MB, more than a pipe holds:
    # the block's write that the closed pipe cuts short returns with no
    # error, and the table's last newline, a write of its own, raises
    assert 90 * 90 <= cli.CSV_BLOCK
    path = tmp_path / "disk.json"
    path.write_text('{"kind": "conformal", "coeffs": [[0,0],[1,0]], "rho": 0.5}')
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "schwarzbundles.cli", "plotdata", str(path),
                             "--quantity", "exp-transform-abs", "--w", "3",
                             "--grid", "-2:2:90,-2:2:90"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == cli.EXIT_FAILURE
    assert head[0] == b"x,y,abs_E\n" and err == b""


# one CLI run that reports its peak resident kB on stderr; "loop" prints a
# lattice as the CLI printed it before its renderer: its list of lines,
# kept while their join is printed
PEAK_RUN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import oracles
from schwarzbundles import cli

def print_lines(header, lattice):
    lines = oracles.lattice_csv_lines(*lattice)
    print("\\n".join(lines))

if sys.argv[2] == "loop":
    cli._lattice_blocks = lambda xs, ys, abs_e: (xs, ys, abs_e)
    cli._print_csv = print_lines
code = cli.main(sys.argv[3:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def _peak_kb(version, argv):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", PEAK_RUN, str(tests), version, *argv],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          check=True, timeout=120, text=True)
    return int(proc.stderr)


@pytest.mark.parametrize("w", ["0.3", "-3,0.5"], ids=["interior-w", "exterior-w"])
def test_a_lattice_at_the_cap_peaks_no_higher_than_the_loop(tmp_path, w):
    path = tmp_path / "disk.json"
    path.write_text('{"kind": "conformal", "coeffs": [[0,0],[1,0]], "rho": 0.5}')
    argv = ["plotdata", str(path), "--quantity", "exp-transform-abs", "--w", w,
            "--grid", "-2:2:512,-2:2:512"]
    assert 512 * 512 == cli.MAX_GRID_POINTS
    assert _peak_kb("blocks", argv) <= _peak_kb("loop", argv)
