"""Every script under scripts/ runs to completion against the package, so a
change to the public API cannot break one silently."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schwarzbundles as sb
import oracles

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# arguments that keep a script's run short; the others run with their defaults
ARGS = {"polygon_timing.py": ["1", "100", "300"], "tangent_sign_margin.py": ["101", "50"],
        "moment_orders.py": ["64"], "spectral_verify_bound.py": ["512", "1"],
        "heap_faults.py": ["2"], "closed_rows.py": ["1"], "csv_render.py": ["2"],
        "pole_columns.py": ["1"]}


@functools.cache
def _run(name):
    """The script's run with its ARGS and warnings as errors, made once per
    session so that a test of its output does not start it again."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", str(ROOT / "scripts" / name),
                           *ARGS.get(name, [])],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script):
    proc = _run(script.name)
    assert proc.returncode == 0, proc.stderr


def test_code_lines_lists_every_module_and_their_total():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = {name: int(count) for count, name in rows[:-1]}
    assert set(modules) == {str(p.relative_to(ROOT / "src"))
                            for p in (ROOT / "src").rglob("*.py")}
    assert rows[-1] == [str(sum(modules.values())), "total"]
    assert 0 < modules["schwarzbundles/quaddom.py"] < len(
        (ROOT / "src" / "schwarzbundles" / "quaddom.py").read_text().splitlines())


def test_section_passes_counts_one_unwrap_per_verification_ring():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "section_passes.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    # unwrap_log/transition_at_nodes/sides/kernel_sums/phi_reflected per
    # step: chern_class, canonical_section, annulus_verification_points,
    # verify_transition and verify_transition again. A built-in bundle's
    # class is stored, and its section and check are its Laurent modes: no
    # unwrap, transition value or Schwarz function, and one side decision,
    # with no kernel pass, for a Chern class 1 adjustment point clear of the
    # nodes' annulus. The verification points take one side decision per
    # radius, with a kernel pass only where the nodes' annulus leaves some
    # of them unplaced (none on the disk), and verify_transition takes their
    # sides from that search. A custom bundle unwraps its transition once
    # for its class, once for its class and section together, and once per
    # verification ring; every bundle places a Chern class 1 adjustment
    # point on each ring by its preimage, with no decision; a second call
    # makes the same calls
    search = "0/0/{}/{}/0"
    expected = {"exp-schwarz": ["0/0/0/0/0", "0/0/0/0/0", search, "0/0/0/0/0", "0/0/0/0/0"],
                "pole-exterior": ["0/0/0/0/0", "0/0/0/0/0", search, "0/0/0/0/0", "0/0/0/0/0"],
                "pole-interior": ["0/0/0/0/0", "0/0/1/0/0", search, "0/0/0/0/0", "0/0/0/0/0"],
                "tangent-m-1": ["0/0/0/0/0", "0/0/1/0/0", search, "0/0/0/0/0", "0/0/0/0/0"],
                "tangent-m2": ["0/0/0/0/0", "-", "-", "-", "-"],
                "custom-exp-schwarz": ["1/1/0/0/1", "1/1/0/0/1", search, "2/2/0/0/2",
                                       "2/2/0/0/2"],
                "custom-tangent": ["1/1/0/0/0", "1/1/1/0/0", search, "2/2/0/0/0", "2/2/0/0/0"]}
    # (side decisions, kernel passes) of the search, one decision per radius
    radii = {"disk": (1, 0), "cardioid": (6, 6), "quartic": (3, 3)}
    assert {(row[0], row[1]): row[2:] for row in rows} == {
        (curve, kind): [cell.format(*counts) for cell in cells]
        for curve, counts in radii.items() for kind, cells in expected.items()}


def test_workload_passes_counts_the_steady_cycles_kernel_passes():
    # a steady `sections` cycle decides 12 adjustment points, every one
    # clear of the nodes' annulus, with no band test and no kernel pass; a
    # `sweep` cycle tests the two lattices' unplaced rows against node
    # blocks at n = 1024, taking far fewer candidate nodes than a pass's
    # rows times n, and at seed 1 finds every one in the band: no kernel
    # pass. Each lattice's w and each fit's samples are clear, and a fit's
    # F takes no pass
    proc = _run("workload_passes.py")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    assert rows["sections"] == ["sides", "12", "kernel_sums", "0", "rows", "-", "n", "-",
                                "near_rows", "0", "tested", "-", "candidates", "-"]
    sweep = rows["sweep"]
    assert sweep[:8] == ["sides", "6", "kernel_sums", "0", "rows", "-", "n", "-"]
    assert sweep[8:10] == ["near_rows", "2"] and sweep[12] == "candidates"
    tested = [int(r) for r in sweep[11].split(",")]
    candidates = [int(r) for r in sweep[13].split(",")]
    assert len(tested) == 2 and all(0 < r < 1600 for r in tested)
    assert all(0 < c < r * 1024 // 8 for r, c in zip(tested, candidates))


def test_heap_faults_reports_every_op_and_the_batch_peak():
    proc = _run("heap_faults.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    per_op = {row[1]: float(row[2]) for row in rows if row[0] == "faults_per_op"}
    assert set(per_op) == {"lattice/w-exterior", "lattice/w-interior", "fit/cardioid",
                           "fit/quartic", "moment-check"}
    assert all(count >= 0.0 for count in per_op.values())
    # a fit's arrays stay below glibc's initial mmap threshold: it faults
    # no page per call, alone before any lattice and after the lattices
    alone = {row[1]: float(row[2]) for row in rows if row[0] == "fits_only_faults_per_op"}
    assert alone == {"fit/cardioid": 0.0, "fit/quartic": 0.0}
    assert per_op["fit/cardioid"] == per_op["fit/quartic"] == 0.0
    totals = {row[0]: float(row[1]) for row in rows if len(row) == 2}
    assert set(totals) == {"faults_per_cycle", "batch_peak_mb"}
    assert totals["faults_per_cycle"] == pytest.approx(sum(per_op.values()), abs=0.02)
    # the lattice's unclosed rows are in the band, decided from node
    # blocks: no density and no kernel pass's four 1 MB buffers (n = 1024),
    # and the closed rows' tables are small
    assert 0.0 < totals["batch_peak_mb"] < 0.5


def test_pole_columns_reports_the_fit_f_routes_against_the_closed_rows():
    # both `sweep` fits: the modes F at m < n nodes, a power of two, and the
    # kernel F both within 1e-14 of the per-sample closed rows
    proc = _run("pole_columns.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [("cardioid", "12"), ("quartic", "24")]
    for row in rows:
        *micros, m, kernel_diff, modes_diff = row[-7:]
        assert all(float(t) > 0.0 for t in micros)
        assert 16 <= int(m) < 512 and int(m) & (int(m) - 1) == 0
        assert float(kernel_diff) < 1e-14 and float(modes_diff) < 1e-14


def test_closed_rows_reports_every_lattice_within_the_bound():
    proc = _run("closed_rows.py")
    assert proc.returncode == 0, proc.stderr
    lattices = proc.stdout.split("\n\n")[0]
    rows = [line.split() for line in lattices.splitlines()[2:]]
    found = {(row[0], int(row[1]), row[3]): row for row in rows}
    curves = {"disk", "cardioid", "quartic", "taylor-6", "taylor-12", "taylor-30"}
    # every lattice at both n and each w off the band: the degree-12 curve's
    # interior w lies in its band at n = 256
    every = {(name, n, w) for name in curves for n in (256, 1024)
             for w in ("interior", "exterior", "far")}
    assert set(found) == every - {("taylor-12", 256, "interior")}
    for (name, n, _), row in found.items():
        outside, inside, direct = map(int, row[4:7])
        assert outside + inside + direct == 1600
        # rows clear of the nodes' annulus are closed outside at every
        # degree, inside on the disk alone
        assert outside > 1000 and (inside > 200) == (name == "disk")
        assert float(row[7]) < 1.0


def test_closed_rows_one_point_table_is_within_the_oracle_bound():
    # each quadrant on the disk, the cardioid and the quartic: z clear of the
    # nodes' annulus is closed (inside only at degree 1), the rest take the
    # kernel pass, and every C is within double_cauchy_bound of the
    # one-point oracle on the grid the script used
    proc = _run("closed_rows.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.split("\n\n")[1].splitlines()[2:]]
    curves = {"disk": [0, 1], "cardioid": [0, 1, 0.3],
              "quartic": [0.1 + 0.05j, 1, 0.15, 0.08j, 0.03]}
    rhos = {"disk": 0.5, "cardioid": 0.7, "quartic": 0.72}
    assert {(row[0], row[1]) for row in rows} == {
        (name, quadrant) for name in curves
        for quadrant in ("ext:ext", "ext:int", "int:ext", "int:int")}
    for name, quadrant, route, micros, *numbers in rows:
        assert route == ("closed" if quadrant.startswith("ext") or name == "disk" else "kernel")
        assert float(micros) > 0.0
        re_z, im_z, re_w, im_w, re_c, im_c = map(float, numbers)
        grid = sb.sample(sb.build_polynomial_curve(curves[name], rhos[name]), 1024)
        z, w, c = complex(re_z, im_z), complex(re_w, im_w), complex(re_c, im_c)
        want = oracles.double_cauchy_one_point(grid, z, w)
        assert abs(c - want) <= oracles.double_cauchy_bound(grid, z, w, want)
