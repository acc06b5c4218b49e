"""Every script under scripts/ runs to completion against the package, so a
change to the public API cannot break one silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# arguments that keep a script's run short; the others run with their defaults
ARGS = {"polygon_timing.py": ["1", "100", "300"], "tangent_sign_margin.py": ["101", "50"]}


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(script),
                           *ARGS.get(script.name, [])],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
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
    assert {row[0] for row in rows} == {"disk", "cardioid", "quartic"}
    # the verify_transition column: unwrap_log/transition_at_nodes/kernel_sums
    expected = {"exp-schwarz": "0/0/3", "pole-exterior": "2/2/3", "pole-interior": "2/2/5",
                "tangent-m-1": "2/2/5", "tangent-m2": "-"}
    assert {(row[0], row[1]): row[-1] for row in rows} == {
        (curve, kind): cell for curve in ("disk", "cardioid", "quartic")
        for kind, cell in expected.items()}
