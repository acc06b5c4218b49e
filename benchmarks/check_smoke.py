"""Self-tests of the benchmark on its reduced-size smoke inputs.

    python -m pytest -q benchmarks/check_smoke.py

The file name keeps the tests out of the package's own `pytest` run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as run_py  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# every workload run.py offers, including queries, which BENCHMARK.json does
# not gate
WORKLOADS = run_py.WORKLOADS
# ops allowed to fail: `transform --z nan` should exit 2 (parse error) but
# refines to the node budget and exits 1
KNOWN_FAILURES = {"refuse/z-nan"}


def run(workload, seed=3, trace=0, cwd=ROOT, smoke=True):
    argv = [sys.executable, str(Path("benchmarks") / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_ops(proc):
    return {line.split()[1] for line in proc.stderr.splitlines()
            if line.startswith("op ") and " failed: " in line}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run(workload)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert failed_ops(proc) <= KNOWN_FAILURES
    assert result["failed"] == 0 or failed_ops(proc)
    env = json.loads(proc.stdout.strip().splitlines()[-2].lstrip("# "))
    assert env["seed"] == 3 and env["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, trace=1)) for _ in range(2))
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(first["metrics"]) == names
    exact = [n for n in names if n.endswith(tracing.EXACT_SUFFIXES)]
    assert {"transforms.cauchy_integral.node_evals", "curve.sample.nodes",
            "transforms.cauchy_integral.bytes_computed"} <= set(exact)
    assert {n: first["metrics"][n] for n in exact} == \
        {n: second["metrics"][n] for n in exact}


def test_traced_layers_match_the_workload_design():
    sweep = result_of(run("sweep", trace=1))["metrics"]
    assert sweep["schwarz.invert_conformal_map.calls"]["value"] == 0
    assert sweep["transforms.unwrap_log.repeat_frac"]["value"] > 0.5
    sections = result_of(run("sections", trace=1))["metrics"]
    assert sections["schwarz.invert_conformal_map.at_nodes_frac"]["value"] > 0.5
    queries = result_of(run("queries", trace=1))
    layers = queries["metrics"]
    # one untraced and one traced cycle; every query is one CLI call
    assert layers["cli.main.calls"]["value"] == queries["attempted"] / 2
    assert 0 < layers["curve.adaptive_refine.useful_node_frac"]["value"] < 1


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("sweep", cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_moves_positions_only():
    a, b = (wl.curve_specs(np.random.default_rng([seed, 0])) for seed in (1, 2))
    assert a != b
    assert a == wl.curve_specs(np.random.default_rng([1, 0]))
    assert [len(spec.get("coeffs", spec.get("vertices"))) for spec in a.values()] == \
        [len(spec.get("coeffs", spec.get("vertices"))) for spec in b.values()]
