"""Run the benchmark on several seeds and record medians and spreads.

    python3 benchmarks/record.py --seeds 1-10 --out benchmarks/BENCH_baseline.json

For each workload it makes one untraced run per seed, one traced run on the
first seed, and writes every result with, per end-to-end metric, the median
and the quartile spread (third minus first quartile over the median, as
`statistics.quantiles(values, n=4)` gives them). Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2].lstrip("# ")), json.loads(lines[-1])


def summary(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in args.seeds:
            env, result = run(workload, seed, 0)
            runs.append({"seed": seed, **result})
            record.setdefault("environment", {k: v for k, v in env.items()
                                              if k not in ("workload", "seed", "trace")})
            print(workload, seed, {k: round(v["value"], 6)
                                   for k, v in result["metrics"].items()}, flush=True)
        _, traced = run(workload, args.seeds[0], 1)
        record["workloads"][workload] = {
            "summary": summary(runs), "runs": runs,
            "traced": {"seed": args.seeds[0], **traced}}
        for name, s in record["workloads"][workload]["summary"].items():
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}")
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
