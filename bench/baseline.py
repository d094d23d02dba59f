"""Record the baseline: ten untraced runs of every workload, one seed each,
plus one traced run per workload.

    python3 bench/baseline.py

It writes bench/baseline.json. For each end-to-end metric it stores the ten
values, their median and quartiles, and the spread (interquartile range over
median) that a bound must exceed. The `cross_check` counts of the traced
runs are what later traced runs compare against. Each run measures for
`run_seconds` of BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import ROUNDS, RUN_SECONDS, WORKLOADS, git_commit  # noqa: E402

RUNS = 10
# Deterministic counts of the traced run: a change to them means the search
# itself changed, not its speed.
CROSS_CHECK = [
    "tableau.nodes",
    *(f"extraction.rebuild_nodes.r{k}" for k in range(1, ROUNDS + 1)),
    "tableau.cert_bytes",
    "tableau.or_attempts",
    "formulas.complement_calls",
    "kripke.oracle_calls",
]


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    doc = {
        "commit": git_commit(),
        "runs": RUNS,
        "seconds": RUN_SECONDS,
        "seeds": list(range(1, RUNS + 1)),
        "end_to_end": {},
        "per_layer": {},
        "cross_check": {},
    }
    for name in WORKLOADS:
        runs = [one_run(name, s, 0) for s in doc["seeds"]]
        doc["end_to_end"][name] = {
            metric: summary([r[metric] for r in runs]) for metric in runs[0]
        }
        for metric, s in doc["end_to_end"][name].items():
            print(f"{name:9s} {metric:15s} median {s['median']:.6g} spread {s['spread']:.3f}")
        traced = one_run(name, 1, 1)
        doc["per_layer"][name] = traced
        doc["cross_check"][name] = {k: traced[k] for k in CROSS_CHECK}
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
