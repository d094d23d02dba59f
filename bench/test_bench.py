"""Self-tests of the benchmark: span arithmetic, metric lists and a tiny-size
smoke run of every workload. Run with `python3 -m pytest bench -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import ROUNDS, Corpus, Flagship  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent, result=None):
    return [name, start, end, parent, None, result, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),
        span("c", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_check_fails_when_glue_exceeds_the_overhead():
    m = {"trace.self_sum_s": 10.0, "trace.unattributed_s": 0.1, "trace.overhead_s": 0.3}
    layers, gap, within = tracing.self_time_check(m, untraced=9.7)
    assert layers == pytest.approx(9.9) and gap == pytest.approx(0.2) and within
    # Glue the layers do not account for: 1 s of the traced pass's 10 s.
    m["trace.unattributed_s"] = 1.0
    layers, gap, within = tracing.self_time_check(m, untraced=9.7)
    assert layers == pytest.approx(9.0) and gap == pytest.approx(0.7) and not within


def test_rebuild_searches_are_split_from_verdict_searches():
    class Stats:
        def __init__(self, nodes):
            self.nodes, self.or_attempts, self.forest_attempts = nodes, 2, 1
            self.memo_hits = 0

    rec = tracing.Recorder()
    rec.spans = [
        span(tracing.ROOT, 0.0, 10.0, -1),
        span("tableau.search", 0.0, 1.0, 0, ("sat", Stats(7))),
        span("extraction.rebuild", 1.0, 4.0, 0),
        span("tableau.search", 1.0, 2.0, 2, ("exhausted", Stats(100))),
        span("tableau.search", 2.0, 4.0, 2, ("sat", Stats(30))),
        span("extraction.rebuild", 4.0, 6.0, 0),
        span("tableau.search", 4.0, 6.0, 5, ("sat", Stats(50))),
    ]
    m = tracing.layer_metrics(rec, 3)
    assert m["tableau.nodes"] == 7
    assert [m[f"extraction.rebuild_nodes.r{k}"] for k in (1, 2, 3)] == [130, 50, 0]
    assert m["extraction.rebuild_searches"] == 1.5
    assert m["extraction.guided_hit_ratio"] == 0.5
    assert m["tableau.searches"] == 4
    assert m["tableau.exhausted"] == 1
    assert m["tableau.search_s"] == 6.0
    assert m["tableau.nodes_per_s"] == 187 / 6.0
    assert m["trace.self_sum_s"] == 10.0


def test_benchmark_json_lists_every_reported_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    units = tracing.layer_units(ROUNDS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize(
    "workload", [Flagship(rounds=1), Corpus(n=6)],
    ids=lambda w: w.name,
)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace, capsys):
    result = run.run(workload, seed=7, seconds=0.0, trace=trace)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["tableau.searches"] >= 1 and m["tableau.closed_checks"] >= 1
    # Every traced name is put back once the pass is over.
    for module_name, attr, *_ in tracing.PASS_PLAN:
        assert not hasattr(getattr(sys.modules[module_name], attr), "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flagship", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
