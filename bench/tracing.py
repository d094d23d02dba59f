"""Span tracing from outside the program.

The traced run replaces the names that foml's modules import from one
another (and the package names the benchmark calls) with wrappers that
record a span per call: name, start, end, parent span and op id. Spans stay
in memory and are reduced to per-layer metrics when the pass ends. The
per-node hot functions (`is_closed`, `nnf_complement`, `formula_key`) get
counters instead of spans, so tracing stays cheap where calls are counted in
millions.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

# (module, attribute, span name). A name is wrapped in the module that calls
# it, so intra-package calls (e.g. extraction -> tableau.search) are seen.
SPANS = [
    ("foml", "parse_formula", "parser.parse"),
    ("foml.tableau", "parse_formula", "parser.parse"),
    ("foml.tableau", "print_formula", "parser.print"),
    ("foml", "to_nnf", "formulas.normalize"),
    ("foml", "clean_rename", "formulas.normalize"),
    ("foml.tableau", "classify_fragment", "formulas.classify"),
    ("foml", "search", "tableau.search"),
    ("foml.extraction", "search", "tableau.search"),
    ("foml.tableau", "expand_forest", "forest.expand"),
    ("foml.extraction", "extend_forest", "forest.extend"),
    ("foml", "verify_tableau", "tableau.verify"),
    ("foml", "certificate_to_json", "tableau.cert_write"),
    ("foml", "certificate_from_json", "tableau.cert_read"),
    ("foml", "extract_model", "extraction.extract"),
    ("foml.extraction", "extract_model", "extraction.extract"),
    ("foml", "find_leaf_violations", "extraction.violations"),
    ("foml.extraction", "find_leaf_violations", "extraction.violations"),
    ("foml.extraction", "extend_tableau", "extraction.rebuild"),
    ("foml", "iterate_extensions", "extraction.iterate"),
    ("foml", "trace_to_ndjson", "extraction.trace_write"),
    ("foml", "check", "kripke.check"),
    ("foml.extraction", "check", "kripke.check"),
    ("foml", "validate_model", "kripke.validate"),
    ("foml", "bounded_model_search", "kripke.oracle"),
    ("foml", "model_to_json", "kripke.model_write"),
]
GENERATORS = [("foml.tableau", "enumerate_forests", "forest.enumerate")]
COUNTERS = [
    ("foml.tableau", "nnf_complement", "formulas.complement_calls"),
    ("foml.tableau", "formula_key", "formulas.key_calls"),
]
TIMED_COUNTERS = [
    ("foml.tableau", "is_closed", "tableau.closed"),
    ("foml.extraction", "is_closed", "tableau.closed"),
]
# Corpus generation happens during set-up, so it is traced on its own.
SETUP_SPANS = [("foml", "gen_formula", "testgen.gen")]

ROOT = "bench.pass"

# Fields of a span record.
NAME, START, END, PARENT, OP, RESULT, ERROR = range(7)


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, list] = {}
        self.op = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, result=None, error=None) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[RESULT] = result
        span[ERROR] = error
        self.stack.pop()

    def cell(self, name: str) -> list:
        return self.counts.setdefault(name, [0, 0.0])


def _keep(name: str, result):
    """The part of a call's result the layer metrics need, nothing more."""
    if name == "tableau.search":
        return (result.status, result.stats)
    if name == "tableau.cert_write":
        # json.dumps escapes every non-ASCII character: length is size in bytes.
        return len(result)
    return None


def span_wrapper(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, error=type(exc).__name__)
            raise
        rec.close(idx, result=_keep(name, result))
        return result

    traced.__wrapped__ = fn
    return traced


def generator_wrapper(rec: Recorder, name: str, fn):
    """Each resumption of the generator is one span; yields are counted."""
    candidates = rec.cell("forest.candidates")

    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = rec.open(name)
            try:
                item = next(inner)
            except StopIteration:
                rec.close(idx)
                return
            except BaseException as exc:
                rec.close(idx, error=type(exc).__name__)
                raise
            rec.close(idx)
            candidates[0] += 1
            yield item

    traced.__wrapped__ = fn
    return traced


def counter_wrapper(rec: Recorder, name: str, fn):
    cell = rec.cell(name)

    def counted(arg):
        cell[0] += 1
        return fn(arg)

    counted.__wrapped__ = fn
    return counted


def timed_counter_wrapper(rec: Recorder, name: str, fn):
    cell = rec.cell(name)

    def timed(arg):
        t0 = perf_counter()
        try:
            return fn(arg)
        finally:
            cell[0] += 1
            cell[1] += perf_counter() - t0

    timed.__wrapped__ = fn
    return timed


PASS_PLAN = (
    [(m, a, n, span_wrapper) for m, a, n in SPANS]
    + [(m, a, n, generator_wrapper) for m, a, n in GENERATORS]
    + [(m, a, n, counter_wrapper) for m, a, n in COUNTERS]
    + [(m, a, n, timed_counter_wrapper) for m, a, n in TIMED_COUNTERS]
)
SETUP_PLAN = [(m, a, n, span_wrapper) for m, a, n in SETUP_SPANS]


class installed:
    """Context manager: wrap the traced names of a plan while it is open."""

    def __init__(self, rec: Recorder, plan=PASS_PLAN):
        self.rec = rec
        self.plan = plan
        self.saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, name, make in self.plan:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, make(self.rec, name, original))
        return self.rec

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and strictly nested, so children of one span
    never overlap and their durations can simply be summed.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_time_check(metrics: dict[str, float], untraced: float) -> tuple[float, float, bool]:
    """The layers' self times against the untraced pass.

    The layers' sum leaves out the pass's own span (`bench.pass`), which
    holds the benchmark's glue. Returns that sum, its distance from the
    untraced total, and whether the distance is within the trace overhead.
    """
    layers = metrics["trace.self_sum_s"] - metrics["trace.unattributed_s"]
    gap = abs(layers - untraced)
    return layers, gap, gap <= abs(metrics["trace.overhead_s"])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated; 0 when there are no values."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics."""
    spans = rec.spans
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def self_s(name):
        return by_name.get(name, 0.0)

    searches = [i for i, s in enumerate(spans) if s[NAME] == "tableau.search"]
    rebuilds = [i for i, s in enumerate(spans) if s[NAME] == "extraction.rebuild"]
    under_rebuild = {i: [] for i in rebuilds}
    all_nodes = verdict_nodes = 0
    totals = {"or_attempts": 0, "forest_attempts": 0, "memo_hits": 0, "exhausted": 0}
    for i in searches:
        status, stats = spans[i][RESULT] or ("error", None)
        if stats is None:
            continue
        all_nodes += stats.nodes
        totals["or_attempts"] += stats.or_attempts
        totals["forest_attempts"] += stats.forest_attempts
        totals["memo_hits"] += stats.memo_hits
        totals["exhausted"] += status == "exhausted"
        parent = spans[i][PARENT]
        if parent in under_rebuild:
            under_rebuild[parent].append(stats.nodes)
        else:
            verdict_nodes += stats.nodes

    oracle_ms = [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "kripke.oracle"]
    closed = rec.cell("tableau.closed")
    search_s = self_s("tableau.search")
    out = {
        "parser.parse_s": self_s("parser.parse"),
        "parser.parse_calls": calls.get("parser.parse", 0),
        "parser.print_s": self_s("parser.print"),
        "parser.print_calls": calls.get("parser.print", 0),
        "formulas.normalize_s": self_s("formulas.normalize"),
        "formulas.classify_s": self_s("formulas.classify"),
        "formulas.complement_calls": rec.cell("formulas.complement_calls")[0],
        "formulas.key_calls": rec.cell("formulas.key_calls")[0],
        "forest.enumerate_s": self_s("forest.enumerate"),
        "forest.candidates": rec.cell("forest.candidates")[0],
        "forest.expand_s": self_s("forest.expand"),
        "forest.expand_calls": calls.get("forest.expand", 0),
        "forest.extend_s": self_s("forest.extend"),
        "tableau.search_s": search_s,
        "tableau.searches": len(searches),
        "tableau.nodes": verdict_nodes,
        "tableau.nodes_per_s": all_nodes / search_s if search_s > 0 else 0.0,
        "tableau.or_attempts": totals["or_attempts"],
        "tableau.forest_attempts": totals["forest_attempts"],
        "tableau.memo_hits": totals["memo_hits"],
        "tableau.exhausted": totals["exhausted"],
        "tableau.closed_checks": closed[0],
        "tableau.closed_s": closed[1],
        "tableau.verify_s": self_s("tableau.verify"),
        "tableau.cert_write_s": self_s("tableau.cert_write"),
        "tableau.cert_bytes": sum(
            s[RESULT] for s in spans if s[NAME] == "tableau.cert_write" and s[RESULT]
        ),
        "tableau.cert_read_s": self_s("tableau.cert_read"),
        "extraction.extract_s": self_s("extraction.extract"),
        "extraction.violations_s": self_s("extraction.violations"),
        "extraction.iterate_s": self_s("extraction.iterate"),
        "extraction.trace_write_s": self_s("extraction.trace_write"),
        "extraction.rebuild_s": self_s("extraction.rebuild"),
    }
    # Node counts of the searches each extend_tableau call made, in order.
    per_round = [under_rebuild[i] for i in rebuilds]
    for k in range(rounds):
        out[f"extraction.rebuild_nodes.r{k + 1}"] = (
            sum(per_round[k]) if k < len(per_round) else 0
        )
    n = len(per_round)
    out["extraction.rebuild_searches"] = sum(map(len, per_round)) / n if n else 0.0
    out["extraction.guided_hit_ratio"] = (
        sum(len(v) == 1 for v in per_round) / n if n else 0.0
    )
    out.update(
        {
            "kripke.check_s": self_s("kripke.check"),
            "kripke.check_calls": calls.get("kripke.check", 0),
            "kripke.validate_s": self_s("kripke.validate"),
            "kripke.model_write_s": self_s("kripke.model_write"),
            "kripke.oracle_s": self_s("kripke.oracle"),
            "kripke.oracle_calls": len(oracle_ms),
            "kripke.oracle_resource": sum(
                1
                for s in spans
                if s[NAME] == "kripke.oracle" and s[ERROR] == "ResourceLimit"
            ),
            "kripke.oracle_p50_ms": percentile(oracle_ms, 50),
            "kripke.oracle_p99_ms": percentile(oracle_ms, 99),
            "trace.unattributed_s": self_s(ROOT),
            "trace.self_sum_s": sum(own),
        }
    )
    return out


_SUFFIX_UNITS = [("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_bytes", "B"), ("_ratio", "ratio")]


def layer_units(rounds: int) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = list(layer_metrics(Recorder(), rounds))
    names += ["testgen.gen_s", "trace.overhead_s"]
    return {
        n: next((u for suffix, u in _SUFFIX_UNITS if n.endswith(suffix)), "count")
        for n in names
    }
