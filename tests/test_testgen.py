import json
import random

import pytest

from conftest import norm, subformulas
from foml.extraction import audit, extract_model
from foml.formulas import (
    EBBE,
    Forall,
    classify_fragment,
    is_clean,
    is_literal,
    is_nested_forall,
    is_nnf,
)
from foml.kripke import bounded_model_search, check
from foml.parser import parse_formula, print_formula
from foml.tableau import SAT, UNSAT, search
from foml.testgen import (
    GenConfig,
    certificate_read_back_problems,
    differential_run,
    gen_formula,
    report_to_jsonl,
)


def test_depth_one_draws_are_literals():
    for seed in range(5):
        phi = gen_formula(GenConfig(max_depth=1, seed=seed))
        assert is_literal(phi)


def test_draws_stay_inside_the_bundle():
    for seed in range(200):
        phi = gen_formula(GenConfig(seed=seed))
        assert is_nnf(phi)
        assert is_clean(phi)
        assert classify_fragment(phi).category == EBBE
        assert parse_formula(print_formula(phi)) == phi


def test_generation_is_deterministic_per_seed():
    for seed in (0, 7, 99):
        a = gen_formula(GenConfig(seed=seed))
        b = gen_formula(GenConfig(seed=seed))
        assert a == b
    assert gen_formula(GenConfig(seed=0)) != gen_formula(GenConfig(seed=1))


def test_generator_reaches_nested_universals_often():
    hits = 0
    for seed in range(1000):
        phi = gen_formula(GenConfig(seed=seed))
        if any(
            isinstance(f, Forall) and is_nested_forall(f) for f in subformulas(phi)
        ):
            hits += 1
    assert hits >= 20


def test_config_validation():
    with pytest.raises(ValueError, match="max_depth"):
        GenConfig(max_depth=0)


def test_fixed_verdicts_agree_with_oracle():
    contradiction = norm("P(x) & ~P(x)")
    assert search(contradiction).status == UNSAT
    assert bounded_model_search(contradiction, 2, 2, 2) is None

    witness = norm("<> forall x. exists y. [] P(x,y)")
    assert search(witness).status == SAT
    model, _, _ = bounded_model_search(witness, 2, 1, 2)
    assert len(model.worlds) <= 2


def test_empty_run():
    report = differential_run(GenConfig(seed=3), 0)
    assert report["records"] == []
    assert report["discrepancies"] == 0
    assert report["problem_records"] == 0


def test_small_corpus_is_clean():
    report = differential_run(GenConfig(seed=3), 25)
    assert report["seed"] == 3 and report["n"] == 25
    assert report["discrepancies"] == 0
    assert report["problem_records"] == 0
    assert len(report["records"]) == 25
    for rec in report["records"]:
        assert rec["ok"]
        assert rec["problems"] == [] and rec["discrepancy"] is None
        assert rec["tableau"] in ("sat", "unsat", "exhausted")
        assert rec["oracle"] in ("sat", "none", "resource")
        assert {"formula", "index", "tableau_ms", "oracle_ms"} <= set(rec)


def test_root_check_gate_flags_a_model_that_fails_theta(monkeypatch):
    """With no leaf violation left, the extracted model must satisfy theta
    at the root; a checker that rejects every compound formula trips it."""
    monkeypatch.setattr(
        "foml.extraction.check",
        lambda model, w, sigma, phi: is_literal(phi) and check(model, w, sigma, phi),
    )
    report = differential_run(GenConfig(seed=2026), 5, (1, 1, 1))
    sat = [rec for rec in report["records"] if rec["tableau"] == SAT]
    assert sat
    for rec in sat:
        assert rec["problems"] == ["no leaf violations remain but the root check fails"]


def test_report_jsonl_structure():
    report = differential_run(GenConfig(seed=3), 4)
    lines = [json.loads(l) for l in report_to_jsonl(report).splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["seed"] == 3 and lines[0]["n"] == 4
    assert [l["type"] for l in lines[1:-1]] == ["record"] * 4
    assert lines[-1] == {
        "type": "summary",
        "discrepancies": 0,
        "problem_records": 0,
        "ok": True,
    }


def test_flagship_passes_certificate_audits(phi1, phi1_result):
    t = phi1_result.tableau
    m0 = extract_model(t)
    model, violations, problems = audit(t, phi1)
    assert problems == []
    assert model == m0 and len(violations) == 1


def test_literal_audit_notices_missing_fact(monkeypatch, phi1, phi1_result):
    """With the first valuation entry, the facts of `P` at r.0.0.0, dropped
    from the flagship's model, the gate reports each literal there that
    stated one of them."""
    from dataclasses import replace

    t = phi1_result.tableau
    m0 = extract_model(t)
    key = next(k for k in sorted(m0.valuation) if m0.valuation[k])
    dropped = dict(m0.valuation)
    dropped.pop(key)
    weaker = replace(m0, valuation=dropped)
    monkeypatch.setattr("foml.extraction.extract_model", lambda tableau: weaker)
    assert key == ("r.0.0.0", "P")
    problems = audit(t, phi1)[2]
    assert [p for p in problems if p.endswith(" r.0.0.0")] == [
        "formula P(v0, v1) fails at r.0.0.0",
        "formula P(v0, v2) fails at r.0.0.0",
        "formula P(v1, v2) fails at r.0.0.0",
    ]


def test_read_back_audit_notices_another_tree(monkeypatch, phi1_result):
    """The audit `differential_run` applies to each SAT certificate fails
    when the certificate reads back to a tree other than the searched one,
    or does not read back at all."""
    t = phi1_result.tableau
    assert certificate_read_back_problems(t) == []
    other = search(norm("<> forall x. exists y. [] P(x,y)")).tableau
    monkeypatch.setattr("foml.testgen.certificate_from_json", lambda text: other)
    assert certificate_read_back_problems(t) == [
        "the certificate reads back to another tree"
    ]
    monkeypatch.undo()
    monkeypatch.setattr("foml.testgen.certificate_to_json", lambda tree: "{}")
    assert certificate_read_back_problems(t) == [
        "malformed certificate: 'or_choice'"
    ]
