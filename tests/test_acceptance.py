"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is intentionally self-contained and reads as a statement of the
guarantee it pins down; `pytest -v` gives one pass/fail line per guarantee.
"""

import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (
    PHI1_TEXT,
    random_model,
    random_raw_formula,
    random_relevant_sigma,
    subformulas,
)
from oracles import (
    atoms_as_sets,
    brute_atoms,
    forest_shape,
    ref_components,
    ref_label_trees,
)
from foml.cli import main
from foml.extraction import (
    RESIDUAL,
    audit,
    extract_model,
    iterate_extensions,
    trace_to_ndjson,
)
from foml.forest import enumerate_forests
from foml.formulas import (
    Forall,
    clean_rename,
    enumerate_atoms,
    free_vars,
    is_clean,
    is_nested_forall,
    is_nnf,
    to_nnf,
)
from foml.kripke import bounded_model_search, check
from foml.parser import parse_formula, print_formula
from foml.tableau import (
    SAT,
    _parse_certificate,
    _pruned,
    certificate_to_json,
    replay_guidance,
    search,
)
from foml.testgen import GenConfig, differential_run, gen_formula

DATA = Path(__file__).parent / "data"
CORPUS_SEED = 2026
CORPUS_SIZE = 300
ORACLE_BOUNDS = (3, 2, 3)


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    report = differential_run(GenConfig(seed=CORPUS_SEED), CORPUS_SIZE, ORACLE_BOUNDS)
    return report, time.perf_counter() - t0


def test_flagship_sat_and_oracle_refutation(tmp_path, phi1):
    """The flagship formula is SAT quickly, yet no small tree model exists."""
    path = tmp_path / "phi1.foml"
    path.write_text(PHI1_TEXT, encoding="utf-8")
    runner = CliRunner()

    t0 = time.perf_counter()
    sat_result = runner.invoke(main, ["sat", str(path)])
    elapsed = time.perf_counter() - t0
    assert sat_result.exit_code == 0
    assert sat_result.output.splitlines()[0] == "SAT"
    assert elapsed < 60.0

    oracle_result = runner.invoke(
        main,
        ["oracle", str(path), "--max-worlds", "3", "--max-domain", "2", "--depth", "3"],
    )
    assert oracle_result.exit_code == 1
    assert oracle_result.output.strip() == "none"
    assert bounded_model_search(phi1, *ORACLE_BOUNDS) is None


def test_scripted_replay_matches_golden_certificate(phi1):
    """The checked-in certificate holds theta, the node count and the
    choices a replay would not make by itself: the forest and the six `or`
    picks of the right disjunct, and no diamond order, since every world's
    is in key order. Replaying those choices rebuilds a tree of that many
    nodes, with no state failed and so no other alternative tried, whose
    certificate is the checked-in one byte for byte, with the documented
    shape."""
    golden = (DATA / "phi1_certificate.json").read_text()
    assert len(golden) <= 1_549
    theta, nodes, guidance = _parse_certificate(golden)
    assert theta is phi1
    assert (len(guidance.or_choice), guidance.diamond_order) == (6, {})
    res = search(phi1, guidance=guidance)
    assert res.status == SAT
    assert res.stats.failed_at is None
    assert res.stats.nodes == nodes == sum(1 for _ in res.tableau.walk())
    assert _pruned(replay_guidance(res.tableau)) == guidance
    assert certificate_to_json(res.tableau) == golden

    forest = replay_guidance(res.tableau).forest[(0,)]
    assert [(n.name, n.parent) for n in forest.nodes] == [
        ("v0", None), ("v1", "v0"), ("v2", "v1"),
    ]
    model = extract_model(res.tableau)
    assert sorted(model.local_domain["r.0"]) == ["v0", "v1", "v2"]
    worlds = {w for w, _ in res.tableau.walk()}
    assert sum(1 for w in worlds if len(w) == 3 and w[:2] == (0, 0)) == 6


def test_extension_dynamics_through_five_rounds(phi1, phi1_result):
    """Each extension grows the forest domain by one at the chain's end,
    every snapshot extends the previous one, and the whole trace matches the
    pinned one (tests/data/regen_golden.py writes it) byte for byte."""
    model, trace, status = iterate_extensions(phi1, phi1_result.tableau, 5)
    pinned = (DATA / "phi1_trace5.jsonl").read_text(encoding="utf-8")
    assert trace_to_ndjson(trace) == pinned
    assert status == RESIDUAL
    assert [s.leaf for s in trace.steps] == ["v2", "v3", "v4", "v5", "v6"]
    for step, successor in zip(trace.steps, trace.steps[1:]):
        assert successor.leaf == step.fresh[0]
    assert [len(m.local_domain["r.0"]) for m in trace.snapshots] == [3, 4, 5, 6, 7, 8]
    assert [len(m.worlds) for m in trace.snapshots] == [23, 38, 57, 80, 107, 138]
    for old, new in zip(trace.snapshots, trace.snapshots[1:]):
        assert old.worlds <= new.worlds
        assert old.edges <= new.edges
        for w in old.worlds:
            assert old.local_domain[w] <= new.local_domain[w]
        for key, tuples in old.valuation.items():
            assert tuples <= new.valuation.get(key, frozenset())


def test_corpus_soundness_no_bad_certificates(corpus):
    """Every SAT verdict in the seeded corpus survives certificate
    re-verification, model validation, and the semantic gate, and
    its certificate reads back to the tree the search built, state for
    state (`differential_run` checks each)."""
    report, _ = corpus
    assert report["n"] == CORPUS_SIZE
    assert report["problem_records"] == 0
    for rec in report["records"]:
        assert rec["problems"] == []


def test_corpus_agrees_with_oracle(corpus):
    """No corpus formula gets a non-SAT verdict while the bounded oracle
    holds a model, and the whole run stays under ten minutes."""
    report, elapsed = corpus
    assert report["discrepancies"] == 0
    for rec in report["records"]:
        if rec["oracle"] == "sat":
            assert rec["tableau"] == "sat"
    assert elapsed < 600.0


def test_tail_corpus_agrees_with_oracle():
    """The deeper seed-7 corpus, whose UNSAT formulas make the oracle exhaust
    its whole space, has no discrepancy and no problem record."""
    report = differential_run(GenConfig(seed=7, max_depth=5), 300, ORACLE_BOUNDS)
    assert report["discrepancies"] == 0
    assert report["problem_records"] == 0


def test_enumerators_match_brute_force_references(phi1):
    """Atom and forest enumeration agree exactly with independent
    brute-force generators on every small component set."""
    pool = list(subformulas(phi1))
    for seed in range(50):
        pool.extend(subformulas(gen_formula(GenConfig(seed=seed))))
    atom_checks = forest_checks = 0
    for f in pool:
        if len(ref_components(f)) > 12:
            continue
        assert atoms_as_sets(enumerate_atoms(f)) == brute_atoms(f)
        atom_checks += 1
        if isinstance(f, Forall) and is_nested_forall(f):
            atoms = enumerate_atoms(f.body)
            got = [forest_shape(fr, atoms) for fr in enumerate_forests(f, [f], ["v0"])]
            assert len(got) == len(set(got))
            assert sorted(got) == sorted((t,) for t in ref_label_trees(atoms, []))
            forest_checks += 1
    assert atom_checks >= 400
    assert forest_checks >= 5


def test_forest_sizes_stay_within_bound():
    """No certificate in the corpus carries a forest past its node ceiling."""
    rng = random.Random(CORPUS_SEED)
    cfg = GenConfig(seed=CORPUS_SEED)
    audited = 0
    for _ in range(CORPUS_SIZE):
        phi = gen_formula(cfg, rng)
        res = search(phi)
        if res.status != SAT:
            continue
        assert audit(res.tableau, phi)[2] == []
        if any(res.tableau.forest_points()):
            audited += 1
    assert audited >= 5


def test_normalization_and_parser_properties():
    """Normalization never changes truth in a model, and printing then
    parsing is the identity on 1000 formulas."""
    rng = random.Random(99)
    for _ in range(200):
        model = random_model(rng)
        phi = random_raw_formula(rng, rng.randint(1, 4), ["x"])
        w = rng.choice(sorted(model.worlds))
        sigma = random_relevant_sigma(rng, model, w, sorted(free_vars(phi)))
        raw = check(model, w, sigma, phi)
        nnf = to_nnf(phi)
        assert is_nnf(nnf)
        assert check(model, w, sigma, nnf) == raw
        cleaned = clean_rename(nnf)
        assert is_clean(cleaned)
        assert check(model, w, sigma, cleaned) == raw
    for seed in range(500):
        phi = gen_formula(GenConfig(seed=seed))
        assert parse_formula(print_formula(phi)) == phi
    for seed in range(500):
        phi = random_raw_formula(random.Random(seed), 5, ["x", "u"])
        assert parse_formula(print_formula(phi)) == phi
