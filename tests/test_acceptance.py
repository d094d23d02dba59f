"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is intentionally self-contained and reads as a statement of the
guarantee it pins down; `pytest -v` gives one pass/fail line per guarantee.
"""

import json
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
from oracles import atoms_as_sets, brute_atoms, forest_shape, ref_label_trees
from foml.cli import main
from foml.extraction import RESIDUAL, extract_model, iterate_extensions
from foml.forest import enumerate_forests
from foml.formulas import (
    Forall,
    clean_rename,
    components,
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
    Guidance,
    SAT,
    _forest_from_json,
    certificate_from_json,
    certificate_to_json,
    replay_guidance,
    search,
)
from foml.testgen import (
    GenConfig,
    differential_run,
    forest_bound_violations,
    gen_formula,
)

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
    """The recorded disjunct, forest, and successor choices are exactly the
    ones read back off the checked-in certificate, and replaying them
    rebuilds it byte for byte, with the documented shape."""
    doc = json.loads((DATA / "phi1_guidance.json").read_text())
    guidance = Guidance(
        or_choice={(w, key): idx for w, key, idx in doc["or_choice"]},
        forest={w: _forest_from_json(f) for w, f in doc["forest_override"].items()},
        diamond_order={w: list(keys) for w, keys in doc["diamond_order"].items()},
    )
    golden = (DATA / "phi1_certificate.json").read_text()
    assert replay_guidance(certificate_from_json(golden)) == guidance
    res = search(phi1, guidance=guidance)
    assert res.status == SAT
    assert certificate_to_json(res.tableau) == golden

    forest = replay_guidance(res.tableau).forest["r.0"]
    assert [(n.name, n.parent) for n in forest.nodes] == [
        ("v0", None), ("v1", "v0"), ("v2", "v1"),
    ]
    model = extract_model(res.tableau)
    assert sorted(model.local_domain["r.0"]) == ["v0", "v1", "v2"]
    worlds = res.tableau.worlds()
    assert sum(1 for w in worlds if len(w) == 3 and w[:2] == (0, 0)) == 6


def test_extension_dynamics_through_five_rounds(phi1, phi1_result):
    """Each extension grows the forest domain by one at the chain's end and
    every snapshot extends the previous one."""
    model, trace, status = iterate_extensions(phi1, phi1_result.tableau, 5)
    assert status == RESIDUAL
    assert [s.leaf for s in trace.steps] == ["v2", "v7", "v10", "v13", "v16"]
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
    re-verification, model validation, and the last-node literal audit."""
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


def test_enumerators_match_brute_force_references(phi1):
    """Atom and forest enumeration agree exactly with independent
    brute-force generators on every small component set."""
    pool = list(subformulas(phi1))
    for seed in range(50):
        pool.extend(subformulas(gen_formula(GenConfig(seed=seed))))
    atom_checks = forest_checks = 0
    for f in pool:
        if len(components(f)) > 12:
            continue
        assert atoms_as_sets(enumerate_atoms(f, "x")) == brute_atoms(f)
        atom_checks += 1
        if isinstance(f, Forall) and is_nested_forall(f):
            atoms = enumerate_atoms(f.body, f.var)
            got = [forest_shape(fr, atoms) for fr in enumerate_forests([f], ["v0"])]
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
        assert forest_bound_violations(res.tableau) == []
        if any(n.rule == "nestedForall" for n in res.tableau.walk()):
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
