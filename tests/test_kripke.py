import ast
import dataclasses
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    norm,
    oracle_pins_text,
    random_model,
    random_raw_formula,
    random_relevant_sigma,
)
from foml.extraction import extract_model, iterate_extensions
from foml.formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    FomlError,
    Not,
    Or,
    Pred,
    ResourceLimit,
    free_vars,
    to_nnf,
)
import foml.kripke
from foml.kripke import (
    KripkeModel,
    RelevanceError,
    _ground,
    _kleene,
    bounded_model_search,
    check,
    model_from_json,
    model_to_json,
    validate_model,
)
from foml.parser import parse_formula
from foml.testgen import GenConfig, gen_formula
from oracles import ref_bounded_model_search, ref_ground

DATA = Path(__file__).parent / "data"


def single_world(facts=()):
    return KripkeModel(
        worlds=frozenset({"w"}),
        domain=frozenset({"e"}),
        edges=frozenset(),
        local_domain={"w": frozenset({"e"})},
        valuation={("w", p): frozenset(ts) for p, ts in facts},
    )


@pytest.fixture(scope="module")
def m0(phi1_result):
    return extract_model(phi1_result.tableau)


def test_validate_accepts_single_world():
    assert validate_model(single_world([("P", [("e",)])])) == []


def test_validate_reports_domain_shrink():
    bad = KripkeModel(
        worlds=frozenset({"w", "v"}),
        domain=frozenset({"e", "f"}),
        edges=frozenset({("w", "v")}),
        local_domain={"w": frozenset({"e", "f"}), "v": frozenset({"e"})},
        valuation={},
    )
    problems = validate_model(bad)
    assert any("shrinks" in p for p in problems)


def test_validate_accepts_extracted_model(m0):
    assert validate_model(m0) == []
    assert len(m0.worlds) == 23


def test_check_atomic_fact():
    m = single_world([("P", [("e",)])])
    assert check(m, "w", {"x": "e"}, Pred("P", ("x",)))
    assert not check(m, "w", {"x": "e"}, Pred("Q", ("x", "x")))


def test_extracted_model_fails_root_formula(phi1, m0):
    assert check(m0, "r", {}, phi1) is False


def test_extracted_model_instance_witnesses(m0):
    inst = norm("exists y. [][] P(x,y)")
    assert sorted(m0.local_domain["r.0"]) == ["v0", "v1", "v2"]
    assert check(m0, "r.0", {"x": "v0"}, inst) is True
    assert check(m0, "r.0", {"x": "v2"}, inst) is False


def test_check_rejects_irrelevant_assignment():
    m = single_world()
    with pytest.raises(RelevanceError) as err:
        check(m, "w", {}, Pred("P", ("x",)))
    assert err.value.var == "x"
    assert "x" in str(err.value) and "w" in str(err.value)
    with pytest.raises(RelevanceError):
        check(m, "w", {"x": "ghost"}, Pred("P", ("x",)))
    # Of several unassigned variables, the first in `var_key` order is named.
    with pytest.raises(RelevanceError) as err:
        check(m, "w", {}, And(Pred("P", ("v10",)), Pred("P", ("v2",))))
    assert err.value.var == "v2"


def ref_check(model, w, sigma, phi):
    """Independent evaluator: fresh dicts, no sharing with the package code."""
    if isinstance(phi, Pred):
        args = tuple(sigma[a] for a in phi.args)
        return args in model.valuation.get((w, phi.name), frozenset())
    if isinstance(phi, Not):
        return not ref_check(model, w, sigma, phi.body)
    if isinstance(phi, And):
        return ref_check(model, w, sigma, phi.left) and ref_check(
            model, w, sigma, phi.right
        )
    if isinstance(phi, Or):
        return ref_check(model, w, sigma, phi.left) or ref_check(
            model, w, sigma, phi.right
        )
    if isinstance(phi, Exists):
        return any(
            ref_check(model, w, {**sigma, phi.var: d}, phi.body)
            for d in model.local_domain[w]
        )
    if isinstance(phi, Forall):
        return all(
            ref_check(model, w, {**sigma, phi.var: d}, phi.body)
            for d in model.local_domain[w]
        )
    succ = [v for (u, v) in model.edges if u == w]
    if isinstance(phi, Box):
        return all(ref_check(model, v, sigma, phi.body) for v in succ)
    if isinstance(phi, Diamond):
        return any(ref_check(model, v, sigma, phi.body) for v in succ)
    raise TypeError(phi)


@given(st.integers(0, 10_000_000))
@settings(max_examples=500, deadline=None)
def test_check_agrees_with_reference_evaluator(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    phi = random_raw_formula(rng, rng.randint(1, 4), ["x"])
    w = rng.choice(sorted(model.worlds))
    sigma = random_relevant_sigma(rng, model, w, sorted(free_vars(phi)))
    assert check(model, w, sigma, phi) == ref_check(model, w, sigma, phi)


def test_model_json_round_trip_is_canonical(m0):
    text = model_to_json(m0)
    assert model_to_json(model_from_json(text)) == text
    rng = random.Random(7)
    for _ in range(20):
        m = random_model(rng)
        text = model_to_json(m)
        again = model_from_json(text)
        assert model_to_json(again) == text
        assert validate_model(again) == validate_model(m)


def test_model_from_json_rejects_malformed_documents():
    for text in [
        "not json {",
        '{"worlds": ["w"]}',
        '{"worlds": ["w"], "edges": [["w"]], "domain": [], "delta": {}, "valuation": {}}',
        '{"worlds": ["w"], "edges": [], "domain": [], "delta": {"w": []}, "valuation": {"w": [["P"]]}}',
        '{"worlds": ["w"], "edges": [], "domain": [], "delta": {"w": []}, "valuation": {}, "note": 1}',
    ]:
        with pytest.raises(FomlError):
            model_from_json(text)


def test_oracle_finds_two_world_witness():
    phi = norm("<> forall x. exists y. [] P(x,y)")
    model, w, sigma = bounded_model_search(phi, 2, 1, 2)
    assert sorted(model.worlds) == ["w0", "w1"]
    assert sorted(model.edges) == [("w0", "w1")]
    assert sorted(model.domain) == ["a0"]
    assert w == "w0" and sigma == {}
    assert validate_model(model) == []
    assert check(model, w, sigma, phi)


def test_oracle_refutes_contradiction():
    phi = norm("P(x) & ~P(x)")
    assert bounded_model_search(phi, 3, 2, 2) is None


def test_oracle_refutes_flagship_in_tiny_trees(phi1):
    assert bounded_model_search(phi1, 3, 2, 3) is None


def test_oracle_results_check_out():
    rng = random.Random(11)
    hits = 0
    for _ in range(40):
        phi = norm(
            "(" + " | ".join(
                rng.choice(["P(x)", "~P(x)", "<> P(x)", "[] ~P(x)", "exists y. P(y)"])
                for _ in range(2)
            ) + ") & " + rng.choice(["<> P(x)", "P(x)", "~P(x)"])
        )
        got = bounded_model_search(phi, 2, 2, 2)
        if got is None:
            continue
        model, w, sigma = got
        hits += 1
        assert validate_model(model) == []
        assert check(model, w, sigma, phi)
    assert hits > 10


def test_oracle_budget_raises_with_count(phi1):
    with pytest.raises(ResourceLimit) as err:
        bounded_model_search(phi1, 3, 2, 3, max_steps=3)
    assert err.value.count > 3
    assert "work count" in str(err.value)


def test_oracle_rejects_bad_inputs(phi1):
    with pytest.raises(ValueError):
        bounded_model_search(parse_formula("~(P(x) & Q(x,x))"), 2, 2, 2)
    with pytest.raises(ValueError):
        bounded_model_search(phi1, 0, 2, 2)


def test_oracle_results_match_pins():
    """The oracle's results on two corpora, byte for byte; the pins are
    written by tests/data/regen_golden.py."""
    pinned = (DATA / "oracle_pins.jsonl").read_text(encoding="utf-8")
    assert oracle_pins_text() == pinned


def ground_at_w0(model, sigma, phi):
    """Ground phi at w0 of a random_model, whose worlds are w0..w{n-1}."""
    names = [f"w{i}" for i in range(len(model.worlds))]
    delta = [tuple(sorted(model.local_domain[w])) for w in names]
    children = [[names.index(v) for v in model.successors(w)] for w in names]
    atom_ids = {}
    return _ground(phi, 0, sigma, delta, children, atom_ids), atom_ids


def with_atoms(model, atom_ids, val):
    """The model with every ground atom set as in val."""
    valuation = {k: set(ts) for k, ts in model.valuation.items()}
    for (w, p, t), i in atom_ids.items():
        facts = valuation.setdefault((f"w{w}", p), set())
        if val[i]:
            facts.add(t)
        else:
            facts.discard(t)
    return dataclasses.replace(
        model, valuation={k: frozenset(ts) for k, ts in valuation.items()}
    )


@given(st.integers(0, 10_000_000))
@settings(max_examples=400, deadline=None)
def test_ground_dag_is_exact_on_full_and_sound_on_partial_valuations(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    phi = to_nnf(random_raw_formula(rng, rng.randint(1, 5), ["x"]))
    sigma = random_relevant_sigma(rng, model, "w0", sorted(free_vars(phi)))
    dag, atom_ids = ground_at_w0(model, sigma, phi)
    full = [None] * len(atom_ids)
    for (w, p, t), i in atom_ids.items():
        full[i] = t in model.facts(f"w{w}", p)
    assert _kleene(dag, full) == check(model, "w0", sigma, phi)

    hidden = [i for i in range(len(full)) if rng.random() < 0.5][:8]
    partial = [None if i in hidden else v for i, v in enumerate(full)]
    verdict = _kleene(dag, partial)
    if verdict is None:
        return
    for bits in product((False, True), repeat=len(hidden)):
        completion = list(partial)
        for i, b in zip(hidden, bits):
            completion[i] = b
        assert check(with_atoms(model, atom_ids, completion), "w0", sigma, phi) is verdict


def chains(leaves, n):
    """Every And and Or tree over n of the leaves, in every shape."""
    if n == 1:
        yield from leaves
        return
    for k in range(1, n):
        for left, right in product(list(chains(leaves, k)), list(chains(leaves, n - k))):
            yield And(left, right)
            yield Or(left, right)


def test_ground_folds_a_chain_where_the_nested_joins_did():
    """A chain of Or-like nodes (`|`, `exists`, `<>`), or of And-like ones,
    is ground in one loop, which stops where the reference's `_join` per
    node stopped: at a part that decides a node, or at the end of the first
    node that holds a literal and its complement. The DAG is the same, and
    so are the atoms handed ids, in the same order. The leaves share atoms,
    ground to either constant at a world with no successor, and flatten
    into an Or or And of two."""
    leaves = [norm(t) for t in [
        "P(x)", "~P(x)", "exists y . P(y)", "forall y . ~P(y)", "<> P(x)", "[] P(x)",
    ]]
    delta, children, sigma = [("a0", "a1")], [[]], {"x": "a0"}
    for phi in chains(leaves, 4):
        got, want = {}, {}
        assert _ground(phi, 0, sigma, delta, children, got) == ref_ground(
            phi, 0, sigma, delta, children, want
        )
        assert list(got.items()) == list(want.items())


@given(st.integers(0, 10_000_000))
@settings(max_examples=300, deadline=None)
def test_ground_matches_the_reference_on_random_formulas(seed):
    """The same DAG and atom ids as the reference across several worlds,
    domains of up to three elements, and nodes of both kinds in turn."""
    rng = random.Random(seed)
    model = random_model(rng)
    phi = to_nnf(random_raw_formula(rng, rng.randint(1, 6), ["x"]))
    sigma = random_relevant_sigma(rng, model, "w0", sorted(free_vars(phi)))
    names = [f"w{i}" for i in range(len(model.worlds))]
    delta = [tuple(sorted(model.local_domain[w])) for w in names]
    children = [[names.index(v) for v in model.successors(w)] for w in names]
    got, want = {}, {}
    assert _ground(phi, 0, sigma, delta, children, got) == ref_ground(
        phi, 0, sigma, delta, children, want
    )
    assert list(got.items()) == list(want.items())


def oracle_outcome(search, phi, **budget):
    """What one oracle search gave: the canonical model JSON, world and
    assignment, None, or the count its ResourceLimit carried."""
    try:
        found = search(phi, 3, 2, 3, **budget)
    except ResourceLimit as exc:
        return "limit", exc.count
    if found is None:
        return None
    model, w, sigma = found
    return model_to_json(model), w, sigma


def test_oracle_agrees_with_the_reference_on_every_budget():
    """The first 150 formulas of three corpora, each under budgets that run
    out at every depth of the valuation search and under the default: the
    same first model, world and assignment as the reference oracle (nested
    `_join`s, a recursive `dfs`, domains made afresh for every frame), or a
    ResourceLimit with the same count. The sweep runs out of budget about
    1,000 times."""
    budgets = [{"max_steps": s} for s in (1, 2, 3, 5, 8, 13, 40)] + [{}]
    limits = 0
    for seed, depth in ((2026, 4), (7, 5), (3, 6)):
        rng = random.Random(seed)
        cfg = GenConfig(seed=seed, max_depth=depth)
        for _ in range(150):
            phi = gen_formula(cfg, rng)
            for budget in budgets:
                got = oracle_outcome(bounded_model_search, phi, **budget)
                assert got == oracle_outcome(ref_bounded_model_search, phi, **budget)
                limits += got is not None and got[0] == "limit"
    assert limits > 900


def test_oracle_imports_only_formulas():
    """The oracle checks the tableau, so it shares none of its code."""
    tree = ast.parse(Path(foml.kripke.__file__).read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("foml"):
            local.add(node.module.removeprefix("foml.") or "foml")
        elif isinstance(node, ast.Import):
            local.update(
                a.name.removeprefix("foml.") for a in node.names
                if a.name.startswith("foml")
            )
    assert local == {"formulas"}


def test_successors_match_the_edge_scan(phi1, phi1_result):
    """`successors` reads tuples built once per model. At every world of the
    flagship's 3-round model they are the sorted scan of its edges, empty
    at the leaves, and the model's fields, `repr` and JSON do not show
    them."""
    model = iterate_extensions(phi1, phi1_result.tableau, 3)[0]
    fresh = dataclasses.replace(model)  # the same fields, nothing built yet
    empty = 0
    for w in sorted(model.worlds):
        want = tuple(sorted(v for (u, v) in model.edges if u == w))
        assert model.successors(w) == want
        empty += not want
    assert empty > 0
    assert model == fresh and repr(model) == repr(fresh)
    assert model_to_json(model) == model_to_json(fresh)
