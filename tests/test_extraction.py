import dataclasses
import gc
import json
import random
import sys

import pytest

import foml.extraction
import foml.formulas
import foml.tableau
from conftest import PHI1_TEXT, norm
from foml.extraction import (
    RESIDUAL,
    SATISFIED,
    _monotone_violations,
    audit,
    extend_tableau,
    extract_model,
    find_leaf_violations,
    iterate_extensions,
    trace_to_ndjson,
)
from foml.formulas import (
    ORIGIN_SEP,
    And,
    FomlError,
    ResourceLimit,
    all_vars,
    clean_rename,
    free_vars,
    instance,
    instances,
    is_literal,
)
from foml.kripke import KripkeModel, check, validate_model

from foml.testgen import GenConfig, gen_formula
from foml.tableau import (
    SearchLimits,
    TableauNode,
    certificate_from_json,
    certificate_to_json,
    render_world,
    search,
    verify_tableau,
)


SIMPLE = norm("<> forall x. exists y. [] P(x,y)")


def forest_world(tableau):
    return next(w for w, _ in tableau.forest_points())


def test_extract_single_world_model():
    phi = norm("P(x)")
    m = extract_model(search(phi).tableau)
    assert sorted(m.worlds) == ["r"]
    assert m.edges == frozenset()
    assert sorted(m.local_domain["r"]) == ["v0", "x"]
    assert m.valuation == {("r", "P"): frozenset({("x",)})}
    assert validate_model(m) == []


def test_extract_flagship_model_shape(phi1_result):
    m = extract_model(phi1_result.tableau)
    assert len(m.worlds) == 23
    assert len(m.edges) == 22
    assert sorted(m.local_domain["r"]) == ["v0"]
    assert sorted(m.local_domain["r.0"]) == ["v0", "v1", "v2"]
    assert validate_model(m) == []


def test_extract_model_names_each_world_once(monkeypatch, phi1_result):
    names = []

    def counted(world):
        names.append(world)
        return render_world(world)

    monkeypatch.setattr(foml.extraction, "render_world", counted)
    m = extract_model(phi1_result.tableau)
    assert len(names) == len(set(names)) == len(m.worlds) == 23


def test_extract_rejects_closed_and_unsaturated():
    closed = TableauNode(frozenset({norm("P(x)"), norm("~P(x)")}), frozenset({"x"}))
    with pytest.raises(FomlError, match="not open"):
        extract_model(closed)
    stuck = TableauNode(frozenset({norm("P(x) & Q(x,x)")}), frozenset({"x"}))
    with pytest.raises(FomlError, match="not saturated"):
        extract_model(stuck)


def test_audit_reports_what_the_verifier_rejects():
    """On a tree the verifier rejects, `audit` reads no model off it (that
    would raise) and returns the verifier's problems."""
    theta = norm("P(x) & Q(x,x)")
    stuck = TableauNode(frozenset({theta}), frozenset({"x", "v0"}))
    assert audit(stuck, theta) == (None, [], ["r: unsaturated leaf"])
    with pytest.raises(FomlError, match="not saturated"):
        extract_model(stuck)


def test_the_semantic_gate_catches_a_rule_fault_search_and_verifier_share(
    monkeypatch,
):
    """A planted fault in `_saturate`, an `and` of literals that drops its
    right conjunct, sits in search and in the verifier alike, so the
    verifier accepts the tree. Theta still holds at `r` (r.1 satisfies
    both diamonds), so only the per-node gate sees that the `or` kept at
    r.0's first node fails in the model. The sound rule passes the gate."""
    theta = norm("<> ((P(a) & Q(a)) | R(a)) & <> R(a)")
    real = foml.tableau._saturate

    def drops_a_conjunct(s, base, added):
        added = [f.left if type(f) is And and is_literal(f.right) else f for f in added]
        return real(s, base, added)

    monkeypatch.setattr(foml.tableau, "_saturate", drops_a_conjunct)
    tableau = search(theta).tableau
    assert verify_tableau(tableau, theta) == []
    model, violations, problems = audit(tableau, theta)
    assert violations == [] and check(model, "r", {"a": "a"}, theta)
    assert problems == ["formula P(a) & Q(a) | R(a) fails at r.0"]
    monkeypatch.undo()
    assert audit(search(theta).tableau, theta)[1:] == ([], [])


def test_the_semantic_gate_catches_a_rule_fault_on_the_flagship(monkeypatch, phi1):
    """The same kind of planted fault, an `and` that drops its right
    conjunct, now on every `and`: the verifier accepts the flagship's tree,
    which keeps its one leaf violation, and the gate still runs on it."""
    real = foml.tableau._saturate

    def drops_every_right_conjunct(s, base, added):
        return real(s, base, [f.left if type(f) is And else f for f in added])

    monkeypatch.setattr(foml.tableau, "_saturate", drops_every_right_conjunct)
    tableau = search(phi1).tableau
    assert verify_tableau(tableau, phi1) == []
    _, violations, problems = audit(tableau, phi1)
    assert len(violations) == 1 and len(problems) == 8
    assert problems[1] == (
        "formula <> P(v0, v2) & [] P(v0, v2) | [] ~P(v0, v2) & <> ~P(v0, v2)"
        " fails at r.0.0"
    )


def failing_pairs(tableau):
    """The (world, formula) pairs of the tree that fail in its model, each
    checked with `check` under the identity assignment."""
    model = extract_model(tableau)
    return {
        (render_world(w), g)
        for w, node in tableau.walk()
        for g in node.gamma
        if not check(model, render_world(w), {v: v for v in free_vars(g)}, g)
    }


def corpus_formula(seed, index):
    rng, cfg = random.Random(seed), GenConfig(seed=seed, max_depth=6)
    for _ in range(index + 1):
        theta = gen_formula(cfg, rng)
    return theta


def test_the_gate_lets_off_exactly_what_a_leaf_violation_fails(phi1, phi1_result):
    """A model with a leaf violation left is a finite prefix of an infinite
    one, so the violated universal fails at its forest point's world and
    at the worlds above, in every formula that holds it. Those pairs, and
    only those, fail; `audit` lets them off and reports nothing. On
    `GenConfig(seed=3, max_depth=6)` #274 the violated universal is the
    instance `forall b1@v0` while theta holds `forall b1`: one origin."""
    tree = phi1_result.tableau
    for _ in range(4):
        assert failing_pairs(tree) == {("r", phi1), ("r.0", phi1.body)}
        model, violations, problems = audit(tree, phi1)
        assert problems == [] and len(violations) == 1
        world, leaf, _ = violations[0]
        tree = extend_tableau(phi1, tree, world, leaf)

    theta = corpus_formula(3, 274)
    tree = search(theta).tableau
    inst = instance(theta, "v0")
    assert failing_pairs(tree) == {
        ("r", theta), ("r", inst), ("r.0", inst.body), ("r.0.0", inst.body.body)
    }
    assert audit(tree, theta)[2] == []
    theta = corpus_formula(7, 59)
    tree = search(theta).tableau
    assert len(failing_pairs(tree)) == 3 and audit(tree, theta)[2] == []


def test_flagship_has_one_canonical_violation(phi1_result):
    t = phi1_result.tableau
    violations = find_leaf_violations(t, extract_model(t))
    assert len(violations) == 1
    world, leaf, inst = violations[0]
    assert world == (0,)
    assert leaf == "v2"
    assert str(inst) == "(exists y. [][]P(v2,y))"


def test_no_forest_means_no_violations():
    phi = norm("P(x) & <> Q(x,x)")
    t = search(phi).tableau
    assert find_leaf_violations(t, extract_model(t)) == []


def test_extend_tableau_grows_chain_by_one():
    t = search(SIMPLE).tableau
    ext = extend_tableau(SIMPLE, t, forest_world(t), "v2")
    assert verify_tableau(ext, SIMPLE) == []
    assert sorted(extract_model(ext).local_domain["r.0"]) == ["v0", "v1", "v2", "v3"]


def test_extend_tableau_moves_flagship_violation(phi1, phi1_result):
    t = phi1_result.tableau
    ext = extend_tableau(phi1, t, forest_world(t), "v2")
    m1 = extract_model(ext)
    violations = find_leaf_violations(ext, m1)
    assert [(leaf, str(f)) for _, leaf, f in violations] == [
        ("v3", "(exists y. [][]P(v3,y))")
    ]


def test_extend_tableau_error_paths():
    t = search(SIMPLE).tableau
    with pytest.raises(FomlError, match="extension target r carries no skolem forest"):
        extend_tableau(SIMPLE, t, (), "v2")
    with pytest.raises(FomlError, match="not a leaf"):
        extend_tableau(SIMPLE, t, forest_world(t), "v0")


def test_extend_tableau_searches_once_and_reports_exhaustion(
    monkeypatch, phi1, phi1_result
):
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(foml.extraction, "search", counted)
    t = phi1_result.tableau
    # Below the 76 nodes of the first rebuild.
    limits = dataclasses.replace(SearchLimits.derive(phi1), max_tableau_nodes=70)
    with pytest.raises(ResourceLimit, match="extension rebuild failed"):
        extend_tableau(phi1, t, forest_world(t), "v2", limits)
    assert len(calls) == 1


def test_extend_tableau_rejects_rebuild_without_grown_forest(monkeypatch):
    def forgetful(theta, limits, guidance):
        guidance.forest.pop((0,))
        return search(theta, limits, guidance)

    monkeypatch.setattr(foml.extraction, "search", forgetful)
    t = search(SIMPLE).tableau
    with pytest.raises(FomlError, match="grown forest was not kept"):
        extend_tableau(SIMPLE, t, forest_world(t), "v2")


def test_a_universal_instance_is_substituted_once():
    """A flagship search, its certificate read-back, a verification and
    three rebuilds take each (universal, element) instance from the
    universal's cache, so `instance` names each one once, and forest
    expansion takes its instances from the same cache. Nothing renames
    against gamma: `clean_rename` never runs. Calls are seen with a
    profile hook, however a module imports the names. The predicate is
    renamed, so the universals are new nodes with empty caches."""
    gc.collect()  # nodes of an earlier run of this test, kept by cycles
    phi = norm(PHI1_TEXT.replace("P(", "Pinst("))
    asked, made, renamed = set(), [], []
    name_once = instance.__code__
    rename, clean = foml.formulas._rename.__code__, clean_rename.__code__

    def profile(frame, event, arg):
        if event != "call":
            return
        code, args = frame.f_code, frame.f_locals
        if code is name_once:
            asked.add((args["q"], args["z"]))
        elif code is rename and frame.f_back.f_code is name_once:
            made.append((args["phi"], *args["ren"].items()))
        elif code is clean:
            renamed.append(args["phi"])

    sys.setprofile(profile)
    try:
        again = certificate_from_json(certificate_to_json(search(phi).tableau))
        assert verify_tableau(again, phi) == []
        iterate_extensions(phi, again, 3)
    finally:
        sys.setprofile(None)
    assert renamed == []
    assert len(made) == len(set(made)) == len(asked) > 0
    assert {(body, var, z) for body, (var, z) in made} == {
        (q.body, q.var, z) for q, z in asked
    }
    for q, z in asked:
        assert instance(q, z) is instances(q)[z]
        assert all(ORIGIN_SEP + z in v for v in all_vars(instance(q, z)) - {z}
                   - free_vars(q))


def test_iterate_zero_rounds_statuses(phi1, phi1_result):
    model, trace, status = iterate_extensions(phi1, phi1_result.tableau, 0)
    assert status == RESIDUAL
    assert trace.steps == [] and len(trace.snapshots) == 1

    t = search(SIMPLE).tableau
    model, trace, status = iterate_extensions(SIMPLE, t, 0)
    assert status == SATISFIED
    assert sorted(model.local_domain["r.0"]) == ["v0", "v1", "v2"]
    assert check(model, "r", {}, SIMPLE)


def test_iterate_flagship_progress(phi1, phi1_result):
    model, trace, status = iterate_extensions(phi1, phi1_result.tableau, 3)
    assert status == RESIDUAL
    assert [s.leaf for s in trace.steps] == ["v2", "v3", "v4"]
    assert [s.fresh for s in trace.steps] == [("v3",), ("v4",), ("v5",)]
    assert [s.world for s in trace.steps] == ["r.0"] * 3
    assert [len(m.worlds) for m in trace.snapshots] == [23, 38, 57, 80]
    for k, snap in enumerate(trace.snapshots):
        assert len(snap.local_domain["r.0"]) == 3 + k
        assert validate_model(snap) == []
        assert not check(snap, "r", {}, phi1)
    for s, snap in zip(trace.steps, trace.snapshots[1:]):
        witnessed = norm(f"exists y. [][] P({s.leaf},y)")
        assert check(snap, s.world, {s.leaf: s.leaf}, witnessed)


def test_tableau_read_back_from_certificate_extends_alike(phi1, phi1_result):
    t = phi1_result.tableau
    loaded = certificate_from_json(certificate_to_json(t))
    _, direct, _ = iterate_extensions(phi1, t, 3)
    _, replayed, _ = iterate_extensions(phi1, loaded, 3)
    assert trace_to_ndjson(replayed) == trace_to_ndjson(direct)


def test_iterate_preserves_earlier_snapshots(phi1, phi1_result):
    _, trace, _ = iterate_extensions(phi1, phi1_result.tableau, 2)
    for old, new in zip(trace.snapshots, trace.snapshots[1:]):
        assert old.worlds <= new.worlds
        assert old.edges <= new.edges
        for w in old.worlds:
            assert old.local_domain[w] <= new.local_domain[w]
        for key, tuples in old.valuation.items():
            assert tuples <= new.valuation.get(key, frozenset())


def test_monotone_violations_list_lost_facts_in_sorted_order():
    facts = frozenset({("a",)})
    old = KripkeModel(
        worlds=frozenset({"r"}),
        domain=frozenset({"a"}),
        edges=frozenset(),
        local_domain={"r": frozenset({"a"})},
        valuation={("r", "Q"): facts, ("r", "P"): facts},
    )
    new = dataclasses.replace(old, valuation={})
    assert _monotone_violations(old, new) == [
        "facts lost for ('r', 'P')",
        "facts lost for ('r', 'Q')",
    ]


@pytest.mark.parametrize(
    "text",
    [
        # Formula #297 of GenConfig(seed=24, max_depth=5).
        "<> forall b0. (exists b1. [] ((exists b2. [] P1(f0, b0)) & P2(b1, b1)))"
        " & forall b3. <> forall b4. <> (P0(b3) & P1(b4, f0))",
        # Formula #217 of GenConfig(seed=32, max_depth=6).
        "(([] exists b0. (forall b1. <> ((forall b2. <> (~P2(f0) & P1(b2)))"
        " & P1(b1))) & P2(b0)) | <> forall b3. <> forall b4. P1(b3) & P1(b4))"
        " & <> forall b5. exists b6. [] (((forall b7. <> (P2(b5) & P2(b7)))"
        " | exists b8. [] (P0 & P2(b8))) & P2(b6))",
    ],
    ids=["seed24-d5-297", "seed32-d6-217"],
)
def test_extending_an_inner_forest_leaf_keeps_world_identity(text):
    # The extended leaf is not the last forest node; binders are named by
    # origin, so the replay keys still find every diamond and disjunct.
    theta = norm(text)
    res = search(theta)
    assert res.status == "sat"
    _, trace, _ = iterate_extensions(theta, res.tableau, 1)
    assert len(trace.steps) == 1


def test_extension_keeps_existential_witness_names():
    # Formula #126 of GenConfig(seed=33, max_depth=6).
    theta = norm(
        "<> forall b0. (forall b1. <> ((exists b2. [] (P0(b1) & P1(b2)))"
        " & (~P2 & ~P0(f0)))) & (P2 & ((forall b3. <> P1(f1))"
        " & exists b4. [] (P1(b0) & P0(b4))))"
    )
    res = search(theta)
    assert res.status == "sat"
    _, trace, _ = iterate_extensions(theta, res.tableau, 1)
    assert len(trace.steps) == 1
    # Witnesses are named by origin, so the rebuild keeps every old one, and
    # each new element is the grown node or a witness named after it.
    fresh = trace.steps[0].fresh
    (grown,) = [e for e in fresh if ORIGIN_SEP not in e]
    assert all(grown in e.split(ORIGIN_SEP) for e in fresh)
    assert "b2@v3@v7" in fresh


# Each element of its forest chain gets a diamond named after it only in a
# binder (`u@v3`), with an `or` below it about the witness `u@v3`.
U_CHAIN = (
    "<> forall x . (exists y . [][] P(x,y)) & [][] ~P(x,x)"
    " & <> (T & <> T & exists u . [] (((A(u) & <> C(u)) | B(u)) & [] ~C(u)))"
)


def rebuild_counts(monkeypatch):
    """The list each rebuild appends its (nodes searched, nodes kept) to."""
    pairs = []

    def counted(*args):
        result = search(*args)
        pairs.append((result.stats.nodes, sum(1 for _ in result.tableau.walk())))
        return result

    monkeypatch.setattr(foml.extraction, "search", counted)
    return pairs


def test_hints_reach_the_witnesses_named_after_the_fresh_element(monkeypatch):
    """A diamond that names the leaf only in a binder (`u@leaf`) has a twin
    for the fresh element, and the `or` pick about the witness `u@leaf`
    below it carries over as one about `u@fresh`: every rebuild searches
    exactly what it keeps. Without either, each round tries the closing
    left disjunct at the twin's first successor again."""
    theta = norm(U_CHAIN)
    pairs = rebuild_counts(monkeypatch)
    _, trace, _ = iterate_extensions(theta, search(theta).tableau, 3)
    assert pairs == [(24, 24), (29, 29), (34, 34)]
    assert [s.fresh for s in trace.steps] == [
        ("v3", "u@v3"), ("v4", "u@v4"), ("v5", "u@v5")
    ]


def test_a_fresh_name_that_sorts_first_takes_no_old_world(monkeypatch):
    """In round 8 the fresh element is v10, and the diamond about `u@v10`
    sorts before the one about `u@v2`. The replayed diamond order names
    each diamond by `formula_key`, binder names and all, so every old
    diamond keeps its successor world and the twin comes after them: all
    12 rounds keep every local domain and search exactly what they keep.
    Hints named up to binder names took the twin for the old diamond, gave
    it the old world r.0.2, and broke monotonicity in round 8."""
    theta = norm(U_CHAIN)
    pairs = rebuild_counts(monkeypatch)
    _, trace, status = iterate_extensions(theta, search(theta).tableau, 12)
    assert status == RESIDUAL
    assert pairs == [(24 + 5 * i,) * 2 for i in range(12)]
    assert trace.steps[7].fresh == ("v10", "u@v10")


def test_one_extension_round_keeps_every_local_domain():
    """On the SAT formulas of a slice of the seed-33 depth-6 corpus, #126
    among them, one extension round renames no element: each round either
    stops or extends, and never reports a local domain that shrank."""
    rng, cfg = random.Random(33), GenConfig(seed=33, max_depth=6)
    extended = 0
    for _ in range(600):
        theta = gen_formula(cfg, rng)
        res = search(theta)
        if res.status == "sat":
            _, trace, _ = iterate_extensions(theta, res.tableau, 1)
            extended += len(trace.steps)
    assert extended >= 1


def test_a_round_that_leaves_no_violation_checks_theta_at_the_root(
    monkeypatch, phi1, phi1_result
):
    """After a repair round leaves no leaf violation, theta must hold at `r`
    in the new model, or the loop raises the root check's message. No
    corpus formula reaches that branch, so here the second look for leaf
    violations is made to find none while the flagship still fails at `r`."""
    real = find_leaf_violations
    looks = []

    def second_finds_none(tableau, model):
        looks.append(model)
        return real(tableau, model) if len(looks) == 1 else []

    monkeypatch.setattr(foml.extraction, "find_leaf_violations", second_finds_none)
    with pytest.raises(FomlError) as err:
        iterate_extensions(phi1, phi1_result.tableau, 3)
    assert str(err.value) == "no leaf violations remain but the root check fails"
    assert len(looks) == 2


def test_iterate_rejects_negative_rounds(phi1, phi1_result):
    with pytest.raises(ValueError):
        iterate_extensions(phi1, phi1_result.tableau, -1)


def test_trace_ndjson_shapes(phi1, phi1_result):
    _, trace, _ = iterate_extensions(phi1, phi1_result.tableau, 2)
    lines = [json.loads(l) for l in trace_to_ndjson(trace).splitlines()]
    assert [(l["type"], l["iteration"]) for l in lines] == [
        ("snapshot", 0),
        ("extension", 1),
        ("snapshot", 1),
        ("extension", 2),
        ("snapshot", 2),
    ]
    for l in lines:
        if l["type"] == "snapshot":
            assert {"delta", "domain", "edges", "valuation", "worlds"} <= set(
                l["model"]
            )
        else:
            assert l["world"] == "r.0" and l["leaf"] and l["fresh"]
