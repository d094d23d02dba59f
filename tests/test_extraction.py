import dataclasses
import json

import pytest

import foml.extraction
from conftest import norm
from foml.extraction import (
    RESIDUAL,
    SATISFIED,
    extend_tableau,
    extract_model,
    find_leaf_violations,
    iterate_extensions,
    trace_to_ndjson,
)
from foml.forest import NOT_INIT
from foml.formulas import FomlError, ResourceLimit
from foml.kripke import check, validate_model

from foml.tableau import (
    SearchLimits,
    Tableau,
    TableauNode,
    certificate_from_json,
    certificate_to_json,
    search,
    verify_tableau,
)


SIMPLE = norm("<> forall x. exists y. [] P(x,y)")


def forest_node(tableau):
    return next(n for n in tableau.walk() if n.rule == "nestedForall")


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


def test_extract_rejects_closed_and_unsaturated():
    closed = Tableau(
        theta=norm("P(x)"),
        root=TableauNode(
            (), frozenset({norm("P(x)"), norm("~P(x)")}), frozenset({"x"}),
            NOT_INIT, "root",
        ),
    )
    with pytest.raises(FomlError, match="not open"):
        extract_model(closed)
    stuck = Tableau(
        theta=norm("P(x) & Q(x,x)"),
        root=TableauNode(
            (), frozenset({norm("P(x) & Q(x,x)")}), frozenset({"x"}),
            NOT_INIT, "root",
        ),
    )
    with pytest.raises(FomlError, match="not saturated"):
        extract_model(stuck)


def test_flagship_has_one_canonical_violation(phi1_result):
    t = phi1_result.tableau
    violations = find_leaf_violations(t, extract_model(t))
    assert len(violations) == 1
    node, leaf, inst = violations[0]
    assert node.world == (0,)
    assert leaf == "v2"
    assert str(inst) == "(exists y. [][]P(v2,y))"


def test_no_forest_means_no_violations():
    phi = norm("P(x) & <> Q(x,x)")
    t = search(phi).tableau
    assert find_leaf_violations(t, extract_model(t)) == []


def test_extend_tableau_grows_chain_by_one():
    t = search(SIMPLE).tableau
    ext = extend_tableau(t, forest_node(t), "v2")
    assert verify_tableau(ext, SIMPLE) == []
    assert sorted(extract_model(ext).local_domain["r.0"]) == ["v0", "v1", "v2", "v3"]


def test_extend_tableau_moves_flagship_violation(phi1_result):
    t = phi1_result.tableau
    ext = extend_tableau(t, forest_node(t), "v2")
    m1 = extract_model(ext)
    violations = find_leaf_violations(ext, m1)
    assert [(leaf, str(f)) for _, leaf, f in violations] == [
        ("v7", "(exists y. [][]P(v7,y))")
    ]


def test_extend_tableau_error_paths():
    t = search(SIMPLE).tableau
    with pytest.raises(FomlError, match="must carry a skolem forest"):
        extend_tableau(t, t.root, "v2")
    with pytest.raises(FomlError, match="not a leaf"):
        extend_tableau(t, forest_node(t), "v0")


def test_extend_tableau_searches_once_and_reports_exhaustion(
    monkeypatch, phi1, phi1_result
):
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(foml.extraction, "search", counted)
    t = phi1_result.tableau
    limits = dataclasses.replace(SearchLimits.derive(phi1), max_tableau_nodes=300)
    with pytest.raises(ResourceLimit, match="extension rebuild failed"):
        extend_tableau(t, forest_node(t), "v2", limits)
    assert len(calls) == 1


def test_extend_tableau_rejects_rebuild_without_grown_forest(monkeypatch):
    def forgetful(theta, limits, guidance):
        guidance.forest.pop("r.0")
        return search(theta, limits, guidance)

    monkeypatch.setattr(foml.extraction, "search", forgetful)
    t = search(SIMPLE).tableau
    with pytest.raises(FomlError, match="grown forest was not kept"):
        extend_tableau(t, forest_node(t), "v2")


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
    assert [s.leaf for s in trace.steps] == ["v2", "v7", "v10"]
    assert [s.fresh for s in trace.steps] == [("v7",), ("v10",), ("v13",)]
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
