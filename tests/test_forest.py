import types
from itertools import product

import pytest

from conftest import norm
from foml.forest import (
    ForestNode,
    SkolemForest,
    enumerate_forests,
    expand_forest,
    extend_forest,
    forest_size_bound,
    validate_forest,
)
from foml.formulas import FomlError, ResourceLimit, enumerate_atoms
from foml.tableau import select_rule
from oracles import is_minimal_forest


CHAIN_Q = norm("forall x. exists y. [] P(x,y)")
DISJ_Q = norm("forall x. (forall y. <> P(x,y)) | exists y. [] P(x,y)")
CONJ_Q = norm("forall x. (forall y. <> P(x,y)) & Q(x)")


def chain_forest():
    (f,) = enumerate_forests(CHAIN_Q, [CHAIN_Q], ["v0"])
    return f


def test_select_rule_picks_the_one_nested_universal():
    gamma = frozenset({norm("P(x)"), CHAIN_Q})
    assert select_rule(gamma, True) == ("nestedForall", CHAIN_Q)
    plain = frozenset({norm("P(x)"), norm("forall y. P(y)")})
    assert select_rule(plain, True) == ("trivialSkolem", None)


def test_select_rule_rejects_two_nested_universals():
    with pytest.raises(FomlError, match="multiple nested universals"):
        select_rule(frozenset({CHAIN_Q, CONJ_Q}), True)


def test_single_chain_forest():
    f = chain_forest()
    assert [(n.name, n.parent, n.children) for n in f.nodes] == [
        ("v0", None, ("v1",)),
        ("v1", "v0", ("v2",)),
        ("v2", "v1", ()),
    ]
    assert len({n.atom for n in f.nodes}) == 1
    assert validate_forest(f, CHAIN_Q, ["v0"]) == []
    assert is_minimal_forest(f)


def test_size_bound_covers_chain():
    assert forest_size_bound(CHAIN_Q, 1) == 16
    assert len(chain_forest().nodes) <= 16


def test_validate_rejects_truncated_chain():
    f = chain_forest()
    cut = SkolemForest(
        var=f.var,
        psi=f.psi,
        nodes=(f.nodes[0], ForestNode("v1", "v0", f.nodes[1].atom, ())),
    )
    problems = validate_forest(cut, CHAIN_Q, ["v0"])
    assert any("owes witnesses" in p for p in problems)


def test_validate_rejects_wrong_roots():
    problems = validate_forest(chain_forest(), CHAIN_Q, ["v0", "z9"])
    assert any("roots" in p for p in problems)


def test_conjunction_gives_one_leaf_per_root():
    (f,) = enumerate_forests(CONJ_Q, [CONJ_Q], ["a", "b"])
    assert sorted(n.name for n in f.roots()) == ["a", "b"]
    assert all(not n.children for n in f.nodes)
    assert validate_forest(f, CONJ_Q, ["a", "b"]) == []


from oracles import forest_shape as shape_of
from oracles import ref_label_trees


@pytest.mark.parametrize(
    "quant,roots",
    [(CHAIN_Q, ["v0"]), (DISJ_Q, ["v0"]), (DISJ_Q, ["a", "b"]), (CONJ_Q, ["v0"])],
)
def test_enumeration_matches_reference_enumerator(quant, roots):
    atoms = enumerate_atoms(quant.body)
    per_root = ref_label_trees(atoms, [])
    expected = sorted(product(per_root, repeat=len(roots)))
    got = []
    for f in enumerate_forests(quant, [quant], roots):
        assert validate_forest(f, quant, roots) == []
        assert is_minimal_forest(f)
        got.append(shape_of(f, atoms))
    assert len(got) == len(set(got))
    assert sorted(got) == expected


def test_enumeration_counts():
    assert len(list(enumerate_forests(DISJ_Q, [DISJ_Q], ["v0"]))) == 4
    assert len(list(enumerate_forests(DISJ_Q, [DISJ_Q], ["a", "b"]))) == 16


def test_enumeration_budget_raises_after_partial_yield():
    limits = types.SimpleNamespace(max_forest_nodes=2)
    stream = enumerate_forests(DISJ_Q, [DISJ_Q], ["v0"], limits)
    got = []
    with pytest.raises(ResourceLimit) as err:
        for f in stream:
            got.append(f)
    assert len(got) == 2
    assert err.value.count == 2


def test_a_forest_of_more_nodes_than_the_recursion_limit_is_enumerated():
    # Ten members `exists yj . [] Pj(x, yj)`: each of the 12 roots heads
    # 1 + 10 + 100 nodes, one label choice each.
    body = " & ".join(f"(exists y{j} . [] P{j}(x, y{j}))" for j in range(10))
    quant = norm(f"forall x . ({body})")
    roots = [f"a{i}" for i in range(11)] + ["v0"]
    forest = next(enumerate_forests(quant, [quant], roots))
    assert (len(forest.nodes), len(forest.roots())) == (1332, 12)
    assert validate_forest(forest, quant, roots) == []


def test_node_names_avoid_the_origins_of_derived_names():
    """`v1` is the origin of the name `v1@a` in gamma, so no node takes it:
    the elements in a derived name stay readable off it."""
    other = norm("P(v1@a)")
    forest = next(enumerate_forests(CHAIN_Q, [CHAIN_Q, other], ["v0"]))
    assert [n.name for n in forest.nodes] == ["v0", "v2", "v3"]


def test_empty_root_set_gives_empty_forest():
    (f,) = enumerate_forests(CHAIN_Q, [CHAIN_Q], [])
    assert f.nodes == ()


def test_expand_chain_instances():
    got = expand_forest(chain_forest(), [CHAIN_Q])
    assert sorted(str(g) for g in got) == [
        "(exists v1. []P(v0,v1))",
        "(exists v2. []P(v1,v2))",
    ]


def test_expand_no_exists_substitutes_directly():
    (f,) = enumerate_forests(CONJ_Q, [CONJ_Q], ["a", "b"])
    got = expand_forest(f, [CONJ_Q])
    assert sorted(str(g) for g in got) == [
        "(forall y@a. <>P(a,y@a))",
        "(forall y@b. <>P(b,y@b))",
        "Q(a)",
        "Q(b)",
    ]


def test_expand_rejects_mismatched_forest():
    with pytest.raises(FomlError, match="does not match"):
        expand_forest(chain_forest(), [CONJ_Q])


def test_extend_grows_one_node():
    f = chain_forest()
    ext = extend_forest(f, "v2")
    assert [(n.name, n.parent, n.children) for n in ext.nodes] == [
        ("v0", None, ("v1",)),
        ("v1", "v0", ("v2",)),
        ("v2", "v1", ("v3",)),
        ("v3", "v2", ()),
    ]
    assert ext.nodes[3].atom == f.nodes[2].atom
    assert validate_forest(ext, CHAIN_Q, ["v0"]) == []
    assert not is_minimal_forest(ext)
    again = extend_forest(ext, "v3")
    assert [n.name for n in again.nodes] == ["v0", "v1", "v2", "v3", "v4"]


def test_extend_respects_avoid_set():
    ext = extend_forest(chain_forest(), "v2", avoid={"v3", "v4"})
    assert [n.name for n in ext.nodes] == ["v0", "v1", "v2", "v5"]


def test_extend_error_paths():
    f = chain_forest()
    with pytest.raises(FomlError, match="not a leaf"):
        extend_forest(f, "v0")
    with pytest.raises(FomlError, match="no node named"):
        extend_forest(f, "zz")
    (b,) = [
        g for g in enumerate_forests(DISJ_Q, [DISJ_Q], ["v0"]) if len(g.nodes) == 1
    ]
    with pytest.raises(FomlError, match="no existential members"):
        extend_forest(b, "v0")
    short = SkolemForest(
        var=f.var,
        psi=f.psi,
        nodes=(
            ForestNode("v0", None, f.nodes[0].atom, ("v1",)),
            ForestNode("v1", "v0", f.nodes[0].atom, ()),
        ),
    )
    with pytest.raises(FomlError, match="two ancestors"):
        extend_forest(short, "v1")
