from dataclasses import replace

import pytest

from conftest import norm
from foml.forest import EMPTY_TREE, NOT_INIT, SkolemForest
from foml.formulas import (
    FomlError,
    Forall,
    FragmentError,
    formula_key,
    is_nested_forall,
    modal_depth,
)
from foml.kripke import bounded_model_search
from foml.parser import parse_formula
from foml.tableau import (
    EXHAUSTED,
    Guidance,
    SAT,
    SearchLimits,
    Tableau,
    UNSAT,
    apply_end,
    certificate_from_json,
    certificate_to_json,
    dump_tableau,
    init_root,
    parse_world,
    render_world,
    replay_guidance,
    search,
    select_rule,
    verify_tableau,
)


def test_world_names_round_trip():
    assert render_world(()) == "r"
    assert render_world((0, 2)) == "r.0.2"
    assert parse_world("r") == ()
    assert parse_world("r.0.2") == (0, 2)


def test_init_root_domains(phi1):
    assert sorted(init_root(phi1).s) == ["v0"]
    assert sorted(init_root(norm("P(x)")).s) == ["v0", "x"]
    assert sorted(init_root(norm("exists x. [] P(x)")).s) == ["v0", "x"]


def test_init_root_rejects_bad_inputs():
    with pytest.raises(FragmentError, match="negation normal form"):
        init_root(parse_formula("~(P(x) & Q(x,x))"))
    with pytest.raises(FragmentError, match="NotBundled"):
        init_root(norm("forall x. P(x)"))
    with pytest.raises(FragmentError, match="Undecidable"):
        init_root(norm("(exists x . [] P(x)) & [] forall y . <> Q(y,y)"))


def test_select_rule_priorities():
    lit = norm("P(x)")
    box = norm("[] Q(x,x)")
    assert select_rule(frozenset({lit}), EMPTY_TREE) == ("none", None)
    quant = norm("forall x. exists y. [] P(x,y)")
    assert select_rule(frozenset({quant, lit}), NOT_INIT) == ("nestedForall", quant)
    assert select_rule(frozenset({box, lit}), NOT_INIT) == ("trivialSkolem", None)
    conj = norm("P(x) & Q(x,x)")
    disj = norm("P(x) | Q(x,x)")
    assert select_rule(frozenset({conj, disj}), EMPTY_TREE)[0] == "and"
    assert select_rule(frozenset({disj, box}), EMPTY_TREE)[0] == "or"
    ex = norm("exists y. P(y)")
    assert select_rule(frozenset({ex, box}), EMPTY_TREE)[0] == "exists"
    plain = norm("forall y. P(y)")
    assert select_rule(frozenset({plain, box}), EMPTY_TREE)[0] == "forall"
    dia = norm("<> P(x)")
    assert select_rule(frozenset({dia, box}), EMPTY_TREE) == ("diamond", None)
    assert select_rule(frozenset({lit, box}), EMPTY_TREE) == ("end", None)


def test_end_rule_drops_boxes():
    g = frozenset({norm("P(x)"), norm("[] Q(x,x)")})
    assert apply_end(g) == frozenset({norm("P(x)")})


def test_flagship_is_satisfiable(phi1_result):
    assert phi1_result.status == SAT
    assert phi1_result.stats.nodes == 295


def test_flagship_world_tree_shape(phi1_result):
    t = phi1_result.tableau
    worlds = t.worlds()
    assert len(worlds) == 23

    def kids(w):
        return [v for v in worlds if len(v) == len(w) + 1 and v[: len(w)] == w]

    assert len(kids(())) == 1
    assert len(kids((0,))) == 3
    for i in range(3):
        assert len(kids((0, i))) == 6


def test_contradiction_is_unsat():
    assert search(norm("P(x) & ~P(x)")).status == UNSAT


def test_unsatisfiable_mix_agrees_with_oracle():
    phi = norm("(exists x. [] P(x)) & <> forall y. ~P(y)")
    assert search(phi).status == UNSAT
    assert bounded_model_search(phi, 3, 3, 3) is None


def test_tight_limits_report_exhaustion_not_unsat(phi1):
    for limits in [
        SearchLimits(max_tableau_nodes=5),
        SearchLimits(max_depth=1),
        SearchLimits(max_branch_choices=1),
    ]:
        assert search(phi1, limits).status == EXHAUSTED


def test_search_is_deterministic(phi1, phi1_result):
    again = search(phi1)
    assert certificate_to_json(again.tableau) == certificate_to_json(
        phi1_result.tableau
    )


def test_verifier_accepts_search_output(phi1, phi1_result):
    assert verify_tableau(phi1_result.tableau, phi1) == []
    for text in ["P(x) & <> Q(x,x)", "exists x. [] (P(x) | Q(x,x))"]:
        phi = norm(text)
        res = search(phi)
        assert res.status == SAT
        assert verify_tableau(res.tableau, phi) == []


def mutate_first(tableau, pred, fn):
    target = next(n for n in tableau.walk() if pred(n))

    def rebuild(node):
        if node is target:
            return fn(node)
        return replace(node, children=tuple(rebuild(c) for c in node.children))

    return Tableau(theta=tableau.theta, root=rebuild(tableau.root))


def test_verifier_catches_corrupted_gamma(phi1, phi1_result):
    bad = mutate_first(
        phi1_result.tableau,
        lambda n: n.rule == "trivialSkolem",
        lambda n: replace(n, gamma=n.gamma | {norm("P(zz)")}),
    )
    problems = verify_tableau(bad, phi1)
    assert any("unexpected gamma" in p for p in problems)


def test_verifier_catches_corrupted_forest(phi1, phi1_result):
    def truncate(n):
        forest = n.forest
        cut = SkolemForest(var=forest.var, psi=forest.psi, nodes=forest.nodes[:-1])
        return replace(n, forest=cut)

    bad = mutate_first(
        phi1_result.tableau,
        lambda n: n.rule == "nestedForall" and isinstance(n.forest, SkolemForest),
        truncate,
    )
    problems = verify_tableau(bad, phi1)
    assert problems and any("forest" in p for p in problems)


def test_certificate_round_trip(phi1, phi1_result):
    blob = certificate_to_json(phi1_result.tableau)
    again = certificate_from_json(blob)
    assert certificate_to_json(again) == blob
    assert verify_tableau(again, phi1) == []


def test_certificate_rejects_malformed_documents():
    for text in ["{", "{}", '{"theta": "P(x)"}', '{"theta": "P(x", "root": {}}']:
        with pytest.raises(FomlError, match="malformed certificate"):
            certificate_from_json(text)


def test_tableau_structural_invariants(phi1_result):
    t = phi1_result.tableau
    worlds = set(t.worlds())
    for w in worlds:
        assert w == () or w[:-1] in worlds
    for node in t.walk():
        for c in node.children:
            assert c.world == node.world or (
                len(c.world) == len(node.world) + 1
                and c.world[: len(node.world)] == node.world
            )
        if node.forest is not NOT_INIT:
            assert not any(
                isinstance(g, Forall) and is_nested_forall(g) for g in node.gamma
            )


def test_or_guidance_selects_requested_disjunct():
    phi = norm("P(a) | Q(a,a)")
    pivot_key = formula_key(phi)
    plain = search(phi)
    assert plain.status == SAT
    assert replay_guidance(plain.tableau).or_choice[("r", pivot_key)] == 0
    guided = search(phi, guidance=Guidance(or_choice={("r", pivot_key): 1}))
    assert guided.status == SAT
    assert replay_guidance(guided.tableau).or_choice[("r", pivot_key)] == 1
    leaf = [n for n in guided.tableau.walk() if n.world == ()][-1]
    assert norm("Q(a,a)") in leaf.gamma


def test_diamond_guidance_reorders_successors():
    phi = norm("<> P(a) & <> Q(a,a)")
    dq = norm("<> Q(a,a)")
    plain = search(phi)
    assert plain.status == SAT
    order = replay_guidance(plain.tableau).diamond_order["r"]
    assert order[0] == formula_key(norm("<> P(a)"))
    guided = search(phi, guidance=Guidance(diamond_order={"r": [formula_key(dq)]}))
    assert guided.status == SAT
    assert replay_guidance(guided.tableau).diamond_order["r"][0] == formula_key(dq)
    first_child = [n for n in guided.tableau.walk() if n.world == (0,)][-1]
    assert norm("Q(a,a)") in first_child.gamma


def test_limits_validation_and_derivation(phi1):
    with pytest.raises(ValueError):
        SearchLimits(max_depth=0)
    with pytest.raises(ValueError):
        SearchLimits(max_tableau_nodes=-3)
    derived = SearchLimits.derive(phi1)
    assert derived.max_depth == modal_depth(phi1) + 2
    assert derived.max_forest_nodes >= 64


def test_dump_tableau_lines(phi1_result):
    t = phi1_result.tableau
    lines = dump_tableau(t).splitlines()
    assert lines[0].startswith("r | root | ")
    assert len(lines) == len(list(t.walk()))
    rules = {
        "root", "trivialSkolem", "nestedForall", "and", "or",
        "exists", "forall", "diamond", "end",
    }
    for line in lines:
        world, rule = line.split(" | ")[:2]
        assert world == "r" or world.startswith("r.")
        assert rule in rules
