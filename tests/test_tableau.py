import copy
import hashlib
import json
import random
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foml.extraction
import foml.forest
import foml.formulas
import foml.tableau
from conftest import PHI1_TEXT, norm, subformulas, world_starts
from oracles import ref_read_choices, ref_saturate, ref_select_rule, ref_step
from foml.forest import SkolemForest, forest_size_bound
from foml.extraction import audit, iterate_extensions, trace_to_ndjson
from foml.formulas import (
    FMP_DECIDABLE,
    Box,
    FomlError,
    Forall,
    FragmentError,
    Pred,
    ResourceLimit,
    all_vars,
    classify_fragment,
    formula_key,
    fresh_var,
    free_vars,
    is_literal,
    is_nested_forall,
    nnf_complement,
    outer_ex_vars,
)
from foml.kripke import bounded_model_search
from foml.parser import parse_formula
from foml.tableau import (
    EXHAUSTED,
    Guidance,
    SAT,
    SearchLimits,
    TableauNode,
    UNSAT,
    certificate_from_json,
    certificate_to_json,
    init_root,
    read_choices,
    render_world,
    replay_guidance,
    search,
    select_rule,
    _saturate,
    is_closed,
    is_saturated,
    verify_tableau,
)
from foml.testgen import GenConfig, certificate_read_back_problems, gen_formula


def test_world_names_round_trip():
    assert render_world(()) == "r"
    assert render_world((0, 2)) == "r.0.2"


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
    with pytest.raises(FragmentError, match="kept for instance binders"):
        init_root(norm("P(a@v0) & <> forall x. exists y. [] Q(x,y)"))


def test_select_rule_priorities():
    lit = norm("P(x)")
    box = norm("[] Q(x,x)")
    assert select_rule(frozenset({lit}), False) == ("none", None)
    quant = norm("forall x. exists y. [] P(x,y)")
    assert select_rule(frozenset({quant, lit}), True) == ("nestedForall", quant)
    assert select_rule(frozenset({box, lit}), True) == ("trivialSkolem", None)
    conj = norm("P(x) & Q(x,x)")
    disj = norm("P(x) | Q(x,x)")
    assert select_rule(frozenset({conj, disj}), False)[0] == "and"
    assert select_rule(frozenset({disj, box}), False)[0] == "or"
    ex = norm("exists y. P(y)")
    assert select_rule(frozenset({ex, box}), False)[0] == "exists"
    plain = norm("forall y. P(y)")
    assert select_rule(frozenset({plain, box}), False)[0] == "forall"
    dia = norm("<> P(x)")
    assert select_rule(frozenset({dia, box}), False) == ("diamond", None)
    assert select_rule(frozenset({lit, box}), False) == ("end", None)


def test_select_rule_agrees_with_the_kind_scan(rule_trees):
    """One `min` over the ranks cached on the nodes picks the rule and the
    pivot that `ref_select_rule`, a scan of gamma's kinds, picks: at every
    node of the flagship after 0-3 extension rounds and of every SAT tree
    of the seed-2026 corpus."""
    nodes = [
        (n, n in starts)
        for t in rule_trees for starts in [world_starts(t)] for _, n in t.walk()
    ]
    assert len(nodes) > 4000
    for node, start in nodes:
        want = ref_select_rule(node.gamma, start)
        assert select_rule(node.gamma, start) == want
        assert is_saturated(node.gamma) == (want[0] == "none")


def test_kept_nodes_away_from_a_world_start_are_fixpoints(rule_trees):
    """Every node past a world's first node is one `_saturate` stops at:
    `select_rule` gives an `or` that leaves both disjuncts open, a diamond
    or `none`, and only a leaf gives `none`. A world's first node is the
    only one with a forest rule. On the flagship after 0-3 extension rounds
    and on every SAT tree of the seed-2026 corpus."""
    kinds = set()
    for t in rule_trees:
        starts = world_starts(t)
        for _, node in t.walk():
            kind, pivot = select_rule(node.gamma, node in starts)
            kinds.add(kind)
            assert (kind == "none") == (not node.children)
            if node in starts:
                assert kind in ("nestedForall", "trivialSkolem", "none")
                continue
            assert kind in ("or", "diamond", "none")
            if kind == "or":
                assert len(ref_step(node.gamma, node.s, kind, pivot)) == 2
    assert kinds == {"nestedForall", "trivialSkolem", "or", "diamond", "none"}


def ref_edge(node, start):
    """The rule of a node whose one child sits in its world, with what
    `ref_saturate` makes of the step, one rule at a time: the steps it takes
    from the picked forest's expansion, the `trivialSkolem` state or the
    picked disjunct, and the node they end at."""
    kind, pivot = select_rule(node.gamma, start)
    if kind == "trivialSkolem":
        state = (node.gamma, node.s)
    elif kind == "nestedForall":
        forest = node.pick
        state = (foml.tableau.expand_forest(forest, node.gamma), forest.names())
    else:
        state = (ref_step(node.gamma, node.s, kind, pivot)[node.pick], node.s)
    return (kind, *ref_saturate(*state))


def test_saturate_agrees_with_one_rule_at_a_time(rule_trees):
    """Each child in its parent's world is the node `ref_saturate` reaches
    by applying the rules one at a time, each state checked in full for a
    clash: on the flagship after 0-3 extension rounds and on every SAT tree
    of the seed-2026 corpus."""
    steps = 0
    for t in rule_trees:
        starts = world_starts(t)
        for _, node in t.walk():
            if node.children and type(node.pick) is not tuple:
                _, taken, end = ref_edge(node, node in starts)
                assert end[0] == node.children[0].gamma
                steps += len(taken)
    assert steps > 3000


def outcome(pick, gamma, start):
    """What pick returns, or the type and text of the error it raises."""
    try:
        return pick(gamma, start)
    except FomlError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("start", [True, False], ids=["not-init", "set"])
def test_select_rule_edge_cases(start):
    """Gammas no tableau node holds, on formulas built here, whose ranks
    are filled on the pick: each outcome, errors included, is the kind
    scan's."""
    lit, not_lit = Pred("Edge", ("x",)), norm("~Edge(y)")
    not_and = parse_formula("~(Edge(x) & Edge(y))")
    nested = [norm(f"forall x. exists y. [] Edge{i}(x,y)") for i in (1, 2)]
    ranked = norm("Edge(x) | Edge(y)")
    formula_key(ranked)
    late = norm("exists z. [] Edge(z)")  # unranked, and ranked after `ranked`
    cases = {
        "empty": (frozenset(), ("none", None)),
        "literals": (frozenset({lit, not_lit}), ("none", None)),
        "not-and": (
            frozenset({not_and, lit}),
            ("trivialSkolem", None) if start
            else (FomlError, "no rule applies to a non-literal gamma"),
        ),
        "two-nested": (
            frozenset(nested),
            (FomlError, "multiple nested universals in one gamma")
            if start else ("forall", min(nested, key=formula_key)),
        ),
        "unranked-last": (
            frozenset({ranked, late}),
            ("trivialSkolem", None) if start else ("or", ranked),
        ),
    }
    for name, (gamma, want) in cases.items():
        assert outcome(select_rule, gamma, start) == want, name
        assert outcome(ref_select_rule, gamma, start) == want, name
        assert is_saturated(gamma) == (name in ("empty", "literals"))


def test_each_nested_universal_enumerates_its_atoms_once(monkeypatch):
    """A nested universal keeps its atoms (`forall_atoms`): one flagship
    search, its certificate read-back, a verification and 3 extension
    rounds enumerate the atoms of its one nested universal once, where the
    size bound, each forest enumeration and each forest validation asked
    for them again. The predicate is renamed so that the universal is a
    new node."""
    theta = norm(PHI1_TEXT.replace("P(", "Atoms("))
    calls = []
    real = foml.formulas.enumerate_atoms

    def counted(psi):
        calls.append(psi)
        return real(psi)

    monkeypatch.setattr(foml.formulas, "enumerate_atoms", counted)
    res = search(theta)
    again = certificate_from_json(certificate_to_json(res.tableau))
    assert verify_tableau(again, theta) == []
    iterate_extensions(theta, again, 3)
    (nested,) = [q for q in subformulas(theta) if type(q) is Forall and is_nested_forall(q)]
    assert calls == [nested.body]


def test_each_universal_skeleton_is_walked_once_for_nestedness(monkeypatch):
    """Whether a universal is nested is computed once per universal and
    kept on it: over one flagship search, its verification and 3 extension
    rounds, `skeleton_leaves` walks no universal's body twice outside the
    forest layer's atom enumeration. The predicate is renamed so that every
    universal is a new node."""
    theta = norm(PHI1_TEXT.replace("P(", "Walked("))
    walks: dict[int, int] = {}
    in_atoms = []
    skeleton, atoms = foml.formulas.skeleton_leaves, foml.formulas.enumerate_atoms

    def counted(psi):
        if not in_atoms:
            walks[id(psi)] = walks.get(id(psi), 0) + 1
        return skeleton(psi)

    def enumerated(psi):
        in_atoms.append(psi)
        try:
            return atoms(psi)
        finally:
            in_atoms.pop()

    monkeypatch.setattr(foml.formulas, "skeleton_leaves", counted)
    monkeypatch.setattr(foml.formulas, "enumerate_atoms", enumerated)
    res = search(theta)
    assert verify_tableau(res.tableau, theta) == []
    iterate_extensions(theta, res.tableau, 3)
    assert len(walks) > 10
    assert set(walks.values()) == {1}


def test_saturate_refuses_a_negation_that_is_no_literal():
    """As `select_rule` does, once such a negation is gamma's first formula."""
    gamma = frozenset({parse_formula("~(Edge(x) & Edge(y))"), Pred("Edge", ("x",))})
    with pytest.raises(FomlError, match="no rule applies to a non-literal gamma"):
        _saturate(frozenset({"x", "y"}), gamma, ())


def test_end_rule_drops_boxes():
    g = frozenset({norm("P(x)"), norm("[] Q(x,x)")})
    s = frozenset({"x"})
    assert _saturate(s, g, ()) == (frozenset({norm("P(x)")}), "none", None)


def test_or_rule_offers_only_the_disjuncts_gamma_leaves_open():
    """A disjunct already in gamma, or one the two disjuncts are, is taken
    inside the node; so is the one disjunct whose complement is not in
    gamma, and when both complements are the node closes. Only an `or`
    that leaves both disjuncts open ends the saturation, as a choice."""
    p, q, r = norm("P(a)"), norm("Q(a)"), norm("R(a)")
    s = frozenset({"a"})

    def saturated(pivot, *others):
        gamma = frozenset({pivot, *others})
        assert select_rule(gamma, False) == ("or", pivot)
        return _saturate(s, gamma, ())

    p_or_q, not_p, not_q = norm("P(a) | Q(a)"), norm("~P(a)"), norm("~Q(a)")
    assert saturated(p_or_q, r) == (frozenset({p_or_q, r}), "or", p_or_q)
    assert saturated(p_or_q, q) == (frozenset({q}), "none", None)
    assert saturated(p_or_q, p, q) == (frozenset({p, q}), "none", None)
    assert saturated(norm("P(a) | P(a)")) == (frozenset({p}), "none", None)
    assert saturated(p_or_q, not_p) == (frozenset({not_p, q}), "none", None)
    assert saturated(p_or_q, not_q) == (frozenset({not_q, p}), "none", None)
    assert saturated(p_or_q, not_p, not_q) is None
    assert search(norm("(P(a) | Q(a)) & ~P(a) & ~Q(a)")).status == UNSAT


def test_flagship_is_satisfiable(phi1_result):
    # 76 nodes visited, 46 of them kept; a disjunct is tried only at an
    # `or` choice.
    assert phi1_result.status == SAT
    assert (phi1_result.stats.nodes, phi1_result.stats.or_attempts) == (76, 27)


def test_flagship_rebuilds_search_pinned_node_counts(monkeypatch, phi1, phi1_result):
    """The searches behind three extension rounds, node for node: a change
    that reorders the search moves these counts."""
    nodes = []

    def counted(*args):
        result = search(*args)
        nodes.append(result.stats.nodes)
        return result

    monkeypatch.setattr(foml.extraction, "search", counted)
    iterate_extensions(phi1, phi1_result.tableau, 3)
    assert nodes == [76, 114, 160]


def test_flagship_rebuilds_search_exactly_what_they_keep(
    monkeypatch, phi1, phi1_result
):
    """Each of six rebuilds visits exactly the nodes of the tableau it
    returns: the fresh element's successor world replays the hints of the
    old chain end's, renamed the leaf to the fresh element and shifted one
    step down the forest, where left-first search used to thrash, and an
    `or` node that gamma decides offers no disjunct that closes."""
    pairs = []

    def counted(*args):
        result = search(*args)
        kept = sum(1 for _ in result.tableau.walk())
        pairs.append((result.stats.nodes, kept))
        return result

    monkeypatch.setattr(foml.extraction, "search", counted)
    iterate_extensions(phi1, phi1_result.tableau, 6)
    assert pairs == [
        (76, 76), (114, 114), (160, 160),
        (214, 214), (276, 276), (346, 346),
    ]


# sha256 and size of certificate_to_json of the flagship's rebuilds in
# rounds 1-6.
REBUILD_CERTIFICATE_SHA256 = [
    "75f09ad1c585f16aca4d768ee162c606f57f996e297c684ede880a0e83ef2ec1",
    "e4e6df5131a9a66c173265fca10ffeb9d402ff174c28c056e192baff72f01324",
    "437f1c3994e8a94459f051513d872dd3ffd2d87c192d8b2aa6964747624704cb",
    "09e54a66731623bebac53f32a0a2cd8360418c9ea4e46d289288be67afe8a27a",
    "dc9e7121f87272668f445f98a577a9bf2f38bcacf3595cb276e22ba2c1d6a5ec",
    "0c35b5278814aa3422874179916fe8b89f81ddfd727598d64eb34920ba5757ab",
]
REBUILD_CERTIFICATE_BYTES = [3_437, 4_788, 6_378, 8_208, 10_278, 12_588]


def test_flagship_rebuild_certificates_are_pinned(monkeypatch, phi1, phi1_result):
    """The trees six rebuilds keep, byte for byte: hints may change how a
    rebuild searches, never what it returns."""
    certs = []

    def hashed(*args):
        result = search(*args)
        certs.append(certificate_to_json(result.tableau).encode())
        return result

    monkeypatch.setattr(foml.extraction, "search", hashed)
    iterate_extensions(phi1, phi1_result.tableau, 6)
    assert [hashlib.sha256(c).hexdigest() for c in certs] == REBUILD_CERTIFICATE_SHA256
    assert list(map(len, certs)) == REBUILD_CERTIFICATE_BYTES


def test_flagship_world_tree_shape(phi1_result):
    t = phi1_result.tableau
    worlds = sorted({w for w, _ in t.walk()})
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
        SearchLimits(max_forest_nodes=1),
    ]:
        assert search(phi1, limits).status == EXHAUSTED


def wide_forest(inner, outer):
    """`outer` conjuncts `exists ai . [] Ri(ai)` beside one nested universal
    `<> forall x . (...)` of `inner` conjuncts `exists yj . [] Pj(x, yj)`:
    EBBE, and the forest at r.0 grows with both."""
    body = " & ".join(f"(exists y{j} . [] P{j}(x, y{j}))" for j in range(inner))
    parts = [f"(exists a{i} . [] R{i}(a{i}))" for i in range(outer)]
    return norm(" & ".join(parts + [f"<> forall x . ({body})"]))


def test_a_wide_forest_is_decided():
    # The root, its diamond node, r.0 and its forest point: every other
    # step saturates inside one of them.
    res = search(wide_forest(4, 20))
    assert (res.status, res.stats.nodes) == (SAT, 4)


def test_a_wider_forest_is_decided():
    # About 500 same-world rules on one branch, all inside two nodes.
    res = search(wide_forest(4, 25))
    assert (res.status, res.stats.nodes) == (SAT, 4)


def wide_certificate(n):
    """bench/README.md's wide-certificate family: one world of about n
    literals and n disjuncts of which only the last is open."""
    negs = " & ".join(f"~Q{i}(x)" for i in range(n - 1))
    disj = " | ".join(f"(P(x) & Q{i}(x) & R(x,x))" for i in range(n))
    return norm(f"(exists x . [] ({negs} & ({disj}))) & (<> forall y . (P(y) | ~P(y)))")


def test_a_wide_certificate_is_decided_and_reads_back():
    # Each of the 399 closing disjuncts is an `or` choice that fails.
    res = search(wide_certificate(400))
    assert (res.status, res.stats.nodes, res.stats.or_attempts) == (SAT, 803, 799)
    text = certificate_to_json(res.tableau)
    assert certificate_to_json(certificate_from_json(text)) == text


def test_a_long_flat_conjunction_is_decided():
    # One `and` step per conjunct, all inside the root's one child.
    res = search(norm(" & ".join(f"P{i}(x)" for i in range(1500))))
    assert (res.status, res.stats.nodes) == (SAT, 2)


def test_the_widest_corpus_tree_is_decided_and_reads_back():
    """`GenConfig(seed=11, max_depth=6)` formula 236, the widest tree of the
    corpora in use: 9,704 worlds, and 180,408 `and`, `exists` and `forall`
    steps that saturate inside its 19,408 nodes. Its certificate reads
    back to the same tree. Every diamond order and all but a few `or`
    picks are the search's defaults, which the certificate leaves out."""
    cfg, rng = GenConfig(seed=11, max_depth=6), random.Random(11)
    for _ in range(237):
        theta = gen_formula(cfg, rng)
    res = search(theta)
    assert (res.status, res.stats.nodes) == (SAT, 19_408)
    text = certificate_to_json(res.tableau)
    assert len(text) <= 5_200
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert len({w for w, _ in again.walk()}) == 9_704

    def states(t):
        return [(w, n.gamma, n.s, n.pick) for w, n in t.walk()]

    assert states(again) == states(res.tableau)


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


def _kind(tableau, node):
    return select_rule(node.gamma, node in world_starts(tableau))[0]


def children_of(tableau, kind):
    """(world, child) in preorder for each child of a node whose
    `select_rule` kind is `kind`."""
    starts = world_starts(tableau)
    made = {
        id(c)
        for _, n in tableau.walk()
        if n.children and select_rule(n.gamma, n in starts)[0] == kind
        for c in n.children
    }
    return ((w, n) for w, n in tableau.walk() if id(n) in made)


def mutate_first(tableau, pred, fn):
    target = next(n for _, n in tableau.walk() if pred(n))

    def rebuild(node):
        if node is target:
            return fn(node)
        return replace(node, children=tuple(rebuild(c) for c in node.children))

    return rebuild(tableau)


def test_verifier_catches_corrupted_gamma(phi1, phi1_result):
    t = phi1_result.tableau
    _, child = next(children_of(t, "trivialSkolem"))
    bad = _corrupt(t, child, lambda n: replace(n, gamma=n.gamma | {norm("P(zz)")}))
    problems = verify_tableau(bad, phi1)
    assert any("unexpected gamma" in p for p in problems)


def test_verifier_catches_corrupted_forest(phi1, phi1_result):
    def truncate(n):
        forest = n.pick
        cut = SkolemForest(var=forest.var, psi=forest.psi, nodes=forest.nodes[:-1])
        return replace(n, pick=cut)

    t = phi1_result.tableau
    _, point = next(t.forest_points())
    bad = _corrupt(t, point, truncate)
    problems = verify_tableau(bad, phi1)
    assert problems and any("forest" in p for p in problems)


# The message the verifier gives when the first child of a node with each
# rule kind is corrupted.
KEPT_STEP_ERRORS = {
    kind: f"{kind} child 0 has an unexpected gamma"
    for kind in ("trivialSkolem", "or", "diamond", "nestedForall")
}
# The single-child rules, which run inside the saturated step that makes a
# node's child in its world.
INNER_RULES = ("and", "exists", "forall", "end")


def _inner_fault(tableau, rule):
    """The first step of `rule` inside a saturated step, as (world, the
    node, the node's rule, the formula a faulty `rule` would have left in
    gamma): its pivot, or for `end` a box, which is not in the child."""
    starts = world_starts(tableau)
    for w, n in tableau.walk():
        if not n.children or type(n.pick) is tuple:
            continue
        kind, steps, _ = ref_edge(n, n in starts)
        for k, pivot, before in steps:
            if k != rule:
                continue
            if k == "end":
                pivot = min((g for g in before if type(g) is Box), key=formula_key)
            if pivot not in n.children[0].gamma:
                return w, n, kind, pivot
    raise AssertionError(f"no {rule} step in the tree")


@pytest.mark.parametrize("kind", sorted([*KEPT_STEP_ERRORS, *INNER_RULES]))
def test_verifier_names_the_world_of_each_corrupted_rule(kind, phi1, phi1_result):
    """A corrupted child is reported at the world of the node whose step
    made it. A fault in a single-child rule sits inside a saturated step:
    the child keeps the rule's pivot, or `end` a box, and is reported as a
    corrupted child of the node whose step saturated it."""
    if kind == "end":
        theta = norm("P(x) & [] Q(x,x)")
        tableau = search(theta).tableau
    else:
        theta, tableau = phi1, phi1_result.tableau
    if kind in KEPT_STEP_ERRORS:
        world, child = next(children_of(tableau, kind))
        world = world[:-1] if kind == "diamond" else world
        extra, line = norm("P(zz)"), KEPT_STEP_ERRORS[kind]
    else:
        world, node, made_by, extra = _inner_fault(tableau, kind)
        child, line = node.children[0], KEPT_STEP_ERRORS[made_by]
    bad = mutate_first(
        tableau,
        lambda n: n is child,
        lambda n: replace(n, gamma=n.gamma | {extra}),
    )
    problems = verify_tableau(bad, theta)
    assert f"{render_world(world)}: {line}" in problems


def _first(tableau, pick):
    return next((w, n) for w, n in tableau.walk() if pick(w, n))


def _corrupt(tableau, target, fn):
    return mutate_first(tableau, lambda n: n is target, fn)


def _at(world, message):
    return f"{render_world(world)}: {message}"


# Each case corrupts the flagship certificate in one way and gives the exact
# line the verifier reports for it.
def _child_under_a_leaf(t):
    w, n = _first(t, lambda w, n: not n.children)
    bad = _corrupt(t, n, lambda n: replace(n, children=(n,)))
    return bad, _at(w, "children under a saturated node")


def _two_children(t):
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "or")
    bad = _corrupt(t, n, lambda n: replace(n, children=n.children * 2))
    return bad, _at(w, "or node has 2 children, its choice makes 1")


def _no_forest(t):
    w, n = next(t.forest_points())
    bad = _corrupt(t, n, lambda n: replace(n, pick=None))
    return bad, _at(w, "nestedForall node with a pick of None")


def _foreign_forest(t):
    w, n = next(t.forest_points())
    bad = _corrupt(t, n, lambda n: replace(n, pick=replace(n.pick, var="zz")))
    return bad, _at(w, "forest: forest was built for a different quantified formula")


def _list_var_forest(t):
    """A forest built in memory with a list for its `var` (the certificate
    reader rejects one in JSON) is reported, not raised on."""
    w, n = next(t.forest_points())
    bad = _corrupt(t, n, lambda n: replace(n, pick=replace(n.pick, var=["x"])))
    return bad, _at(w, "forest: forest was built for a different quantified formula")


def _forest_off_a_world_start(t):
    """The first `or` choice picks the first forest point's forest."""
    _, point = next(t.forest_points())
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "or")
    bad = _corrupt(t, n, lambda n: replace(n, pick=point.pick))
    return bad, _at(w, "forest pick at a node that starts no world")


def _leaf_with_a_forest(t):
    """A leaf that picks a forest, which `forest_points` would read as its
    world's."""
    _, point = next(t.forest_points())
    w, n = _first(t, lambda w, n: not n.children)
    bad = _corrupt(t, n, lambda n: replace(n, pick=point.pick))
    return bad, _at(w, "leaf with a pick")


def _domain_not_the_forest(t):
    w, n = next(children_of(t, "nestedForall"))
    bad = _corrupt(t, n, lambda n: replace(n, s=n.s | {"zz"}))
    return bad, _at(w, "nestedForall child 0 has an unexpected domain set")


def _missing_diamond_child(t):
    w, n = _first(t, lambda w, n: len(n.children) > 1 and _kind(t, n) == "diamond")
    k = len(n.children)
    bad = _corrupt(t, n, lambda n: replace(n, children=n.children[:-1]))
    return bad, _at(w, f"diamond node has {k - 1} children, its choice makes {k}")


def _diamond_pick_in_another_order(t):
    """The children stay, and the pick lists the diamonds the other way
    round."""
    w, n = _first(t, lambda w, n: len(n.children) > 1 and _kind(t, n) == "diamond")
    bad = _corrupt(t, n, lambda n: replace(n, pick=n.pick[::-1]))
    return bad, _at(w, "diamond child 0 has an unexpected gamma")


def _diamond_pick_repeats_a_diamond(t):
    w, n = _first(t, lambda w, n: len(n.children) > 1 and _kind(t, n) == "diamond")
    bad = _corrupt(t, n, lambda n: replace(n, pick=(n.pick[0],) * len(n.pick)))
    return bad, _at(w, "diamond pick does not list each diamond of gamma once")


def _or_pick_out_of_range(t):
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "or")
    bad = _corrupt(t, n, lambda n: replace(n, pick=2))
    return bad, _at(w, "or node with a pick of 2")


def _decided_or_kept(t):
    """Gamma holds the complement of the pivot's left disjunct, so the `or`
    is no choice."""
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "or")
    pivot = select_rule(n.gamma, False)[1]
    extra = nnf_complement(pivot.left)
    bad = _corrupt(t, n, lambda n: replace(n, gamma=n.gamma | {extra}))
    return bad, _at(w, "or node that gamma decides is kept as a choice")


def _forest_point_with_a_pick(t):
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "nestedForall")
    bad = _corrupt(t, n, lambda n: replace(n, pick=0))
    return bad, _at(w, "nestedForall node with a pick of 0")


def _cut_root(t):
    bad = _corrupt(t, t, lambda n: replace(n, children=()))
    return bad, "r: unsaturated leaf"


def _two_nested_universals(t):
    w, n = _first(t, lambda w, n: n.children and _kind(t, n) == "nestedForall")
    extra = norm("forall x. (forall y. <> P(x,y)) & Q(x)")
    bad = _corrupt(t, n, lambda n: replace(n, gamma=n.gamma | {extra}))
    return bad, _at(w, "multiple nested universals in one gamma")


@pytest.mark.parametrize(
    "corrupt",
    [
        _child_under_a_leaf,
        _two_children,
        _no_forest,
        _foreign_forest,
        _list_var_forest,
        _forest_off_a_world_start,
        _leaf_with_a_forest,
        _domain_not_the_forest,
        _missing_diamond_child,
        _diamond_pick_in_another_order,
        _diamond_pick_repeats_a_diamond,
        _or_pick_out_of_range,
        _decided_or_kept,
        _forest_point_with_a_pick,
        _cut_root,
        _two_nested_universals,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_verifier_reports_each_fault_at_its_world(corrupt, phi1, phi1_result):
    bad, line = corrupt(phi1_result.tableau)
    assert line in verify_tableau(bad, phi1)


def test_verifier_compares_the_root_with_init_root(phi1, phi1_result):
    root = phi1_result.tableau
    fresh = fresh_var(all_vars(phi1))
    fmp = norm("forall x . [] P(x)")
    for tampered, theta, message in [
        (replace(root, s=root.s - {fresh}), phi1, "root s differs"),
        (replace(root, gamma=root.gamma | {norm("P(zz)")}), phi1, "root gamma differs"),
        (root, fmp, "outside the decidable bundle (classified FMP-decidable)"),
    ]:
        problems = verify_tableau(tampered, theta)
        assert any(message in p for p in problems), problems


def test_verifier_refuses_a_theta_whose_kept_class_is_outside_ebbe(phi1_result):
    """The class `classify_fragment` keeps on theta is the one the
    verifier's `init_root` reads, and it still refuses theta."""
    fmp = norm("forall x . [] P(x)")
    assert classify_fragment(fmp).category == FMP_DECIDABLE
    problems = verify_tableau(phi1_result.tableau, fmp)
    assert "formula is outside the decidable bundle (classified FMP-decidable)" in problems


def test_crash_under_a_preferred_forest_is_not_unsat(monkeypatch):
    """An error inside the subtree of a preferred forest propagates, as it
    does without guidance, instead of counting as a failed candidate."""
    phi = norm("<> forall x . (exists y . [] P(x,y))")
    guidance = replay_guidance(search(phi).tableau)
    assert guidance.forest
    real = foml.tableau._saturate

    def broken(s, base, added):
        if not base:  # all of gamma is added: a forest's expansion
            raise FomlError("saturation crashed")
        return real(s, base, added)

    monkeypatch.setattr(foml.tableau, "_saturate", broken)
    with pytest.raises(FomlError, match="saturation crashed"):
        search(phi)
    with pytest.raises(FomlError, match="saturation crashed"):
        search(phi, guidance=guidance)


def test_certificate_round_trip(phi1, phi1_result):
    blob = certificate_to_json(phi1_result.tableau)
    again = certificate_from_json(blob)
    assert certificate_to_json(again) == blob
    assert verify_tableau(again, phi1) == []


def _formula_texts(doc) -> set[str]:
    """Every formula string in a certificate document: theta, and each
    forest's `psi` and atom members. Pivot and diamond keys are not parsed."""
    texts = {doc["theta"]}
    for _, forest in doc["forest"]:
        texts.add(forest["psi"])
        for n in forest["nodes"]:
            texts.update(n["atom"])
    return texts


def test_certificate_io_handles_each_distinct_formula_once(monkeypatch, phi1_result):
    """A flagship round trip prints each distinct formula of theta and the
    forests once and parses each distinct formula text once, however many
    forest nodes repeat it; no gamma is printed or parsed."""
    calls = {"parse": 0, "print": 0}

    def counted(name, real):
        def wrapper(arg):
            calls[name] += 1
            return real(arg)

        return wrapper

    monkeypatch.setattr(foml.tableau, "parse_formula", counted("parse", parse_formula))
    monkeypatch.setattr(
        foml.tableau, "print_formula", counted("print", foml.tableau.print_formula)
    )
    blob = certificate_to_json(phi1_result.tableau)
    certificate_from_json(blob)
    distinct = len(_formula_texts(json.loads(blob)))
    assert distinct == 5
    assert calls == {"parse": distinct, "print": distinct}


def test_certificate_is_one_line_and_reads_the_indented_format(phi1, phi1_result):
    """A certificate is one line of canonical JSON; one written indented
    reads back to the same tree."""
    t = phi1_result.tableau
    blob = certificate_to_json(t)
    assert blob == json.dumps(json.loads(blob), sort_keys=True) + "\n"
    assert blob.count("\n") == 1
    indented = json.dumps(json.loads(blob), sort_keys=True, indent=2) + "\n"
    again = certificate_from_json(indented)

    def states(t):
        return [(w, n.gamma, n.s, n.pick) for w, n in t.walk()]

    assert states(again) == states(t)
    assert verify_tableau(again, phi1) == []
    assert certificate_to_json(again) == blob


def test_certificate_read_back_walks_the_same_worlds(phi1_result):
    """A certificate names no world: the tableau read back from it walks
    the same (world, gamma, s) sequence, and diamond child i of a node at
    w sits at w + (i,), every other child at w. A child starts a world exactly
    when its parent's rule is `diamond`, whose pick is a tuple, which is
    what lets a node carry no rule; a forest point, an `or` choice and a
    diamond node carry only their `pick`. On the flagship and every SAT
    verdict of the seed-2026 corpus."""
    names = [f.name for f in fields(TableauNode)]
    assert names == ["gamma", "s", "children", "pick"]
    cfg, rng = GenConfig(seed=2026), random.Random(2026)
    tableaux = [phi1_result.tableau]
    for _ in range(1000):
        res = search(gen_formula(cfg, rng))
        if res.status == SAT:
            tableaux.append(res.tableau)
    assert len(tableaux) > 900

    def states(t):
        return [(w, n.gamma, n.s) for w, n in t.walk()]

    for t in tableaux:
        assert states(certificate_from_json(certificate_to_json(t))) == states(t)
        at = {id(n): w for w, n in t.walk()}
        starts = world_starts(t)
        for w, node in t.walk():
            kind = select_rule(node.gamma, node in starts)[0]
            diamond = bool(node.children) and kind == "diamond"
            for i, c in enumerate(node.children):
                assert (c in starts) == diamond
                assert at[id(c)] == (w + (i,) if diamond else w)


def test_stale_world_fields_in_a_certificate_are_ignored(phi1, phi1_result):
    """Keys the format does not define, such as a `world` or `rule` key on
    the document or on a forest node, read without error and move nothing:
    worlds come from the choices' index lists, rules from each node's
    state. The tree read back extends like the searched one."""
    doc = json.loads(certificate_to_json(phi1_result.tableau))
    doc["world"], doc["rule"] = "r.9", 7
    for node in doc["forest"][0][1]["nodes"]:
        node["world"] = "r.9"
    again = certificate_from_json(json.dumps(doc))
    assert [w for w, _ in again.walk()] == [w for w, _ in phi1_result.tableau.walk()]
    assert verify_tableau(again, phi1) == []
    _, loaded, _ = iterate_extensions(phi1, again, 1)
    _, direct, _ = iterate_extensions(phi1, phi1_result.tableau, 1)
    assert trace_to_ndjson(loaded) == trace_to_ndjson(direct)


def _with_field(doc, where, value):
    """The certificate `doc` as text, with the field at path `where` (keys
    and list indices from the document down) set to `value`."""
    doc = copy.deepcopy(doc)
    *path, last = where
    slot = doc
    for step in path:
        slot = slot[step]
    slot[last] = value
    return json.dumps(doc)


_FOREST = ("forest", 0, 1)
_FOREST_NODE = _FOREST + ("nodes", 0)


def test_certificate_rejects_malformed_documents():
    # A tree with a pick of the right disjunct and its diamonds out of key
    # order, so that the certificate lists both.
    phi = norm("(<> forall x. exists y. [] P(x,y)) & <> Q(z) & ([] Q(z) | R(z))")
    g = replay_guidance(search(phi).tableau)
    g.or_choice = dict.fromkeys(g.or_choice, 1)
    g.diamond_order = {w: keys[::-1] for w, keys in g.diamond_order.items()}
    small = search(phi, guidance=g)
    doc = json.loads(certificate_to_json(small.tableau))
    assert doc["or_choice"] and doc["forest"] and doc["diamond_order"]
    wrong_types = [
        (("nodes",), "7"),
        (("nodes",), True),
        (("nodes",), 0),
        # A string where a list belongs once read one character at a time.
        (("or_choice",), "x"),
        (("or_choice", 0), 5),
        (("or_choice", 0), [[]]),
        (("or_choice", 0, 0), "r"),
        (("or_choice", 0, 0), [True]),
        (("or_choice", 0, 1), 0),
        # The entry shape before defaults were left out.
        (("or_choice", 0), [[], "R(z)", 1]),
        (("forest", 0), [[0]]),
        (("diamond_order", 0, 1), "<>P"),
        (("diamond_order", 0, 1), [0]),
        (_FOREST + ("var",), ["x"]),
        (_FOREST + ("nodes",), "v0"),
        (_FOREST_NODE + ("name",), 0),
        (_FOREST_NODE + ("parent",), ["v0"]),
        (_FOREST_NODE + ("atom",), "P"),
        (_FOREST_NODE + ("children",), "v1"),
    ]
    twice = copy.deepcopy(doc)
    twice["or_choice"] *= 2
    texts = ["{", "{}", "[]", '{"theta": "P(x)"}', json.dumps(twice)]
    texts += [json.dumps({**doc, "theta": "P(x"})]
    texts += [_with_field(doc, *case) for case in wrong_types]
    for text in texts:
        with pytest.raises(FomlError, match="^malformed certificate: "):
            certificate_from_json(text)
    # A formula that is not a string fails in the parser, not in the memo.
    with pytest.raises(TypeError) as direct:
        parse_formula(["P(x)"])
    for where in [("theta",), _FOREST + ("psi",), _FOREST_NODE + ("atom", 0)]:
        with pytest.raises(FomlError) as err:
            certificate_from_json(_with_field(doc, where, ["P(x)"]))
        assert str(err.value) == f"malformed certificate: {direct.value}"


# Each case breaks the flagship certificate in one way and gives the exact
# error reading it back raises. A valid replay fails no state, so a choice
# that sends it down another way is named by the world of the first state
# that failed; the replay's node budget is the certificate's node count, and
# a replay that fails none but runs past it names the world where it ran out.
def _flipped_pick(doc):
    # The tree keeps the left disjunct of this `or`, so the entry is absent:
    # listing it flips the pick.
    pivot = "((<>P(v0,v1) & []P(v0,v1)) | ([]~P(v0,v1) & <>~P(v0,v1)))"
    doc["or_choice"].append([[0, 0], pivot])
    return "invalid certificate: the replay closed a node at r.0.0"


def _dropped_pick(doc):
    # A pick of the right disjunct: without it the replay keeps the left.
    assert doc["or_choice"].pop(0)[0] == [0, 0]
    return "invalid certificate: the replay closed a node at r.0.0"


def _dropped_forest(doc):
    # The replay settles on the first forest it enumerates, the same one.
    doc["forest"].clear()
    return "invalid certificate: forest at r.0 is missing"


def _listed_default_order(doc):
    # Each world's diamonds are in key order, so the certificate lists none,
    # and a listed default is refused, which keeps one certificate per tree.
    assert doc["diamond_order"] == []
    keys = replay_guidance(certificate_from_json(json.dumps(doc))).diamond_order[(0,)]
    assert keys == sorted(keys)
    doc["diamond_order"].append([[0], keys])
    return "invalid certificate: diamond_order at r.0 is never used"


def _unused_pick(doc):
    doc["or_choice"].append([[0, 0, 0], "P(v0)"])
    return "invalid certificate: or_choice at r.0.0.0 is never used"


def _decided_pick(doc):
    # At r.0.0.0 gamma holds ~P(v0,v0), so this `or` is no choice: the replay
    # keeps the disjunct gamma leaves open and reads no pick back.
    doc["or_choice"].append([[0, 0, 0], "((~P(v0,v0) | ~P(v0,v1)) | P(v0,v1))"])
    return "invalid certificate: or_choice at r.0.0.0 is never used"


def _foreign_forest(doc):
    small = search(norm("<> forall x. exists y. [] P(x,y)")).tableau
    doc["forest"][0][1] = json.loads(certificate_to_json(small))["forest"][0][1]
    return "invalid certificate: forest at r.0 differs from the replay's"


def _nodes_one_too_low(doc):
    doc["nodes"] -= 1
    return (
        "invalid certificate: the replay ran past its budget: tableau node "
        "budget exceeded at r.0.2.5 (work count 46)"
    )


def _nodes_one_too_high(doc):
    doc["nodes"] += 1
    return "invalid certificate: the replay visited 46 nodes, not 47"


def _swapped_theta(doc):
    doc["theta"] = "<> forall x. exists y. [] P(x, y)"
    return "invalid certificate: or_choice at r.0.0 is never used"


def _unsat_theta(doc):
    doc["theta"] = "P(x) & ~P(x)"
    return "invalid certificate: the replay closed a node at r"


def _tree_certificate(doc):
    """The format before choice certificates: the whole tree under `root`."""
    doc.clear()
    doc["root"] = {"gamma": ["P(x)"], "s": ["v0", "x"], "forest": "NotInit", "children": []}
    return (
        "certificate holds a whole tableau tree, a format no longer read: "
        "regenerate it with `foml sat`"
    )


@pytest.mark.parametrize(
    "corrupt",
    [
        _flipped_pick,
        _dropped_pick,
        _dropped_forest,
        _listed_default_order,
        _unused_pick,
        _decided_pick,
        _foreign_forest,
        _nodes_one_too_low,
        _nodes_one_too_high,
        _swapped_theta,
        _unsat_theta,
        _tree_certificate,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
def test_certificate_reader_reports_each_fault(corrupt, phi1_result):
    doc = json.loads(certificate_to_json(phi1_result.tableau))
    message = corrupt(doc)
    with pytest.raises(FomlError) as err:
        certificate_from_json(json.dumps(doc))
    assert str(err.value) == message
    assert not isinstance(err.value, ResourceLimit)


@pytest.fixture(scope="module")
def rule_trees(phi1, phi1_result):
    """The flagship's tree after 0-3 extension rounds, then every SAT tree
    of the seed-2026 corpus, n = 1000."""
    trees = [phi1_result.tableau]

    def kept(*args):
        result = search(*args)
        trees.append(result.tableau)
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(foml.extraction, "search", kept)
        iterate_extensions(phi1, phi1_result.tableau, 3)
    assert len(trees) == 4
    cfg, rng = GenConfig(seed=2026), random.Random(2026)
    for _ in range(1000):
        res = search(gen_formula(cfg, rng))
        if res.status == SAT:
            trees.append(res.tableau)
    assert len(trees) == 4 + 969
    return trees


def test_a_certificate_lists_no_default_choice(rule_trees):
    """An unguided search takes every world's diamonds in key order, the
    default a replay makes by itself, so no certificate of the seed-2026
    corpus lists a diamond order, and 1,200 nested `<>` write a
    certificate that grows with depth, not with its square."""
    for tree in rule_trees[4:]:
        assert json.loads(certificate_to_json(tree))["diamond_order"] == []
    deep = search(norm("<> " * 1200 + "P(x)")).tableau
    text = certificate_to_json(deep)
    assert len(text) < 10_000
    assert json.loads(text)["diamond_order"] == []
    assert certificate_to_json(certificate_from_json(text)) == text


def _mutants(tree):
    """(world, certificate) for each one-step change to the certificate of
    `tree`: at each `or` choice the entry added where the tree keeps the
    left disjunct, dropped where it keeps the right; each adjacent pair of
    a listed diamond order swapped; each forest node dropped."""
    doc = json.loads(certificate_to_json(tree))
    for w, _, kind, choice in read_choices(tree):
        if kind == "or":
            mutant = copy.deepcopy(doc)
            entry, listed = [list(w), formula_key(choice[0])], mutant["or_choice"]
            if entry in listed:
                listed.remove(entry)
            else:
                listed.append(entry)
            yield w, mutant
    for i, (w, keys) in enumerate(doc["diamond_order"]):
        for j in range(len(keys) - 1):
            mutant = copy.deepcopy(doc)
            order = mutant["diamond_order"][i][1]
            order[j], order[j + 1] = order[j + 1], order[j]
            yield tuple(w), mutant
    for i, (w, forest) in enumerate(doc["forest"]):
        for j in range(len(forest["nodes"])):
            mutant = copy.deepcopy(doc)
            del mutant["forest"][i][1]["nodes"][j]
            yield tuple(w), mutant


def test_each_certificate_mutant_is_refused_at_its_world_or_reads_back_sound(
    phi1, rule_trees
):
    """Every one-step change to the certificates of the flagship and of its
    rebuild in round 2, whose diamond orders are not in key order, is
    refused with a message naming the world it changed or one below, or
    reads back to a tree that passes `audit`: a flipped `or` pick closes a
    node at or below its world, and a swapped pair of diamonds renumbers
    two successor worlds of a tree that stands."""
    outcomes = []
    for tree in (rule_trees[0], rule_trees[2]):
        for w, mutant in _mutants(tree):
            try:
                again = certificate_from_json(json.dumps(mutant))
            except FomlError as err:
                named = re.findall(r"\br(?:\.\d+)*\b", str(err))
                at = render_world(w)
                assert any(n == at or n.startswith(at + ".") for n in named), err
                outcomes.append("refused")
            else:
                assert audit(again, phi1)[2] == []
                outcomes.append("reads back")
    assert (outcomes.count("refused"), outcomes.count("reads back")) == (42, 45)


def test_read_choices_matches_the_rule_reader(monkeypatch, rule_trees):
    """`read_choices` reads the choices off the tree, applying no rule, and
    lists what `ref_read_choices` finds by re-applying the rules one at a
    time: on the flagship after 0-3 extension rounds and on every SAT tree
    of the seed-2026 corpus."""
    trees = rule_trees
    want = [list(ref_read_choices(t)) for t in trees]
    picks = {c[1] for choices in want for _, _, kind, c in choices if kind == "or"}
    assert picks == {0, 1}

    def no_rule(*args):
        raise AssertionError("read_choices applied a rule")

    for name in (
        "select_rule", "_saturate", "_open_disjuncts", "diamond_outcomes",
        "_child_states", "_alternatives",
    ):
        monkeypatch.setattr(foml.tableau, name, no_rule)
    assert [list(read_choices(t)) for t in trees] == want


def test_a_diamond_node_keeps_the_order_the_search_used():
    """Both diamonds of `<>P & <>Q & []P & []Q` start the world {P, Q},
    so the children do not show which diamond each answers: the diamond
    node keeps the order the search used in `pick`, and the certificate
    lists that order where it is not the default, key order, and reads
    back to it."""
    phi = norm("<>P & <>Q & []P & []Q")
    for order in (["<>P", "<>Q"], ["<>Q", "<>P"]):
        res = search(phi, guidance=Guidance(diamond_order={(): order}))
        assert res.status == SAT
        (node,) = [n for _, n in res.tableau.walk() if isinstance(n.pick, tuple)]
        assert [formula_key(d) for d in node.pick] == order
        assert {c.gamma for c in node.children} == {frozenset({norm("P"), norm("Q")})}
        cert = certificate_to_json(res.tableau)
        listed = [] if order == sorted(order) else [[[], order]]
        assert json.loads(cert)["diamond_order"] == listed
        assert certificate_to_json(certificate_from_json(cert)) == cert
        assert verify_tableau(res.tableau, phi) == []


def test_flagship_or_choices_leave_both_disjuncts_open(monkeypatch, phi1, phi1_result):
    """Every `or` choice `read_choices` lists on the flagship after 0-3
    extension rounds is a node where gamma decides nothing: its disjuncts
    are two formulas, and neither they nor their complements are in the
    rest of gamma. Those choices number (k + 3)^2 after k rounds."""
    trees = [phi1_result.tableau]

    def kept(*args):
        result = search(*args)
        trees.append(result.tableau)
        return result

    monkeypatch.setattr(foml.extraction, "search", kept)
    iterate_extensions(phi1, phi1_result.tableau, 3)
    counts = []
    for t in trees:
        choices = [(node, c[0]) for _, node, kind, c in read_choices(t) if kind == "or"]
        counts.append(len(choices))
        for node, pivot in choices:
            rest = node.gamma - {pivot}
            assert pivot.left is not pivot.right
            for d in (pivot.left, pivot.right):
                assert d not in rest and nnf_complement(d) not in rest
    assert counts == [9, 16, 25, 36]


def test_flagship_rebuild_certificates_read_back_to_their_trees(
    monkeypatch, phi1, phi1_result
):
    """The search behind each of six extension rounds gives a tree whose
    certificate reads back to it, state for state and byte for byte, and
    the tree passes `audit`: two `or` nodes of one world whose pivots share
    an alpha key but keep different disjuncts would read back to another
    tree."""
    trees = [phi1_result.tableau]

    def kept(*args):
        result = search(*args)
        trees.append(result.tableau)
        return result

    monkeypatch.setattr(foml.extraction, "search", kept)
    iterate_extensions(phi1, phi1_result.tableau, 6)
    assert len(trees) == 7
    for t in trees:
        cert = certificate_to_json(t)
        assert certificate_to_json(certificate_from_json(cert)) == cert
        assert certificate_read_back_problems(t) == []
        assert audit(t, phi1)[2] == []


def test_guided_search_renders_no_world_name(monkeypatch, phi1, phi1_result):
    """Replay hints are keyed by world tuple, so a guided search names no
    world unless a budget runs out."""
    guidance = replay_guidance(phi1_result.tableau)
    rendered = []

    def counted(world):
        rendered.append(world)
        return render_world(world)

    monkeypatch.setattr(foml.tableau, "render_world", counted)
    assert search(phi1, guidance=guidance).status == SAT
    assert rendered == []


def test_tableau_structural_invariants(phi1_result):
    t = phi1_result.tableau
    first = {}
    for w, node in t.walk():
        first.setdefault(w, node)
    assert all(w == () or w[:-1] in first for w in first)
    assert {w: id(n) for w, n in first.items() if w} == {
        w: id(c) for w, c in children_of(t, "diamond")
    }
    starts = world_starts(t)
    for _, node in t.walk():
        if node not in starts:
            assert not any(
                isinstance(g, Forall) and is_nested_forall(g) for g in node.gamma
            )


def test_or_guidance_selects_requested_disjunct():
    phi = norm("P(a) | Q(a,a)")
    pivot_key = formula_key(phi)
    plain = search(phi)
    assert plain.status == SAT
    assert replay_guidance(plain.tableau).or_choice[((), pivot_key)] == 0
    guided = search(phi, guidance=Guidance(or_choice={((), pivot_key): 1}))
    assert guided.status == SAT
    assert replay_guidance(guided.tableau).or_choice[((), pivot_key)] == 1
    leaf = [n for w, n in guided.tableau.walk() if w == ()][-1]
    assert norm("Q(a,a)") in leaf.gamma


def test_diamond_guidance_reorders_successors():
    phi = norm("<> P(a) & <> Q(a,a)")
    dq = norm("<> Q(a,a)")
    plain = search(phi)
    assert plain.status == SAT
    order = replay_guidance(plain.tableau).diamond_order[()]
    assert order[0] == formula_key(norm("<> P(a)"))
    guided = search(phi, guidance=Guidance(diamond_order={(): [formula_key(dq)]}))
    assert guided.status == SAT
    assert replay_guidance(guided.tableau).diamond_order[()][0] == formula_key(dq)
    first_child = [n for w, n in guided.tableau.walk() if w == (0,)][-1]
    assert norm("Q(a,a)") in first_child.gamma


def test_limits_validation_and_derivation(phi1):
    with pytest.raises(ValueError):
        SearchLimits(max_forest_nodes=0)
    with pytest.raises(ValueError):
        SearchLimits(max_tableau_nodes=-3)
    derived = SearchLimits.derive(phi1)
    assert derived.max_forest_nodes >= 64
    # A theta not in NNF is refused as `search` refuses it.
    with pytest.raises(FragmentError, match="negation normal form"):
        SearchLimits.derive(parse_formula("<> forall x. ~(exists y. [] P(x,y))"))


def test_derived_limits_match_a_walk_over_every_path(phi1):
    """`derive` reads each distinct node once; the limits equal those of a
    walk that meets a shared subformula once per path, on the flagship and
    on every formula of the seed-2026 corpus."""

    def ref_derive(theta):
        cap = 64
        for sub in subformulas(theta):
            if isinstance(sub, Forall) and is_nested_forall(sub):
                cap = max(cap, forest_size_bound(sub, len(all_vars(theta)) + 2))
        return SearchLimits(max_forest_nodes=cap)

    cfg, rng = GenConfig(seed=2026), random.Random(2026)
    for theta in [phi1] + [gen_formula(cfg, rng) for _ in range(1000)]:
        assert SearchLimits.derive(theta) == ref_derive(theta)


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_clash_check_on_added_formulas_agrees_with_is_closed(seed):
    """From a random open gamma, `_saturate`, which checks each formula as
    it is added, closes exactly where one of the states `ref_saturate`
    passes through, each checked in full with `is_closed`, closes (or an
    `or` has no open disjunct), and otherwise ends at the same node."""
    rng = random.Random(seed)
    theta = gen_formula(GenConfig(seed=seed), rng)
    pool = list(dict.fromkeys(subformulas(theta)))
    pool += [nnf_complement(f) for f in pool if is_literal(f)]
    gamma = set()
    for f in rng.sample(pool, min(len(pool), rng.randint(1, 6))):
        if nnf_complement(f) not in gamma:
            gamma.add(f)
    gamma = frozenset(gamma)
    assert not is_closed(gamma)
    s = frozenset({"v0"}).union(*map(free_vars, gamma), *map(outer_ex_vars, gamma))
    added = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
    try:
        want = ref_saturate(gamma | set(added), s)[1]
    except FomlError:  # a binder of one member is free in another
        return
    if is_closed(gamma | set(added)):
        want = None
    assert _saturate(s, gamma, added) == want
