import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foml.formulas
from conftest import norm, random_model, random_raw_formula, subformulas
from foml.formulas import (
    ORIGIN_SEP,
    And,
    ArityError,
    Box,
    Diamond,
    EBBE,
    Exists,
    FomlError,
    Forall,
    RULE_PRIORITY,
    Not,
    Or,
    Pred,
    all_vars,
    check_arities,
    classify_fragment,
    clean_rename,
    enumerate_atoms,
    formula_key,
    free_vars,
    fresh_var,
    instance,
    instances,
    is_clean,
    is_literal,
    is_module,
    is_nested_forall,
    is_nnf,
    nnf_complement,
    outer_ex_vars,
    rename_vars,
    rule_rank,
    skeleton_leaves,
    substitute,
    to_nnf,
)
from foml.kripke import check
from foml.parser import parse_formula, print_formula
from foml.tableau import SearchLimits
from foml.testgen import GenConfig, gen_formula
from oracles import (
    ref_all_vars,
    ref_binders,
    ref_check_arities,
    ref_classify_fragment,
    ref_clean_rename,
    ref_complement,
    ref_components,
    ref_free_vars,
    ref_is_nnf,
    ref_key,
    ref_outer_ex_vars,
    ref_rank,
    ref_skeleton_leaves,
    ref_substitute,
    ref_to_nnf,
)


def P(*args):
    return Pred("P", args)


def Q(*args):
    return Pred("Q", args)


# --- NNF -------------------------------------------------------------------


def test_nnf_de_morgan():
    phi = Not(And(P("x"), Q("x")))
    assert to_nnf(phi) == Or(Not(P("x")), Not(Q("x")))


def test_nnf_modal_dual():
    assert to_nnf(Not(Box(P("x")))) == Diamond(Not(P("x")))


def test_nnf_bundle_dual():
    phi = Not(Exists("x", Box(P("x"))))
    assert to_nnf(phi) == Forall("x", Diamond(Not(P("x"))))


def test_nnf_of_a_negated_biconditional_is_its_complement():
    # `~(P <-> Q)` normalizes to the complement of `(P & Q) | (~P & ~Q)`.
    phi = to_nnf(parse_formula("~(P <-> Q)"))
    p, q = Pred("P"), Pred("Q")
    assert phi == And(Or(Not(p), Not(q)), Or(p, q))
    assert print_formula(phi) == "(~P | ~Q) & (P | Q)"


def test_nnf_shape():
    phi = norm("~((P(x) -> Q(x,y)) <-> [] P(x))")
    assert is_nnf(phi)
    for sub in subformulas(phi):
        if isinstance(sub, Not):
            assert isinstance(sub.body, Pred)


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_nnf_idempotent(seed):
    phi = random_raw_formula(random.Random(seed), 4, ["x", "u"])
    once = to_nnf(phi)
    assert to_nnf(once) == once


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_nnf_preserves_semantics(seed):
    rng = random.Random(seed)
    phi = random_raw_formula(rng, 4, ["x", "u"])
    model = random_model(rng)
    world = rng.choice(sorted(model.worlds))
    dom = sorted(model.local_domain[world])
    sigma = {v: rng.choice(dom) for v in free_vars(phi)}
    assert check(model, world, sigma, phi) == check(model, world, sigma, to_nnf(phi))


def test_nnf_arity_clash_names_predicate():
    with pytest.raises(ArityError, match="P"):
        check_arities(And(P("x"), P("x", "y")))


# --- cleanliness -----------------------------------------------------------


def naive_is_clean(phi):
    seen = []
    for sub in subformulas(phi):
        if isinstance(sub, (Exists, Forall)):
            seen.append(sub.var)
    return len(seen) == len(set(seen)) and not (set(seen) & free_vars(phi))


def alpha_eq(a, b, env=None):
    env = env or {}
    if type(a) is not type(b):
        return False
    if isinstance(a, Pred):
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        return all(env.get(x, x) == y for x, y in zip(a.args, b.args))
    if isinstance(a, Not):
        return alpha_eq(a.body, b.body, env)
    if isinstance(a, (And, Or)):
        return alpha_eq(a.left, b.left, env) and alpha_eq(a.right, b.right, env)
    if isinstance(a, (Box, Diamond)):
        return alpha_eq(a.body, b.body, env)
    return alpha_eq(a.body, b.body, {**env, a.var: b.var})


def test_clean_rename_second_binder():
    phi = Or(Exists("x", Box(P("x"))), Forall("x", Diamond(Q("x", "x"))))
    out = clean_rename(phi)
    assert out == Or(
        Exists("x", Box(P("x"))), Forall("v0", Diamond(Q("v0", "v0")))
    )


def test_clean_rename_bound_and_free_clash():
    phi = And(P("x"), Box(Exists("x", Q("x", "x"))))
    out = clean_rename(phi)
    assert out == And(P("x"), Box(Exists("v0", Q("v0", "v0"))))


def test_clean_rename_fixed_point():
    phi = And(Exists("a", Box(P("a"))), Q("x", "x"))
    assert clean_rename(phi) == phi


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_clean_rename_properties(seed):
    rng = random.Random(seed)
    phi = random_raw_formula(rng, 5, ["x", "u"])
    out = clean_rename(phi)
    assert is_clean(out)
    assert naive_is_clean(out)
    assert alpha_eq(phi, out)
    assert free_vars(out) == free_vars(phi)


def test_clean_rename_gives_up_binder_names_with_the_separator():
    """Instance binders own `ORIGIN_SEP`: normalizing an input renames a
    binder that carries it, and keeps a free variable as it is."""
    phi = parse_formula("(forall x@v0. <> P(x@v0)) & Q(a@b, a@b)")
    assert str(clean_rename(phi)) == "((forall v0. <>P(v0)) & Q(a@b,a@b))"
    assert ORIGIN_SEP == "@"


def test_a_clean_input_is_its_own_result_without_a_rename_walk(monkeypatch):
    """`clean_rename` hands back a clean formula whose binders carry no
    `ORIGIN_SEP` without walking it; a reused binder and a binder named
    `b@e` are still renamed by the walk."""
    walked = []
    real = foml.formulas._rename
    monkeypatch.setattr(
        foml.formulas, "_rename", lambda phi, *rest: walked.append(phi) or real(phi, *rest)
    )
    clean = parse_formula("(exists x. [] P(x)) & <> forall y. Q(y, z)")
    assert clean_rename(clean) is clean and walked == []
    reused = Or(Exists("x", Box(P("x"))), Forall("x", Diamond(Q("x", "x"))))
    tagged = parse_formula("(forall x@v0. <> P(x@v0)) & Q(a@b, a@b)")
    assert str(clean_rename(reused)) == "((exists x. []P(x)) | (forall v0. <>Q(v0,v0)))"
    assert str(clean_rename(tagged)) == "((forall v0. <>P(v0)) & Q(a@b,a@b))"
    assert walked == [reused, tagged]


def test_instance_names_binders_by_origin():
    """A binder `b` in the instance at element `e` is `b@e`, and names grow
    by one element per enclosing instantiation. Each instance is made once
    per element and kept in the universal's cache."""
    q = norm("forall x. <> ((forall w. <> exists z. [] P(x,w,z)) & exists y. [] P(x,y,y))")
    at_v1 = instance(q, "v1")
    assert str(at_v1) == (
        "<>((forall w@v1. <>(exists z@v1. []P(v1,w@v1,z@v1)))"
        " & (exists y@v1. []P(v1,y@v1,y@v1)))"
    )
    assert instance(q, "v1") is at_v1 is instances(q)["v1"]
    inner = at_v1.body.left
    assert str(instance(inner, "v5")) == "<>(exists z@v1@v5. []P(v1,v5,z@v1@v5))"
    # A body whose free name is what a binder would become is refused.
    with pytest.raises(FomlError, match="would capture 'y@v1'"):
        instance(norm("forall x. <> exists y. [] P(x,y,y@v1)"), "v1")


def test_fresh_var_enumeration_order():
    assert fresh_var(frozenset()) == "v0"
    assert fresh_var(frozenset({"v0", "v1"})) == "v2"


def test_substitute_refuses_capture():
    phi = Exists("y", Q("x", "y"))
    with pytest.raises(FomlError):
        substitute(phi, {"x": "y"})
    assert substitute(phi, {"x": "z"}) == Exists("y", Q("z", "y"))


# --- free variables --------------------------------------------------------


def test_free_vars_all_bound():
    phi = Forall("x", Or(P("x"), Diamond(Exists("y", Q("x", "y")))))
    assert free_vars(phi) == frozenset()


def test_free_vars_mixed():
    phi = Forall("x", Exists("y", Or(P("x"), Diamond(Q("u", "y")))))
    assert free_vars(phi) == frozenset({"u"})


def test_free_vars_of_the_universal_body(phi1):
    body = phi1.body  # forall x. ...
    assert free_vars(body) == frozenset()
    assert free_vars(body.body) == frozenset({"x"})


# --- modules ----------------------------------------------------------------


def test_module_and_literal_predicates():
    assert is_module(Q("x", "y")) and is_literal(Q("x", "y"))
    assert is_module(Box(Forall("x", P("x"))))
    assert not is_literal(Box(Forall("x", P("x"))))
    both = And(P("x"), Q("x", "x"))
    assert not is_module(both) and not is_literal(both)


# --- outer existential variables -------------------------------------------


def test_outer_ex_vars_examples():
    phi = And(Exists("x", Box(P("x"))), Forall("y", Diamond(Q("y", "y"))))
    assert outer_ex_vars(phi) == frozenset({"x"})
    assert outer_ex_vars(Box(P("x"))) == frozenset()
    nested = Exists("x", Box(Exists("y", Box(Q("x", "y")))))
    assert outer_ex_vars(nested) == frozenset({"x"})


@given(st.integers(0, 100_000))
@settings(max_examples=500, deadline=None)
def test_outer_ex_vars_match_reference(seed):
    phi = to_nnf(random_raw_formula(random.Random(seed), 4, ["x", "u"]))
    assert outer_ex_vars(phi) == ref_outer_ex_vars(phi)


# --- nested universal detection --------------------------------------------


def test_nested_forall_flagship(phi1):
    assert is_nested_forall(phi1.body)


def test_non_nested_inner_universal(phi1):
    # the first diamond body inside the big conjunction quantifies over w
    # with no quantified component in scope
    conj = phi1.body.body
    inner = [
        s
        for s in subformulas(conj)
        if isinstance(s, Forall) and s.var == "w"
    ]
    assert inner and not is_nested_forall(inner[0])


def test_universal_over_module_not_nested():
    assert not is_nested_forall(Forall("x", Box(P("x"))))


@given(st.integers(0, 100_000))
@settings(max_examples=500, deadline=None)
def test_nested_forall_matches_reference(seed):
    phi = Forall("x", to_nnf(random_raw_formula(random.Random(seed), 4, ["x", "u"])))
    for sub in subformulas(phi):
        if isinstance(sub, Forall):
            comps = ref_components(sub.body)
            expect = any(isinstance(c, (Exists, Forall)) for c in comps)
            assert is_nested_forall(sub) == expect


def test_nested_forall_rejects_other_shapes():
    with pytest.raises((FomlError, ValueError)):
        is_nested_forall(Box(P("x")))


# --- atoms ------------------------------------------------------------------


from oracles import atoms_as_sets, brute_atoms


def test_atoms_two_way_choice():
    psi = norm(
        "((exists y . [] B(x,y,u)) | <> G(x,u)) & forall z . <> D(x,z)"
    )
    atoms = enumerate_atoms(psi)
    assert len(atoms) == 2
    assert atoms_as_sets(atoms) == brute_atoms(psi)
    tail = norm("forall z . <> D(x,z)")
    assert all(tail in a.members for a in atoms)


def test_atoms_pure_conjunction(phi1):
    psi = phi1.body.body
    atoms = enumerate_atoms(psi)
    assert len(atoms) == 1
    assert len(atoms[0].members) == 3
    assert atoms_as_sets(atoms) == brute_atoms(psi)


def test_atoms_single_literal():
    atoms = enumerate_atoms(P("x"))
    assert atoms_as_sets(atoms) == {frozenset({P("x")})}


def test_atoms_contradictory_branch_pruned():
    psi = Or(P("x"), And(Q("x", "x"), Not(Q("x", "x"))))
    assert atoms_as_sets(enumerate_atoms(psi)) == {frozenset({P("x")})}


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_atoms_match_brute_force(seed):
    phi = to_nnf(random_raw_formula(random.Random(seed), 4, ["x", "u"]))
    if len(ref_components(phi)) > 12:
        return
    assert atoms_as_sets(enumerate_atoms(phi)) == brute_atoms(phi)


def test_atom_exists_members_ordering(phi1):
    (atom,) = enumerate_atoms(phi1.body.body)
    ex = atom.exists_members
    assert len(ex) == 1 and isinstance(ex[0], Exists)


# --- fragment classification ------------------------------------------------


def test_classify_flagship(phi1):
    fc = classify_fragment(phi1)
    assert fc.category == EBBE
    assert fc.bundles_present == frozenset({"exists-box", "box-exists"})


def test_classify_single_bundle_subset():
    fc = classify_fragment(norm("<> forall x . P(x)"))
    assert fc.category == EBBE
    assert fc.bundles_present == frozenset({"box-exists"})


def test_classify_keeps_the_class_on_the_formula():
    phi = norm("<> forall x . P(x)")
    fc = classify_fragment(phi)
    assert classify_fragment(phi) is fc


def test_classify_unbundled():
    assert classify_fragment(Forall("x", P("x"))).category == "NotBundled"


def test_classify_no_quantifiers_is_in_fragment():
    assert classify_fragment(norm("[] P(x) & <> ~Q(x,x)")).category == EBBE


def test_classify_box_forall_family():
    for text in ["[] forall x . <> P(x)", "<> exists x . [] P(x)"]:
        fc = classify_fragment(norm(text))
        assert fc.category == "FMP-decidable"


def test_classify_forall_box_with_exists_box_is_fmp():
    fc = classify_fragment(norm("(exists x . [] P(x)) & forall y . [] Q(y,y)"))
    assert fc.category == "FMP-decidable"
    assert fc.bundles_present == frozenset({"exists-box", "forall-box"})


def test_classify_forall_box_with_box_exists_is_fmp():
    fc = classify_fragment(
        norm("([] exists x . P(x)) & forall y . [] Q(y,y)")
    )
    assert fc.category == "FMP-decidable"
    assert fc.bundles_present == frozenset({"forall-box", "box-exists"})


def test_classify_exists_box_with_box_forall_goes_undecidable():
    fc = classify_fragment(
        norm("(exists x . [] P(x)) & [] forall y . <> Q(y,y)")
    )
    assert fc.bundles_present == frozenset({"exists-box", "box-forall"})
    assert fc.category == "Undecidable"


@pytest.mark.parametrize(
    "text, bundles, category",
    [
        ("[] exists x . P(x)", {"box-exists"}, EBBE),
        ("<> exists x . P(x)", {"box-forall"}, "FMP-decidable"),
        ("exists x . [] P(x)", {"exists-box"}, EBBE),
        ("exists x . <> P(x)", {"forall-box"}, "FMP-decidable"),
        ("[] forall x . P(x)", {"box-forall"}, "FMP-decidable"),
        ("<> forall x . P(x)", {"box-exists"}, EBBE),
        ("forall x . [] P(x)", {"forall-box"}, "FMP-decidable"),
        ("forall x . <> P(x)", {"exists-box"}, EBBE),
        # The modality above wins over the one the body starts with.
        ("[] exists x . <> P(x)", {"box-exists"}, EBBE),
        ("exists x . P(x)", set(), "NotBundled"),
    ],
)
def test_classify_each_bundle_case(text, bundles, category):
    fc = classify_fragment(parse_formula(text))
    assert fc.bundles_present == frozenset(bundles)
    assert fc.category == category


# --- odds and ends -----------------------------------------------------------


def test_nnf_complement_involution():
    for phi in [P("x"), Not(P("x")), Box(P("x")), Diamond(Not(Q("x", "x")))]:
        assert nnf_complement(nnf_complement(phi)) == phi


def test_formula_keys_are_stable_strings():
    phi = norm("P(x) & <> Q(x,x)")
    assert formula_key(phi) == formula_key(norm("P(x) & <> Q(x,x)"))
    assert all_vars(phi) == frozenset({"x"})


def test_formula_key_fills_every_subformula_key_in_one_fold():
    """One `formula_key` call fills the key of every node below the one it
    is asked for: each sub-chain of a left-nested chain, and each
    subformula of the seed-2026 corpus, as the reference renderer gives it."""
    chain, chains = Pred("Fold0", ()), []
    for i in range(1, 300):
        chains.append(chain)
        chain = And(chain, Pred(f"Fold{i}", ("x",)))
    assert all(c._key is None for c in chains)
    want = "(" * 299 + "Fold0" + "".join(f" & Fold{i}(x))" for i in range(1, 300))
    assert formula_key(chain) == want
    for c in chains:
        assert c._key == ref_key(c)
    cfg, rng = GenConfig(seed=2026), random.Random(2026)
    for _ in range(1000):
        theta = gen_formula(cfg, rng)
        formula_key(theta)
        for f in subformulas(theta):
            assert f._key == ref_key(f)


# --- hash-consing ------------------------------------------------------------


def test_equal_structures_are_one_node():
    phi = And(P("x"), Exists("y", Q("x", "y")))
    assert And(P("x"), Exists("y", Q("x", "y"))) is phi
    assert Pred("P", ["x"]) is P("x")
    assert Or(P("x"), Exists("y", Q("x", "y"))) is not phi
    assert Forall("y", Q("x", "y")) is not Exists("y", Q("x", "y"))
    assert phi == And(P("x"), Exists("y", Q("x", "y")))
    assert phi != And(P("y"), Exists("y", Q("x", "y")))


def test_nodes_are_immutable():
    phi = And(P("x"), Q("x", "y"))
    with pytest.raises(AttributeError):
        phi.left = Q("y", "y")
    with pytest.raises(AttributeError):
        del phi.right
    with pytest.raises(AttributeError):
        phi._key = "P(x)"
    assert phi.left is P("x")


def test_copy_and_pickle_keep_interning():
    phi = norm("forall x. <> ((forall y. Q(x,y)) & exists y. ~P(y))")
    assert copy.copy(phi) is phi
    assert copy.deepcopy(phi) is phi
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(phi, protocol)) is phi


def deep_chains(n):
    """A left and a right `And` chain and a chain alternating Box, Exists
    and Or, each n deep and built with constructors in a loop."""
    left = right = mixed = P("x")
    for i in range(n):
        leaf = Q("x", f"y{i % 3}")
        left = And(left, leaf)
        right = And(leaf, right)
        mixed = (Box(mixed), Exists(f"z{i}", mixed), Or(mixed, leaf))[i % 3]
    return left, right, mixed


def test_deep_formula_hashes_compares_and_sits_in_a_set():
    deep = deep_chains(5000)[0]
    assert isinstance(hash(deep), int)
    again = deep_chains(5000)[0]
    assert again is deep and again == deep
    assert deep in {again}
    assert deep not in {deep_chains(4999)[0]}
    assert str(deep).count("&") == 5000


@pytest.mark.parametrize("which", ["left-and", "right-and", "box-exists-or"])
def test_every_formula_walk_runs_at_any_depth(which):
    deep = deep_chains(5000)[["left-and", "right-and", "box-exists-or"].index(which)]
    assert rule_rank(deep) == (RULE_PRIORITY[type(deep)], str(deep))
    assert free_vars(deep) >= {"x"} and all_vars(deep) >= free_vars(deep)
    assert nnf_complement(nnf_complement(deep)) is deep
    assert is_nnf(deep) and not is_nnf(Not(deep))
    assert to_nnf(deep) is deep and to_nnf(Not(deep)) is nnf_complement(deep)
    assert check_arities(deep) == {"P": 1, "Q": 2}
    assert outer_ex_vars(deep) <= {f"z{i}" for i in range(5000)}
    assert skeleton_leaves(deep) and enumerate_atoms(deep)
    assert classify_fragment(deep).category == EBBE
    assert SearchLimits.derive(deep).max_forest_nodes >= 64
    renamed = substitute(deep, {"x": "w"})
    assert "x" not in free_vars(renamed) and "w" in free_vars(renamed)
    assert is_clean(deep) and clean_rename(deep) is deep
    if which == "box-exists-or":
        # freeing the innermost binder's name renames it under the whole chain
        out = clean_rename(And(deep, P("z1")))
        assert is_clean(out) and out.left is rename_vars(deep, {"z1": "v0"})
        assert all_vars(out) - all_vars(deep) == {"v0"}


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_printed_formula_parses_back_to_the_same_node(seed):
    phi = random_raw_formula(random.Random(seed), 5, ["x", "u"])
    assert parse_formula(print_formula(phi)) is phi


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_complement_is_an_involution_on_nodes(seed):
    phi = to_nnf(random_raw_formula(random.Random(seed), 5, ["x", "u"]))
    compl = nnf_complement(phi)
    assert compl is ref_complement(phi)
    assert nnf_complement(compl) is phi


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_cached_fields_match_uncached_references(seed):
    rng = random.Random(seed)
    phi = random_raw_formula(rng, 5, ["x", "u"])
    # Fill caches below the root first, in random order, so that walks
    # over partly cached trees are exercised too.
    subs = list(subformulas(phi))
    rng.shuffle(subs)
    for f in subs[: rng.randint(0, len(subs))] + [phi]:
        assert str(f) == formula_key(f) == ref_key(f)
        assert free_vars(f) == ref_free_vars(f)
        assert all_vars(f) == ref_all_vars(f)
        assert rule_rank(f) == ref_rank(f)


def iff_chain(operands):
    """`a <-> b <-> ...` in the form the parser gives it: each operand's
    node is shared by both halves of its expansion."""
    phi = operands[-1]
    for op in reversed(operands[:-1]):
        phi = Or(And(op, phi), And(Not(op), Not(phi)))
    return phi


def outcome(walk, *args):
    """What walk returns, or the type and text of the error it raises."""
    try:
        return walk(*args)
    except (FomlError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_walkers_match_their_recursive_references(seed):
    """Each walk over the post-order agrees with the recursive walk it
    replaced, on trees and on nested `<->` whose shared operands hold
    quantifiers, errors and their text included."""
    rng = random.Random(seed)
    phi = random_raw_formula(rng, 5, ["x", "u"])
    if rng.random() < 0.5:
        ops = [random_raw_formula(rng, 3, ["x", "u"]) for _ in range(rng.randint(2, 4))]
        phi = iff_chain(ops + [phi])
    if rng.random() < 0.3:
        # an arity clash somewhere in the formula
        clash = Pred(rng.choice(["P", "Q"]), ("x",) * rng.choice([0, 3]))
        phi = (And(phi, clash), And(clash, phi), Box(Or(phi, clash)))[rng.randrange(3)]
    for walk, ref in (
        (check_arities, ref_check_arities),
        (to_nnf, ref_to_nnf),
        (classify_fragment, ref_classify_fragment),
        (skeleton_leaves, ref_skeleton_leaves),
    ):
        assert outcome(walk, phi) == outcome(ref, phi)
    assert is_nnf(phi) == ref_is_nnf(phi)
    bound = ref_binders(phi)
    clean = len(bound) == len(set(bound)) and not set(bound) & ref_free_vars(phi)
    assert is_clean(phi) == clean
    assert clean_rename(phi) is ref_clean_rename(phi)
    mapping = {v: rng.choice(["x", "u", "q0", "w"]) for v in rng.sample(["x", "u"], 2)}
    assert outcome(substitute, phi, mapping) == outcome(ref_substitute, phi, mapping)
    if not isinstance(outcome(to_nnf, phi), tuple):
        nnf = to_nnf(phi)
        assert outer_ex_vars(nnf) == ref_outer_ex_vars(nnf)
        assert skeleton_leaves(nnf) == ref_skeleton_leaves(nnf)


def test_clean_rename_gives_the_copies_of_a_shared_operand_distinct_binders():
    phi = parse_formula("(exists x. P(x)) <-> Q")
    for f in (phi, to_nnf(phi)):
        out = clean_rename(f)
        assert ref_binders(out) == ["x", "v0"]
        assert is_clean(out) and not is_clean(f)
