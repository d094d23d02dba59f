import hashlib
import json
import random

import pytest

from foml import clean_rename, parse_formula, search, to_nnf
from foml.formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    Not,
    Or,
    Pred,
    ResourceLimit,
)
from foml.kripke import KripkeModel, bounded_model_search, model_to_json
from foml.parser import print_formula
from foml.testgen import GenConfig, gen_formula

# The flagship formula: satisfiable, but only with an ever-growing local
# domain at the first successor world. Binders are pairwise distinct so
# normalization keeps their names.
PHI1_TEXT = (
    "<> forall x . (exists y . [][] P(x,y)) & [][] ~P(x,x)"
    " & <> forall w . ((<>P(x,w) <-> []P(x,w))"
    " & <> forall z . (P(x,w) & P(w,z) -> P(x,z)))"
)


# The corpora whose oracle results `tests/data/oracle_pins.jsonl` pins: the
# acceptance corpus and the deeper seed-7 corpus with the slow UNSAT tail.
ORACLE_PIN_CORPORA = (("2026/d4", 2026, 4), ("7/d5", 7, 5))
ORACLE_PIN_SIZE = 300
ORACLE_PIN_BOUNDS = (3, 2, 3)


def oracle_pins_text():
    """One JSON line per pinned formula: the oracle's status and, for a model,
    its world, assignment and the sha256 of its canonical JSON."""
    lines = []
    for name, seed, depth in ORACLE_PIN_CORPORA:
        rng = random.Random(seed)
        cfg = GenConfig(seed=seed, max_depth=depth)
        for i in range(ORACLE_PIN_SIZE):
            phi = gen_formula(cfg, rng)
            rec = {"corpus": name, "index": i, "formula": print_formula(phi)}
            try:
                found = bounded_model_search(phi, *ORACLE_PIN_BOUNDS)
                rec["status"] = "none" if found is None else "sat"
            except ResourceLimit:
                found = None
                rec["status"] = "resource"
            if found is not None:
                model, world, sigma = found
                digest = hashlib.sha256(model_to_json(model).encode()).hexdigest()
                rec.update(world=world, assignment=sigma, model_sha256=digest)
            lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def norm(text):
    return clean_rename(to_nnf(parse_formula(text)))


@pytest.fixture(scope="session")
def phi1():
    return norm(PHI1_TEXT)


@pytest.fixture(scope="session")
def phi1_result(phi1):
    res = search(phi1)
    assert res.status == "sat"
    return res


def subformulas(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        for name in ("left", "right", "body", "inner"):
            sub = getattr(f, name, None)
            if sub is not None and not isinstance(sub, str):
                stack.append(sub)


def random_raw_formula(rng, depth, scope):
    """Arbitrary well-formed formula, connectives unrestricted (not NNF)."""
    if depth <= 0 or rng.random() < 0.25:
        name = rng.choice(["P", "Q"])
        arity = 1 if name == "P" else 2
        return Pred(name, tuple(rng.choice(scope) for _ in range(arity)))
    kind = rng.choice(
        ["not", "and", "or", "implies", "iff", "exists", "forall", "box", "diamond"]
    )
    if kind == "not":
        return Not(random_raw_formula(rng, depth - 1, scope))
    if kind in ("and", "or", "implies", "iff"):
        a = random_raw_formula(rng, depth - 1, scope)
        b = random_raw_formula(rng, depth - 1, scope)
        # `->` and `<->` in the forms the parser gives them.
        if kind == "implies":
            return Or(Not(a), b)
        if kind == "iff":
            return Or(And(a, b), And(Not(a), Not(b)))
        return (And if kind == "and" else Or)(a, b)
    if kind in ("exists", "forall"):
        v = f"q{rng.randrange(3)}"
        ctor = Exists if kind == "exists" else Forall
        return ctor(v, random_raw_formula(rng, depth - 1, scope + [v]))
    ctor = Box if kind == "box" else Diamond
    return ctor(random_raw_formula(rng, depth - 1, scope))


def random_model(rng, max_worlds=3, max_elems=3, preds=(("P", 1), ("Q", 2))):
    """Small random tree model with monotone local domains."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    edges = {(worlds[rng.randrange(i)], worlds[i]) for i in range(1, n)}
    elems = [f"e{i}" for i in range(rng.randint(1, max_elems))]
    local = {}
    for i, w in enumerate(worlds):
        if i == 0:
            base = set(rng.sample(elems, rng.randint(1, len(elems))))
        else:
            parent = next(p for p, c in edges if c == w)
            base = set(local[parent])
            for e in elems:
                if rng.random() < 0.4:
                    base.add(e)
        local[w] = frozenset(base)
    valuation = {}
    for w in worlds:
        dom = sorted(local[w])
        for pname, ar in preds:
            tuples = set()
            for combo in _tuples(dom, ar):
                if rng.random() < 0.4:
                    tuples.add(combo)
            if tuples:
                valuation[(w, pname)] = frozenset(tuples)
    return KripkeModel(
        worlds=frozenset(worlds),
        domain=frozenset(elems),
        edges=frozenset(edges),
        local_domain=local,
        valuation=valuation,
    )


def _tuples(dom, arity):
    if arity == 0:
        return [()]
    out = [()]
    for _ in range(arity):
        out = [t + (d,) for t in out for d in dom]
    return out


def random_relevant_sigma(rng, model, world, fvs):
    dom = sorted(model.local_domain[world])
    return {v: rng.choice(dom) for v in fvs}


def world_starts(tree):
    """The nodes of `tree` that start a world: the root and each child of a
    diamond node, whose `pick` is its diamonds. Nodes hash by identity."""
    starts = {tree}
    for _, node in tree.walk():
        if type(node.pick) is tuple:
            starts.update(node.children)
    return starts
