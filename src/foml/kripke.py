"""Finite increasing-domain Kripke models, the satisfaction checker, and a
brute-force bounded model finder used as an independent oracle.

Worlds carry local domains that only grow along edges. The existential
quantifier ranges over the local domain of the current world, the box over
all edge successors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import groupby, product
from typing import Mapping, Optional

from .formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    Formula,
    FomlError,
    Not,
    Or,
    Pred,
    ResourceLimit,
    check_arities,
    free_vars,
    is_nnf,
    var_key,
)

Assignment = Mapping[str, str]


class RelevanceError(FomlError):
    """An assignment maps a needed variable outside the world's domain."""

    def __init__(self, var: str, world: str):
        super().__init__(f"assignment for {var!r} is not in the domain of {world!r}")
        self.var = var


@dataclass(frozen=True, eq=True)
class KripkeModel:
    """Finite increasing-domain model (W, D, R, delta, rho). Each world's
    successors and its local domain as a sorted tuple are listed on first
    use and kept beside the fields, so `==`, `repr` and `model_to_json`
    never see them."""

    worlds: frozenset[str]
    domain: frozenset[str]
    edges: frozenset[tuple[str, str]]
    local_domain: dict[str, frozenset[str]] = field(default_factory=dict)
    valuation: dict[tuple[str, str], frozenset[tuple[str, ...]]] = field(
        default_factory=dict
    )

    def successors(self, w: str) -> tuple[str, ...]:
        """w's edge successors, sorted."""
        return self._successors.get(w, ())

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        by_source = groupby(sorted(self.edges), key=lambda edge: edge[0])
        return {u: tuple(v for _, v in edges) for u, edges in by_source}

    @cached_property
    def _sorted_domain(self) -> dict[str, tuple[str, ...]]:
        return {w: tuple(sorted(dom)) for w, dom in self.local_domain.items()}

    def facts(self, w: str, pred: str) -> frozenset[tuple[str, ...]]:
        return self.valuation.get((w, pred), frozenset())


def validate_model(model: KripkeModel) -> list[str]:
    """Check every model invariant; the returned list names each violation."""
    out: list[str] = []
    if not model.worlds:
        out.append("model has no worlds")
    if set(model.local_domain) != set(model.worlds):
        missing = set(model.worlds) - set(model.local_domain)
        extra = set(model.local_domain) - set(model.worlds)
        if missing:
            out.append(f"worlds without a local domain: {sorted(missing)}")
        if extra:
            out.append(f"local domains for unknown worlds: {sorted(extra)}")
    for w, dom in sorted(model.local_domain.items()):
        if not dom:
            out.append(f"empty local domain at {w!r}")
        if not dom <= model.domain:
            out.append(f"local domain of {w!r} leaves the global domain")
    for u, v in sorted(model.edges):
        if u not in model.worlds or v not in model.worlds:
            out.append(f"edge ({u!r}, {v!r}) mentions an unknown world")
            continue
        du = model.local_domain.get(u, frozenset())
        dv = model.local_domain.get(v, frozenset())
        if not du <= dv:
            out.append(
                f"domain shrinks along edge ({u!r}, {v!r}): {sorted(du - dv)} lost"
            )
    arity: dict[str, int] = {}
    for (w, p), tuples in sorted(model.valuation.items()):
        if w not in model.worlds:
            out.append(f"valuation at unknown world {w!r}")
            continue
        dom = model.local_domain.get(w, frozenset())
        for t in sorted(tuples):
            known = arity.setdefault(p, len(t))
            if known != len(t):
                out.append(f"predicate {p!r} used with arities {known} and {len(t)}")
            if not set(t) <= dom:
                out.append(f"fact {p}{t} at {w!r} uses elements outside its domain")
    return out


def check(model: KripkeModel, w: str, sigma: Assignment, phi: Formula) -> bool:
    """The inductive satisfaction relation at world w under assignment sigma."""
    dom = model.local_domain.get(w, frozenset())
    outside = [v for v in free_vars(phi) if v not in sigma or sigma[v] not in dom]
    if outside:
        raise RelevanceError(min(outside, key=var_key), w)
    return _eval(model, w, sigma, phi)


def _eval(model: KripkeModel, w: str, sigma: Assignment, phi: Formula) -> bool:
    kind = type(phi)
    if kind is Pred:
        return tuple(sigma[a] for a in phi.args) in model.facts(w, phi.name)
    if kind is Not:
        return not _eval(model, w, sigma, phi.body)
    if kind is And or kind is Or:
        # A chain of one connective is walked in a loop, left to right, so
        # its length costs no depth; the first operand that decides it ends it.
        decides = kind is Or
        stack = [phi]
        while stack:
            node = stack.pop()
            if type(node) is kind:
                stack += (node.right, node.left)
            elif _eval(model, w, sigma, node) is decides:
                return decides
        return not decides
    if kind is Exists or kind is Forall:
        decides = kind is Exists
        for d in model._sorted_domain[w]:
            if _eval(model, w, {**sigma, phi.var: d}, phi.body) is decides:
                return decides
        return not decides
    decides = kind is Diamond
    for v in model.successors(w):
        if _eval(model, v, sigma, phi.body) is decides:
            return decides
    return not decides


def model_to_json_dict(model: KripkeModel) -> dict:
    per_world: dict[str, list] = {w: [] for w in model.worlds}
    for (w, p), tuples in model.valuation.items():
        for t in tuples:
            per_world[w].append([p, list(t)])
    return {
        "worlds": sorted(model.worlds),
        "edges": sorted([u, v] for (u, v) in model.edges),
        "domain": sorted(model.domain),
        "delta": {w: sorted(model.local_domain[w]) for w in sorted(model.worlds)},
        "valuation": {w: sorted(per_world[w]) for w in sorted(model.worlds)},
    }


def model_to_json(model: KripkeModel) -> str:
    """Canonical serialization, one line: keys and lists sorted, stable byte
    for byte. `model_from_json` reads any layout, indented files too."""
    return json.dumps(model_to_json_dict(model), sort_keys=True) + "\n"


_MODEL_KEYS = ["delta", "domain", "edges", "valuation", "worlds"]


def checked(data, kind: type, what: str):
    """data, if its JSON type is kind; a TypeError naming what was expected
    otherwise."""
    if type(data) is not kind:
        raise TypeError(f"expected {what}, got {data!r}")
    return data


def names(data) -> tuple[str, ...]:
    return tuple(checked(x, str, "a name") for x in checked(data, list, "a list"))


def model_from_json(text: str) -> KripkeModel:
    """Read a model document; a document of any other shape than the one
    `model_to_json` writes is a FomlError."""
    try:
        data = checked(json.loads(text), dict, "an object")
        if sorted(data) != _MODEL_KEYS:
            raise ValueError(f"expected the keys {_MODEL_KEYS}, got {sorted(data)}")
        edges = checked(data["edges"], list, "a list of edges")
        valuation: dict[tuple[str, str], set] = {}
        for w, facts in checked(data["valuation"], dict, "an object").items():
            for fact in checked(facts, list, "a list of facts"):
                p, args = checked(fact, list, "a [predicate, arguments] pair")
                key = (w, checked(p, str, "a predicate name"))
                valuation.setdefault(key, set()).add(names(args))
        return KripkeModel(
            worlds=frozenset(names(data["worlds"])),
            domain=frozenset(names(data["domain"])),
            edges=frozenset((u, v) for u, v in map(names, edges)),
            local_domain={
                w: frozenset(names(ds))
                for w, ds in checked(data["delta"], dict, "an object").items()
            },
            valuation={k: frozenset(v) for k, v in valuation.items()},
        )
    except (TypeError, ValueError) as exc:
        raise FomlError(f"malformed model document: {exc}") from exc


@cache
def _tree_shapes(n: int, max_depth: int) -> tuple[tuple[int, ...], ...]:
    """Parent vectors of rooted trees on n nodes, one per isomorphism class;
    made once per (n, max_depth)."""

    def canon(parents: tuple[int, ...]) -> tuple:
        children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parents):
            if i > 0:
                children[p].append(i)

        def encode(i: int) -> tuple:
            return tuple(sorted(encode(c) for c in children[i]))

        return encode(0)

    shapes = []
    seen: set[tuple] = set()

    def build(parents: list[int], depth: list[int]) -> None:
        i = len(parents)
        if i == n:
            c = canon(tuple(parents))
            if c not in seen:
                seen.add(c)
                shapes.append(tuple(parents))
            return
        for p in range(i):
            if depth[p] + 1 > max_depth:
                continue
            parents.append(p)
            depth.append(depth[p] + 1)
            build(parents, depth)
            parents.pop()
            depth.pop()

    build([0], [1])
    return tuple(shapes)


_OR_LIKE = frozenset({Or, Exists, Diamond})
_AND_LIKE = frozenset({And, Forall, Box})


def _ground(phi: Formula, w: int, sigma: dict, delta: list,
            children: list[list[int]], atom_ids: dict):
    """Expand NNF phi at world w into a folded propositional DAG.

    A node is True, False, a literal (2 * atom id, plus 1 when negated; ids
    are handed out in `atom_ids`, keyed (world, predicate, tuple)), or
    (is_or, parts) with at least two parts. Quantifiers become Or/And over
    the local domain, in the order `delta` lists it, and modalities Or/And
    over the children.

    The Or-like nodes (Or, Exists, Diamond) below an Or-like phi are walked
    in one loop, as are the And-like ones below an And-like phi, and so are
    the literals under them, so a chain of them costs no depth. Parts are folded as if each node were folded on
    its own: constants absorb or drop, duplicates drop, and grounding stops
    at the first part that decides a node, or at the end of the first node
    that holds a literal and its complement. `out` maps each part to the
    index of its latest occurrence, `met` is the latest index of a
    complement met, and an int on the stack ends the node that starts at
    that index.
    """
    is_or = type(phi) in _OR_LIKE
    same = _OR_LIKE if is_or else _AND_LIKE
    out: dict = {}
    met, at = -1, 0
    stack: list = [(phi, w, sigma)]
    while stack:
        item = stack.pop()
        if type(item) is int:
            if met >= item:
                return is_or
            continue
        node, v, s = item
        kind = type(node)
        if kind is Pred or kind is Not:
            atom = node.body if kind is Not else node
            key = (v, atom.name, tuple(s[a] for a in atom.args))
            part = 2 * atom_ids.setdefault(key, len(atom_ids)) + (kind is Not)
        elif kind in same:
            stack.append(at)
            if kind is Or or kind is And:
                stack += ((node.right, v, s), (node.left, v, s))
            elif kind is Exists or kind is Forall:
                stack += [(node.body, v, {**s, node.var: d}) for d in reversed(delta[v])]
            else:
                stack += [(node.body, u, s) for u in reversed(children[v])]
            continue
        else:
            part = _ground(node, v, s, delta, children, atom_ids)
            if type(part) is bool:
                if part is is_or:
                    return is_or
                continue
        for p in part[1] if type(part) is tuple and part[0] is is_or else (part,):
            if type(p) is int and (p ^ 1) in out:
                met = max(met, out[p ^ 1])
            out[p] = at
            at += 1
    if len(out) < 2:
        return next(iter(out), not is_or)
    return (is_or, tuple(out))


def _dag_atoms(node, out: set) -> set:
    if type(node) is int:
        out.add(node >> 1)
    elif type(node) is tuple:
        for part in node[1]:
            _dag_atoms(part, out)
    return out


def _kleene(node, val: list):
    """Three-valued value of a ground DAG; val[i] is atom i's value or None."""
    if type(node) is int:
        v = val[node >> 1]
        return v if v is None or not node & 1 else not v
    if type(node) is bool:
        return node
    want, parts = node
    unknown = False
    for part in parts:
        r = _kleene(part, val)
        if r is want:
            return want
        if r is None:
            unknown = True
    return None if unknown else not want


def bounded_model_search(
    phi: Formula,
    max_worlds: int,
    max_domain: int,
    tree_depth: int,
    max_steps: int = 5_000_000,
) -> Optional[tuple[KripkeModel, str, dict[str, str]]]:
    """Exhaustive search for a satisfying model over tree-shaped frames.

    Enumerates rooted tree frames up to the bounds, monotone local domains
    with canonically numbered elements, root assignments of the free
    variables, then valuations in lexicographic order (false before true).
    Theta is grounded once per frame, pruned by three-valued evaluation of
    the folded DAG; a frame here is a tree with its local domains and root
    assignment, and atoms the DAG does not mention stay false. The first
    satisfying triple in this canonical order is returned, or None when the
    whole space is exhausted. Each valuation search step counts against
    `max_steps`.
    """
    if not is_nnf(phi):
        raise ValueError("oracle expects a formula in negation normal form")
    if min(max_worlds, max_domain, tree_depth) < 1:
        raise ValueError("all bounds must be at least 1")
    check_arities(phi)
    fvars = sorted(free_vars(phi), key=var_key)
    steps = 0

    for n in range(1, max_worlds + 1):
        for parents in _tree_shapes(n, tree_depth):
            children: list[list[int]] = [[] for _ in range(n)]
            for i in range(1, n):
                children[parents[i]].append(i)
            for delta in _delta_assignments(parents, max_domain):
                for sigma_vals in product(delta[0], repeat=len(fvars)):
                    sigma = dict(zip(fvars, sigma_vals))
                    model, steps = _search_valuations(
                        phi, sigma, parents, children, delta, max_steps, steps
                    )
                    if model is not None:
                        return model, "w0", sigma
    return None


@cache
def _delta_assignments(parents: tuple[int, ...], max_domain: int) -> tuple:
    """Monotone local domains, each a sorted tuple, new elements numbered in
    world order; they depend on no formula, so they are made once per
    (parents, max_domain)."""
    n, out = len(parents), []

    def assign(i: int, delta: list[tuple[str, ...]], used: int) -> None:
        if i == n:
            out.append(tuple(delta))
            return
        base = delta[parents[i]] if i > 0 else ()
        for extra in range(1 if i == 0 else 0, max_domain - len(base) + 1):
            new = tuple(f"a{j}" for j in range(used, used + extra))
            delta.append(tuple(sorted(base + new)))
            assign(i + 1, delta, used + extra)
            delta.pop()

    assign(0, [], 0)
    return tuple(out)


def _search_valuations(phi, sigma, parents, children, delta,
                       max_steps: int, steps: int):
    """The least valuation, in (world, predicate, tuple) order with false
    before true, that satisfies phi at w0 under sigma on this frame: a
    depth-first search with atoms ids[:i] set, one step per evaluation of
    the DAG."""
    atom_ids: dict[tuple[int, str, tuple[str, ...]], int] = {}
    dag = _ground(phi, 0, sigma, delta, children, atom_ids)
    order: list = []
    if type(dag) is not bool:  # a constant is decided by the first step
        used = _dag_atoms(dag, set())
        order = sorted(a for a, i in atom_ids.items() if i in used)
    ids = [atom_ids[a] for a in order]
    val: list = [None] * len(atom_ids)
    i = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise ResourceLimit("oracle enumeration budget exceeded", steps)
        r = _kleene(dag, val)
        if r is None:
            val[ids[i]] = False
            i += 1
            continue
        if r:
            break
        # Back to the deepest atom still false, which turns true.
        while i and val[ids[i - 1]]:
            i -= 1
            val[ids[i]] = None
        if not i:
            return None, steps
        val[ids[i - 1]] = True
    true_atoms = [a for a in order if val[atom_ids[a]]]
    return _build_model(parents, delta, true_atoms), steps


def _build_model(parents, delta, true_atoms) -> KripkeModel:
    n = len(parents)
    worlds = frozenset(f"w{i}" for i in range(n))
    edges = frozenset((f"w{parents[i]}", f"w{i}") for i in range(1, n))
    valuation: dict[tuple[str, str], set] = {}
    for w, p, t in true_atoms:
        valuation.setdefault((f"w{w}", p), set()).add(t)
    return KripkeModel(
        worlds=worlds,
        domain=frozenset().union(*delta),
        edges=edges,
        local_domain={f"w{i}": frozenset(delta[i]) for i in range(n)},
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )
