"""Finite increasing-domain Kripke models, the satisfaction checker, and a
brute-force bounded model finder used as an independent oracle.

Worlds carry local domains that only grow along edges. The existential
quantifier ranges over the local domain of the current world, the box over
all edge successors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Optional

from .formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    Formula,
    FomlError,
    Iff,
    Implies,
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
    """Finite increasing-domain model (W, D, R, delta, rho)."""

    worlds: frozenset[str]
    domain: frozenset[str]
    edges: frozenset[tuple[str, str]]
    local_domain: dict[str, frozenset[str]] = field(default_factory=dict)
    valuation: dict[tuple[str, str], frozenset[tuple[str, ...]]] = field(
        default_factory=dict
    )

    def successors(self, w: str) -> list[str]:
        return sorted(v for (u, v) in self.edges if u == w)

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
    for v in sorted(free_vars(phi), key=var_key):
        if v not in sigma or sigma[v] not in dom:
            raise RelevanceError(v, w)
    return _eval(model, w, dict(sigma), phi)


def _eval(model: KripkeModel, w: str, sigma: dict, phi: Formula) -> bool:
    if isinstance(phi, Pred):
        args = tuple(sigma[a] for a in phi.args)
        return args in model.facts(w, phi.name)
    if isinstance(phi, Not):
        return not _eval(model, w, sigma, phi.body)
    if isinstance(phi, And):
        return _eval(model, w, sigma, phi.left) and _eval(model, w, sigma, phi.right)
    if isinstance(phi, Or):
        return _eval(model, w, sigma, phi.left) or _eval(model, w, sigma, phi.right)
    if isinstance(phi, Implies):
        return (not _eval(model, w, sigma, phi.left)) or _eval(model, w, sigma, phi.right)
    if isinstance(phi, Iff):
        return _eval(model, w, sigma, phi.left) == _eval(model, w, sigma, phi.right)
    if isinstance(phi, Exists):
        saved = sigma.get(phi.var)
        for d in sorted(model.local_domain[w]):
            sigma[phi.var] = d
            if _eval(model, w, sigma, phi.body):
                _restore(sigma, phi.var, saved)
                return True
        _restore(sigma, phi.var, saved)
        return False
    if isinstance(phi, Forall):
        saved = sigma.get(phi.var)
        for d in sorted(model.local_domain[w]):
            sigma[phi.var] = d
            if not _eval(model, w, sigma, phi.body):
                _restore(sigma, phi.var, saved)
                return False
        _restore(sigma, phi.var, saved)
        return True
    if isinstance(phi, Box):
        return all(_eval(model, v, sigma, phi.body) for v in model.successors(w))
    return any(_eval(model, v, sigma, phi.body) for v in model.successors(w))


def _restore(sigma: dict, var: str, saved: Optional[str]) -> None:
    if saved is None:
        sigma.pop(var, None)
    else:
        sigma[var] = saved


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
    """Canonical serialization: keys and lists sorted, stable byte for byte."""
    return json.dumps(model_to_json_dict(model), sort_keys=True, indent=2) + "\n"


def model_from_json_dict(data: dict) -> KripkeModel:
    try:
        worlds = frozenset(data["worlds"])
        domain = frozenset(data["domain"])
        edges = frozenset((u, v) for u, v in data["edges"])
        delta = {w: frozenset(ds) for w, ds in data["delta"].items()}
        valuation: dict[tuple[str, str], set] = {}
        for w, facts in data["valuation"].items():
            for p, args in facts:
                valuation.setdefault((w, p), set()).add(tuple(args))
    except (KeyError, TypeError, ValueError) as exc:
        raise FomlError(f"malformed model document: {exc}") from exc
    return KripkeModel(
        worlds=worlds,
        domain=domain,
        edges=edges,
        local_domain=delta,
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )


def model_from_json(text: str) -> KripkeModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FomlError(f"malformed model document: {exc}") from exc
    return model_from_json_dict(data)


def _tree_shapes(n: int, max_depth: int) -> list[tuple[int, ...]]:
    """Parent vectors of rooted trees on n nodes, one per isomorphism class."""

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
    return shapes


def _eval3(model_facts: dict, delta: list[frozenset[str]], children: list[list[int]],
           w: int, sigma: dict, phi: Formula):
    """Three-valued evaluation of NNF under a partial valuation; None is unknown."""
    if isinstance(phi, Pred):
        return model_facts.get((w, phi.name, tuple(sigma[a] for a in phi.args)))
    if isinstance(phi, Not):
        r = _eval3(model_facts, delta, children, w, sigma, phi.body)
        return None if r is None else not r
    if isinstance(phi, (And, Or)):
        want = isinstance(phi, Or)
        l = _eval3(model_facts, delta, children, w, sigma, phi.left)
        if l is want:
            return want
        r = _eval3(model_facts, delta, children, w, sigma, phi.right)
        if r is want:
            return want
        if l is None or r is None:
            return None
        return not want
    if isinstance(phi, (Exists, Forall)):
        want = isinstance(phi, Exists)
        saved = sigma.get(phi.var)
        unknown = False
        result = not want
        for d in sorted(delta[w]):
            sigma[phi.var] = d
            r = _eval3(model_facts, delta, children, w, sigma, phi.body)
            if r is want:
                result = want
                break
            if r is None:
                unknown = True
        _restore(sigma, phi.var, saved)
        if result is want:
            return want
        return None if unknown else result
    want = isinstance(phi, Diamond)
    unknown = False
    for v in children[w]:
        r = _eval3(model_facts, delta, children, v, sigma, phi.body)
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
    variables, then valuations in lexicographic order (false before true),
    pruned by three-valued evaluation. The first satisfying triple in this
    canonical order is returned, or None when the whole space is exhausted.
    """
    if not is_nnf(phi):
        raise ValueError("oracle expects a formula in negation normal form")
    if min(max_worlds, max_domain, tree_depth) < 1:
        raise ValueError("all bounds must be at least 1")
    arities = check_arities(phi)
    preds = sorted(arities)
    fvars = sorted(free_vars(phi), key=var_key)
    steps = 0

    for n in range(1, max_worlds + 1):
        for parents in _tree_shapes(n, tree_depth):
            children: list[list[int]] = [[] for _ in range(n)]
            for i in range(1, n):
                children[parents[i]].append(i)
            for delta in _delta_assignments(parents, n, max_domain):
                found = _search_valuations(
                    phi, preds, arities, fvars, parents, children, delta,
                    max_steps, steps,
                )
                steps = found[1]
                if found[0] is not None:
                    return found[0]
    return None


def _delta_assignments(parents, n: int, max_domain: int):
    """Monotone local domains; new elements numbered in world order."""

    def elems(k: int, start: int) -> frozenset[str]:
        return frozenset(f"a{j}" for j in range(start, start + k))

    def assign(i: int, delta: list[frozenset[str]], used: int):
        if i == n:
            yield list(delta)
            return
        base = delta[parents[i]] if i > 0 else frozenset()
        low = 1 if i == 0 else 0
        for extra in range(low, max_domain - len(base) + 1):
            delta.append(base | elems(extra, used))
            yield from assign(i + 1, delta, used + extra)
            delta.pop()

    yield from assign(0, [], 0)


def _search_valuations(phi, preds, arities, fvars, parents, children, delta,
                       max_steps: int, steps: int):
    n = len(parents)
    root_dom = sorted(delta[0])
    atoms: list[tuple[int, str, tuple[str, ...]]] = []
    for w in range(n):
        for p in preds:
            tuples = product(sorted(delta[w]), repeat=arities[p])
            atoms.extend((w, p, t) for t in tuples)

    for sigma_vals in product(root_dom, repeat=len(fvars)):
        sigma = dict(zip(fvars, sigma_vals))
        facts: dict = {}

        def dfs(i: int, steps: int):
            steps += 1
            if steps > max_steps:
                raise ResourceLimit("oracle enumeration budget exceeded", steps)
            r = _eval3(facts, delta, children, 0, dict(sigma), phi)
            if r is False:
                return None, steps
            if r is True:
                for j in range(i, len(atoms)):
                    facts.setdefault(atoms[j], False)
                return _build_model(parents, delta, facts, preds), steps
            for b in (False, True):
                facts[atoms[i]] = b
                got, steps = dfs(i + 1, steps)
                if got is not None:
                    return got, steps
                del facts[atoms[i]]
            return None, steps

        model, steps = dfs(0, steps)
        if model is not None:
            return (model, "w0", dict(sigma)), steps
    return None, steps


def _build_model(parents, delta, facts, preds) -> KripkeModel:
    n = len(parents)
    worlds = frozenset(f"w{i}" for i in range(n))
    edges = frozenset((f"w{parents[i]}", f"w{i}") for i in range(1, n))
    valuation: dict[tuple[str, str], set] = {}
    for (w, p, t), val in facts.items():
        if val:
            valuation.setdefault((f"w{w}", p), set()).add(t)
    return KripkeModel(
        worlds=worlds,
        domain=frozenset().union(*delta) if delta else frozenset(),
        edges=edges,
        local_domain={f"w{i}": delta[i] for i in range(n)},
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )
