"""Model extraction from open tableaux and the iterative extension loop.

An open saturated tableau induces a finite model: worlds are the tableau's
world names, the domain at a world is its final variable set, and facts are
the positive literals left at the world's last node. Forest leaves that owe
an existential witness mark where this finite model falls short; extending
the forest at such a leaf and rebuilding yields the next, strictly larger
model in the chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .formulas import (
    Formula,
    FomlError,
    Pred,
    all_vars,
    formula_key,
    free_vars,
    is_literal,
    substitute,
    var_key,
)
from .forest import SkolemForest, extend_forest
from .kripke import KripkeModel, check, model_to_json_dict
from .tableau import (
    Guidance,
    SAT,
    SearchLimits,
    Tableau,
    TableauNode,
    is_closed,
    render_world,
    replay_guidance,
    search,
)

SATISFIED = "Satisfied"
RESIDUAL = "ResidualViolations"


@dataclass(frozen=True)
class ExtensionStep:
    iteration: int
    world: str
    leaf: str
    fresh: tuple[str, ...]


@dataclass
class ExtensionTrace:
    steps: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)


def extract_model(tableau: Tableau) -> KripkeModel:
    """The finite model read off the last node of every world."""
    last: dict[tuple[int, ...], TableauNode] = {}
    for node in tableau.walk():
        if is_closed(node.gamma):
            raise FomlError("tableau is not open")
        if not node.children and any(not is_literal(g) for g in node.gamma):
            raise FomlError("tableau is not saturated")
        last[node.world] = node

    worlds = frozenset(render_world(w) for w in last)
    local: dict[str, frozenset[str]] = {}
    valuation: dict[tuple[str, str], set] = {}
    for w, node in last.items():
        name = render_world(w)
        if isinstance(node.forest, SkolemForest):
            local[name] = frozenset(node.forest.names())
        else:
            local[name] = frozenset(node.s)
        for g in node.gamma:
            if isinstance(g, Pred):
                valuation.setdefault((name, g.name), set()).add(tuple(g.args))
    edges = frozenset(
        (render_world(w), render_world(v))
        for w in last
        for v in last
        if len(v) == len(w) + 1 and v[: len(w)] == w
    )
    return KripkeModel(
        worlds=worlds,
        domain=frozenset().union(*local.values()),
        edges=edges,
        local_domain=local,
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )


def find_leaf_violations(
    tableau: Tableau, model: KripkeModel
) -> list[tuple[TableauNode, str, Formula]]:
    """Forest leaves whose existential obligations the model fails to meet.

    Sorted nearest-to-root first, ties by world name then leaf variable, so
    the head of the list is the canonical leaf to extend next.
    """
    out = []
    for node in tableau.walk():
        if node.rule != "nestedForall" or not isinstance(node.forest, SkolemForest):
            continue
        world = render_world(node.world)
        for leaf in node.forest.leaves():
            for member in leaf.atom.exists_members:
                inst = substitute(member, {node.forest.var: leaf.name})
                sigma = {v: v for v in free_vars(inst)}
                if not check(model, world, sigma, inst):
                    out.append((node, leaf.name, inst))
    out.sort(
        key=lambda t: (
            len(t[0].world),
            render_world(t[0].world),
            var_key(t[1]),
            formula_key(t[2]),
        )
    )
    return out


def extend_tableau(
    tableau: Tableau,
    node: TableauNode,
    leaf: str,
    limits: Optional[SearchLimits] = None,
) -> Tableau:
    """Grow the node's forest at the leaf and rebuild the tableau around it.

    The rebuild replays the choices read off the tree by `replay_guidance`,
    so a tableau read back with `certificate_from_json` extends like the one
    search returned: the extended world is forced to take the grown forest,
    other worlds prefer their previous forests and disjunct picks, and
    surviving diamond successors keep their old indices so world names stay
    stable. Falls back to unguided backtracking (with the forest still
    forced) before giving up.
    """
    if node.rule != "nestedForall" or not isinstance(node.forest, SkolemForest):
        raise FomlError("extension target must carry a skolem forest")
    # The fresh node name must dodge every variable the old tableau ever
    # used, binders included: expansion freshens instance binders against
    # the forest's names, so reusing one would shift renames at untouched
    # nodes and with them the diamond keys that pin world identities.
    avoid: set[str] = set()
    for n in tableau.walk():
        avoid |= set(n.s)
        for g in n.gamma:
            avoid |= all_vars(g)
    grown = extend_forest(node.forest, leaf, avoid)
    wname = render_world(node.world)

    guided = replay_guidance(tableau)
    guided.forest_prefer.pop(wname, None)
    guided.forest_override[wname] = grown
    if limits is None:
        limits = SearchLimits.derive(tableau.theta)
    result = search(tableau.theta, limits, guided)
    if result.status != SAT:
        bare = Guidance(forest_override={wname: grown})
        result = search(tableau.theta, limits, bare)
    if result.status != SAT:
        raise FomlError(
            f"extension rebuild failed at {wname} leaf {leaf!r} "
            f"({result.status})"
        )
    return result.tableau


def _monotone_violations(old: KripkeModel, new: KripkeModel) -> list[str]:
    out = []
    if not old.worlds <= new.worlds:
        out.append("worlds were lost")
    if not old.edges <= new.edges:
        out.append("edges were lost")
    for w in sorted(old.worlds & new.worlds):
        if not old.local_domain[w] <= new.local_domain[w]:
            out.append(f"local domain shrank at {w!r}")
    for key, tuples in old.valuation.items():
        if key[0] in new.worlds and not tuples <= new.valuation.get(key, frozenset()):
            out.append(f"facts lost for {key}")
    return out


def iterate_extensions(
    theta: Formula,
    tableau: Tableau,
    k: int,
    limits: Optional[SearchLimits] = None,
) -> tuple[KripkeModel, ExtensionTrace, str]:
    """Up to k rounds of extract, locate violations, extend at the nearest.

    Stops early with Satisfied once no leaf violation remains (the root check
    is asserted to pass then); otherwise reports ResidualViolations with the
    last model and the full trace of snapshots.
    """
    if k < 0:
        raise ValueError("extension count must be non-negative")
    trace = ExtensionTrace()
    current = tableau
    model = extract_model(current)
    trace.snapshots.append(model)

    for i in range(k):
        violations = find_leaf_violations(current, model)
        if not violations:
            _assert_root(theta, model)
            return model, trace, SATISFIED
        node, leaf, _ = violations[0]
        current = extend_tableau(current, node, leaf, limits)
        new_model = extract_model(current)
        bad = _monotone_violations(model, new_model)
        if bad:
            raise FomlError("extension broke monotonicity: " + "; ".join(bad))
        fresh = sorted(new_model.domain - model.domain, key=var_key)
        trace.steps.append(
            ExtensionStep(
                iteration=i + 1,
                world=render_world(node.world),
                leaf=leaf,
                fresh=tuple(fresh),
            )
        )
        model = new_model
        trace.snapshots.append(model)

    violations = find_leaf_violations(current, model)
    if violations:
        return model, trace, RESIDUAL
    _assert_root(theta, model)
    return model, trace, SATISFIED


def _assert_root(theta: Formula, model: KripkeModel) -> None:
    sigma = {v: v for v in free_vars(theta)}
    if not check(model, "r", sigma, theta):
        raise FomlError("no leaf violations remain but the root check fails")


def trace_to_ndjson(trace: ExtensionTrace) -> str:
    """One JSON record per line: snapshots interleaved with extension steps."""
    lines = []
    for i, model in enumerate(trace.snapshots):
        lines.append(
            json.dumps(
                {"type": "snapshot", "iteration": i, "model": model_to_json_dict(model)},
                sort_keys=True,
            )
        )
        for step in trace.steps:
            if step.iteration == i + 1:
                lines.append(
                    json.dumps(
                        {
                            "type": "extension",
                            "iteration": step.iteration,
                            "world": step.world,
                            "leaf": step.leaf,
                            "fresh": list(step.fresh),
                        },
                        sort_keys=True,
                    )
                )
    return "\n".join(lines) + "\n"
