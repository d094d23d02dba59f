"""Model extraction from open tableaux and the iterative extension loop.

An open saturated tableau induces a finite model: worlds are the tableau's
world names, the domain at a world is its final variable set, and facts are
the positive literals left at the world's last node. Forest leaves that owe
an existential witness mark where this finite model falls short; extending
the forest at such a leaf and rebuilding yields the next, strictly larger
model in the chain. `audit` is the one check of a SAT tableau: the
verifier, then the model read off it, which must satisfy every formula of
every node, except where a leaf violation that is left makes it fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .formulas import (
    ORIGIN_SEP,
    Forall,
    Formula,
    FomlError,
    Pred,
    ResourceLimit,
    all_vars,
    formula_key,
    free_vars,
    post_order,
    rename_vars,
    substitute,
    var_key,
)
from .forest import SkolemForest, extend_forest, forest_size_bound
from .kripke import KripkeModel, check, model_to_json_dict, validate_model
from .parser import print_formula
from .tableau import (
    EXHAUSTED,
    SAT,
    Guidance,
    SearchLimits,
    TableauNode,
    is_closed,
    is_saturated,
    read_choices,
    render_world,
    replay_guidance,
    search,
    verify_tableau,
)

SATISFIED = "Satisfied"
RESIDUAL = "ResidualViolations"
_ROOT_FAILS = "no leaf violations remain but the root check fails"


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


def extract_model(tableau: TableauNode) -> KripkeModel:
    """The finite model read off the last node of every world of the tree
    under the root `tableau`. Only the nodes read are checked: the leaves
    for saturation and each world's last node for a clash;
    `verify_tableau` checks every node."""
    last: dict[tuple[int, ...], TableauNode] = {}
    for world, node in tableau.walk():
        if not node.children and not is_saturated(node.gamma):
            raise FomlError("tableau is not saturated")
        last[world] = node
    if any(is_closed(node.gamma) for node in last.values()):
        raise FomlError("tableau is not open")

    # Each world is named once; w[:-1], a world's parent, is in `last` too.
    named = {w: render_world(w) for w in last}
    local: dict[str, frozenset[str]] = {}
    valuation: dict[tuple[str, str], set] = {}
    for w, node in last.items():
        name = named[w]
        local[name] = node.s
        for g in node.gamma:
            if isinstance(g, Pred):
                valuation.setdefault((name, g.name), set()).add(tuple(g.args))
    edges = frozenset((named[w[:-1]], named[w]) for w in last if w)
    return KripkeModel(
        worlds=frozenset(named.values()),
        domain=frozenset().union(*local.values()),
        edges=edges,
        local_domain=local,
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )


def _holds(model: KripkeModel, world: str, phi: Formula) -> bool:
    """Whether phi holds at the world under the identity assignment, the
    one the tableau's formulas are read under."""
    return check(model, world, {v: v for v in free_vars(phi)}, phi)


def find_leaf_violations(
    tableau: TableauNode, model: KripkeModel
) -> list[tuple[tuple[int, ...], str, Formula]]:
    """Leaves of each forest point's forest, its `pick`, whose existential
    obligations the model fails to meet, as (world, leaf, formula).

    Sorted nearest-to-root first, ties by world name then leaf variable, so
    the head of the list is the canonical leaf to extend next.
    """
    out = []
    for world, node in tableau.forest_points():
        name = render_world(world)
        for leaf in node.pick.leaves():
            for member in leaf.atom.exists_members:
                inst = substitute(member, {node.pick.var: leaf.name})
                if not _holds(model, name, inst):
                    out.append((world, leaf.name, inst))
    out.sort(
        key=lambda t: (
            len(t[0]),
            render_world(t[0]),
            var_key(t[1]),
            formula_key(t[2]),
        )
    )
    return out


def audit(
    tableau: TableauNode, theta: Formula
) -> tuple[Optional[KripkeModel], list, list[str]]:
    """The one check of a SAT tableau for theta, as (model, leaf
    violations, problems); no problems means it stands.

    `verify_tableau` runs first; on a tree it rejects, the result is
    (None, [], its problems). Otherwise the model read off the tree must be
    valid, every forest a forest point picks must be within
    `forest_size_bound`, and every formula of every node must hold at the
    node's world, except where a leaf violation that is left makes it fail
    (`_node_check`).
    """
    problems = verify_tableau(tableau, theta)
    if problems:
        return None, [], problems
    model = extract_model(tableau)
    problems = validate_model(model)
    violations = find_leaf_violations(tableau, model)
    violated = {w for w, _, _ in violations}
    # A violated forest's universal fails at its world and at the worlds
    # above, in every formula that holds it: the model is a finite prefix.
    exempt: dict[tuple[int, ...], set[str]] = {}
    for w, node in tableau.forest_points():
        f = node.pick
        bound = forest_size_bound(Forall(f.var, f.psi), len(f.roots()))
        if len(f.nodes) > bound:
            problems.append(
                f"forest at {render_world(w)} has {len(f.nodes)} nodes, bound {bound}"
            )
        if w in violated:
            for i in range(len(w) + 1):
                exempt.setdefault(w[:i], set()).add(f.var.partition(ORIGIN_SEP)[0])
    return model, violations, problems + _node_check(tableau, model, exempt)


def _node_check(tableau: TableauNode, model: KripkeModel, exempt: dict) -> list[str]:
    """The semantic gate: every formula of every node's gamma must hold at
    the node's world under the identity assignment, each (world, formula)
    checked once, theta at `r` first. It applies no tableau rule, so it
    catches a rule fault that search and the verifier share (both run
    `_saturate`). A failing pair is let off only where a leaf violation is
    left: its world is in `exempt`, the violated forest points' worlds and
    their ancestors, and the formula holds a universal whose binder has an
    origin (the name before `ORIGIN_SEP`) `exempt` lists there. Theta is
    clean, so an origin names one input quantifier. Where none is left
    and theta fails at `r`, that is the one problem; otherwise one problem
    per failing pair, sorted by world and formula."""
    seen = set()
    failed = []
    for w, node in tableau.walk():
        name = render_world(w)
        for g in node.gamma:
            if (w, g) in seen:
                continue
            seen.add((w, g))
            origins = exempt.get(w, ())
            if _holds(model, name, g) or any(
                type(n) is Forall and n.var.partition(ORIGIN_SEP)[0] in origins
                for n in post_order(g)
            ):
                continue
            if not exempt and len(seen) == 1:  # theta at `r`
                return [_ROOT_FAILS]
            message = f"formula {print_formula(g)} fails at {name}"
            failed.append((w, formula_key(g), message))
    return [message for _, _, message in sorted(failed)]


def extend_tableau(
    theta: Formula,
    tableau: TableauNode,
    world: tuple[int, ...],
    leaf: str,
    limits: Optional[SearchLimits] = None,
) -> TableauNode:
    """Grow the forest the world settled on at the leaf and rebuild the
    tableau for theta around it.

    The rebuild is one search that replays the choices read off the tree by
    `replay_guidance`, so a tableau read back with `certificate_from_json`
    extends like the one search returned: the extended world prefers the
    grown forest, other worlds prefer their previous forests and disjunct
    picks, and surviving diamond successors keep their old indices so world
    names stay stable. The grown forest's new nodes take names that no
    forest of the old tree and no variable of theta has, and existential
    witnesses are named by their origin (`formulas.instance`), so the
    rebuild gives each old element its old name. The fresh element takes over the leaf's role, so the leaf's diamond
    worlds lend their hints to the fresh element's diamond worlds
    (`_carry_hints`). Raises `ResourceLimit` when the rebuild runs
    out of budget, and `FomlError` when it fails otherwise or settles on
    another forest at the extended world.
    """
    choices = list(read_choices(tableau))
    guided = replay_guidance(tableau, choices)
    forest = guided.forest.get(world)
    if forest is None:
        raise FomlError(
            f"extension target {render_world(world)} carries no skolem forest"
        )
    # Every `vN` element of the old tree is a forest node or a variable of
    # theta; a witness bears a derived name (`b@e`).
    avoid = set(all_vars(theta)).union(*(f.names() for f in guided.forest.values()))
    grown = extend_forest(forest, leaf, avoid)

    guided.forest[world] = grown
    _carry_hints(guided, choices, world, leaf, forest, grown)
    result = search(theta, limits, guided)
    failure = f"extension rebuild failed at {render_world(world)} leaf {leaf!r}"
    if result.status == EXHAUSTED:
        raise ResourceLimit(f"{failure}: {result.stats.exhausted_by}")
    if result.status != SAT:
        raise FomlError(f"{failure} ({result.status})")
    # A preferred forest can lose to an enumerated one, and a rebuild that
    # kept the old forest would still pass the monotonicity check.
    kept = dict(result.tableau.forest_points()).get(world)
    if kept is None or kept.pick != grown:
        raise FomlError(f"{failure}: the grown forest was not kept")
    return result.tableau


def _carry_hints(
    guided: Guidance,
    choices: list,
    world: tuple,
    leaf: str,
    old: SkolemForest,
    grown: SkolemForest,
) -> None:
    """Add the leaf's diamond-world hints for each fresh element labeled
    like the leaf, where no hint exists yet.

    Every diamond at the extended world that names the leaf, free or in a
    binder named after it (`u@leaf`), has a twin with the leaf renamed to
    the fresh element. The replayed order lists only the old diamonds, so
    the twins' successor worlds are numbered after theirs. The `or` picks and diamond orders of a diamond's successor
    subtree, read from `choices` (the old tree's `read_choices`), are added
    for its twin's under two renamings, the second only where the first
    gave no hint: the leaf to the fresh element, then, for the picks whose
    pivot names the leaf's parent, the forest shift that also takes that
    parent to the fresh element's. The fresh element stands one step
    further down the forest than the leaf, so a pivot about the leaf and
    its parent is met in the twin's subtree about the fresh element and its
    parent. A renaming reaches into derived
    names too, free or bound: a witness or binder `y@leaf` stands for
    `y@fresh` (`_renamed`), since hints name formulas by `formula_key`. Hints
    only reorder alternatives, so a wrong guess costs search, never a
    verdict.
    """
    index = grown.by_name()
    label, up = index[leaf].atom, index[leaf].parent
    names = old.names()
    fresh = [n for n in grown.nodes if n.name not in names and n.atom == label]
    # A world has at most one diamond node, the last step of its chain.
    diamonds = next(
        (c for w, _, kind, c in choices if kind == "diamond" and w == world), None
    )
    if diamonds is None:
        return
    depth = len(world)
    naming = [
        i for i, d in enumerate(diamonds)
        if any(leaf in v.split(ORIGIN_SEP) for v in all_vars(d))
    ]
    twins = len(diamonds)
    for node in fresh:
        ren = {leaf: node.name}
        shift = {leaf: node.name, up: node.parent}
        for i in naming:
            twin = world + (twins,)
            twins += 1
            below = [
                (twin + w[depth + 1:], kind, choice)
                for w, _, kind, choice in choices
                if len(w) > depth and w[depth] == i and w[:depth] == world
            ]
            picks = [(w, choice) for w, kind, choice in below if kind == "or"]
            for w, kind, choice in below:
                if kind == "diamond":
                    order = [formula_key(_renamed(g, ren)) for g in choice]
                    guided.diamond_order.setdefault(w, order)
            # The shift renames a pivot otherwise than `ren` only where the
            # pivot names the leaf's parent.
            shifted = [
                (w, pick) for w, pick in picks
                if any(up in v.split(ORIGIN_SEP) for v in all_vars(pick[0]))
            ]
            for mapping, group in ((ren, picks), (shift, shifted)):
                for w, (pivot, idx) in group:
                    key = (w, formula_key(_renamed(pivot, mapping)))
                    guided.or_choice.setdefault(key, idx)


def _renamed(phi: Formula, ren: dict) -> Formula:
    """phi with the elements `ren` maps renamed, alone or inside the names
    derived from them, free or bound: with `{v2: v3}`, `y@v2@v0` becomes
    `y@v3@v0`, and the binder `u@v2` becomes `u@v3`."""
    mapping = {}
    for v in all_vars(phi):
        new = ORIGIN_SEP.join([ren.get(p, p) for p in v.split(ORIGIN_SEP)])
        if new != v:
            mapping[v] = new
    return rename_vars(phi, mapping)


def _monotone_violations(old: KripkeModel, new: KripkeModel) -> list[str]:
    out = []
    if not old.worlds <= new.worlds:
        out.append("worlds were lost")
    if not old.edges <= new.edges:
        out.append("edges were lost")
    for w in sorted(old.worlds & new.worlds):
        if not old.local_domain[w] <= new.local_domain[w]:
            out.append(f"local domain shrank at {w!r}")
    for key, tuples in sorted(old.valuation.items()):
        if key[0] in new.worlds and not tuples <= new.valuation.get(key, frozenset()):
            out.append(f"facts lost for {key}")
    return out


def iterate_extensions(
    theta: Formula,
    tableau: TableauNode,
    k: int,
    limits: Optional[SearchLimits] = None,
) -> tuple[KripkeModel, ExtensionTrace, str]:
    """Up to k rounds of extract, locate violations, extend at the nearest.

    Stops early with Satisfied once no leaf violation remains (theta must
    hold at `r` then); otherwise reports ResidualViolations with the
    last model and the full trace of snapshots. Each round's rebuild meets
    most of the last round's universal instances again, and takes them from
    the universals' caches (`formulas.instance`).
    """
    if k < 0:
        raise ValueError("extension count must be non-negative")
    trace = ExtensionTrace()
    current = tableau
    model = extract_model(current)
    trace.snapshots.append(model)

    for i in range(k + 1):
        violations = find_leaf_violations(current, model)
        if not violations:
            if not _holds(model, "r", theta):
                raise FomlError(_ROOT_FAILS)
            return model, trace, SATISFIED
        if i == k:
            return model, trace, RESIDUAL
        world, leaf, _ = violations[0]
        current = extend_tableau(theta, current, world, leaf, limits)
        new_model = extract_model(current)
        bad = _monotone_violations(model, new_model)
        if bad:
            raise FomlError("extension broke monotonicity: " + "; ".join(bad))
        fresh = sorted(new_model.domain - model.domain, key=var_key)
        trace.steps.append(
            ExtensionStep(
                iteration=i + 1,
                world=render_world(world),
                leaf=leaf,
                fresh=tuple(fresh),
            )
        )
        model = new_model
        trace.snapshots.append(model)


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
        # steps[i] is round i + 1, the step that led to snapshot i + 1.
        if i < len(trace.steps):
            step = trace.steps[i]
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
