"""Tableau construction and search for the bundled fragment.

A tableau node is a tuple (world, gamma, s, forest). Within one world the
rules fire in a fixed priority: forest initialization first (answering the
nested universal if one is present), then conjunctions, disjunctions,
existentials, universals, and finally the modal step that spawns one child
world per diamond. Search is depth-first over the AND-OR space: diamond
children all have to succeed, disjuncts and forest choices are alternatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .formulas import (
    And,
    Atom,
    Box,
    Diamond,
    EBBE,
    Exists,
    Forall,
    Formula,
    FomlError,
    FragmentError,
    Not,
    Or,
    ResourceLimit,
    all_vars,
    classify_fragment,
    clean_rename,
    formula_key,
    free_vars,
    fresh_var,
    is_clean,
    is_literal,
    is_nested_forall,
    is_nnf,
    modal_depth,
    nnf_complement,
    outer_ex_vars,
    substitute,
    var_key,
)
from .forest import (
    EMPTY_TREE,
    NOT_INIT,
    ForestNode,
    SkolemForest,
    enumerate_forests,
    expand_forest,
    forest_size_bound,
    validate_forest,
)
from .parser import ParseError, parse_formula, print_formula

SAT = "sat"
UNSAT = "unsat"
EXHAUSTED = "exhausted"

_FAIL = "fail"


def render_world(world: tuple[int, ...]) -> str:
    return "r" + "".join(f".{i}" for i in world)


def parse_world(text: str) -> tuple[int, ...]:
    if text == "r":
        return ()
    if not text.startswith("r."):
        raise FomlError(f"bad world name {text!r}")
    return tuple(int(p) for p in text.split(".")[1:])


@dataclass(frozen=True)
class TableauNode:
    world: tuple[int, ...]
    gamma: frozenset
    s: frozenset
    forest: object
    rule: str
    children: tuple = ()


@dataclass
class SearchStats:
    nodes: int = 0
    or_attempts: int = 0
    forest_attempts: int = 0
    memo_hits: int = 0
    max_world_depth: int = 0


@dataclass
class Tableau:
    theta: Formula
    root: TableauNode
    stats: SearchStats = field(default_factory=SearchStats)

    def walk(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def worlds(self) -> list[tuple[int, ...]]:
        return sorted({n.world for n in self.walk()})


@dataclass(frozen=True)
class SearchLimits:
    max_forest_nodes: int = 10_000
    max_tableau_nodes: int = 200_000
    max_depth: int = 64
    max_branch_choices: int = 500_000

    def __post_init__(self):
        if min(self.max_forest_nodes, self.max_tableau_nodes, self.max_depth,
               self.max_branch_choices) < 1:
            raise ValueError("all search limits must be positive")

    @classmethod
    def derive(cls, theta: Formula) -> "SearchLimits":
        """Defaults sized from the formula: the forest ceiling comes from the
        per-quantifier node bound at a generous root-count estimate."""
        n_est = len(all_vars(theta)) + 2
        forest_cap = 64
        for sub in _subformulas(theta):
            if isinstance(sub, Forall) and is_nested_forall(sub):
                forest_cap = max(
                    forest_cap, forest_size_bound(sub.body, sub.var, n_est)
                )
        return cls(
            max_forest_nodes=forest_cap,
            max_tableau_nodes=200_000,
            max_depth=modal_depth(theta) + 2,
            max_branch_choices=500_000,
        )


def _subformulas(phi: Formula):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, (And, Or)):
            stack.extend((f.left, f.right))
        elif isinstance(f, (Exists, Forall, Box, Diamond, Not)):
            stack.append(f.body)


@dataclass
class Guidance:
    """Replay hints: preferred disjunct indices, forced or preferred forests
    per world, and a preferred diamond ordering per world."""

    or_choice: dict = field(default_factory=dict)
    forest_override: dict = field(default_factory=dict)
    forest_prefer: dict = field(default_factory=dict)
    diamond_order: dict = field(default_factory=dict)


@dataclass
class SearchResult:
    status: str
    tableau: Optional[Tableau]
    stats: SearchStats


def init_root(theta: Formula) -> TableauNode:
    """Root node: gamma = {theta}, S adds outer existential witnesses and one
    fresh variable so the root domain is never empty."""
    if not is_nnf(theta):
        raise FragmentError("input formula must be in negation normal form")
    if not is_clean(theta):
        raise FragmentError("input formula must be clean")
    fragment = classify_fragment(theta)
    if fragment.category != EBBE:
        raise FragmentError(
            f"formula is outside the decidable bundle (classified {fragment.category})"
        )
    z = fresh_var(all_vars(theta))
    s0 = frozenset(free_vars(theta)) | outer_ex_vars(theta) | {z}
    return TableauNode(
        world=(), gamma=frozenset({theta}), s=s0, forest=NOT_INIT, rule="root"
    )


def is_closed(gamma: Iterable[Formula]) -> bool:
    gamma = set(gamma)
    return any(nnf_complement(g) in gamma for g in gamma)


def _first(gamma, kind):
    picks = sorted((g for g in gamma if isinstance(g, kind)), key=formula_key)
    return picks[0] if picks else None


def select_rule(gamma: frozenset, forest) -> tuple[str, Optional[Formula]]:
    """The unique rule class for this node state, with its pivot formula."""
    if all(is_literal(g) for g in gamma):
        return "none", None
    if forest is NOT_INIT:
        nested = [g for g in gamma if isinstance(g, Forall) and is_nested_forall(g)]
        if len(nested) > 1:
            raise FomlError("multiple nested universals in one gamma")
        if nested:
            return "nestedForall", nested[0]
        return "trivialSkolem", None
    pivot = _first(gamma, And)
    if pivot is not None:
        return "and", pivot
    pivot = _first(gamma, Or)
    if pivot is not None:
        return "or", pivot
    pivot = _first(gamma, Exists)
    if pivot is not None:
        return "exists", pivot
    pivot = _first(gamma, Forall)
    if pivot is not None:
        return "forall", pivot
    if any(isinstance(g, Diamond) for g in gamma):
        return "diamond", None
    if any(isinstance(g, Box) for g in gamma):
        return "end", None
    raise FomlError("no rule applies to a non-literal gamma")


def apply_and(gamma: frozenset, pivot: And) -> frozenset:
    return (gamma - {pivot}) | {pivot.left, pivot.right}


def or_options(gamma: frozenset, pivot: Or) -> list[frozenset]:
    return [(gamma - {pivot}) | {pivot.left}, (gamma - {pivot}) | {pivot.right}]


def apply_exists(gamma: frozenset, s: frozenset, pivot: Exists) -> frozenset:
    if pivot.var not in s:
        raise FomlError(
            f"existential witness {pivot.var!r} is missing from the domain set"
        )
    return (gamma - {pivot}) | {pivot.body}


def apply_forall(gamma: frozenset, s: frozenset, pivot: Forall) -> frozenset:
    """One freshened instance per domain variable, in domain order."""
    rest = gamma - {pivot}
    forbidden = set(s)
    for g in rest:
        forbidden |= all_vars(g)
    out = set(rest)
    for z in sorted(s, key=var_key):
        inst = clean_rename(substitute(pivot.body, {pivot.var: z}), forbidden)
        out.add(inst)
        forbidden |= all_vars(inst)
    return frozenset(out)


def diamond_outcomes(
    gamma: frozenset, s: frozenset, order: Optional[list[str]] = None
) -> list[tuple[Diamond, frozenset, frozenset]]:
    """Per-diamond successor states; `order` lists formula keys to put first."""
    diamonds = sorted((g for g in gamma if isinstance(g, Diamond)), key=formula_key)
    if order:
        rank = {key: i for i, key in enumerate(order)}
        diamonds.sort(key=lambda d: (rank.get(formula_key(d), len(rank)), formula_key(d)))
    boxes = [g for g in gamma if isinstance(g, Box)]
    box_bodies = frozenset(b.body for b in boxes)
    shared = frozenset(s)
    for b in boxes:
        shared |= outer_ex_vars(b.body)
    return [
        (d, frozenset({d.body}) | box_bodies, shared | outer_ex_vars(d.body))
        for d in diamonds
    ]


def apply_end(gamma: frozenset) -> frozenset:
    return frozenset(g for g in gamma if is_literal(g))


class _Abort(Exception):
    pass


class _Ctx:
    def __init__(self, limits: SearchLimits, guidance: Optional[Guidance]):
        self.limits = limits
        self.guidance = guidance
        self.stats = SearchStats()
        self.memo: set = set()

    def bump_nodes(self):
        self.stats.nodes += 1
        if self.stats.nodes > self.limits.max_tableau_nodes:
            raise _Abort()

    def bump_choice(self, forest: bool = False):
        if forest:
            self.stats.forest_attempts += 1
        else:
            self.stats.or_attempts += 1
        if (self.stats.or_attempts + self.stats.forest_attempts
                > self.limits.max_branch_choices):
            raise _Abort()


def search(
    theta: Formula,
    limits: Optional[SearchLimits] = None,
    guidance: Optional[Guidance] = None,
) -> SearchResult:
    """Depth-first AND-OR search for an open saturated tableau.

    Returns SAT with the certificate tableau, UNSAT only when every
    alternative failed on a genuine contradiction, and EXHAUSTED when some
    branch hit a configured ceiling instead.
    """
    root = init_root(theta)
    if limits is None:
        limits = SearchLimits.derive(theta)
    ctx = _Ctx(limits, guidance)
    try:
        status, node = _solve(
            ctx, root.world, root.gamma, root.s, root.forest, root.rule
        )
    except _Abort:
        return SearchResult(EXHAUSTED, None, ctx.stats)
    if status == SAT:
        tableau = Tableau(theta=theta, root=node, stats=ctx.stats)
        return SearchResult(SAT, tableau, ctx.stats)
    if status == _FAIL:
        return SearchResult(UNSAT, None, ctx.stats)
    return SearchResult(EXHAUSTED, None, ctx.stats)


def _solve(ctx: _Ctx, world, gamma, s, forest, rule):
    ctx.bump_nodes()
    depth = len(world)
    ctx.stats.max_world_depth = max(ctx.stats.max_world_depth, depth)
    if depth > ctx.limits.max_depth:
        return EXHAUSTED, None

    if is_closed(gamma):
        return _FAIL, None

    memo_key = None
    if ctx.guidance is None:
        memo_key = (gamma, s, forest)
        if memo_key in ctx.memo:
            ctx.stats.memo_hits += 1
            return _FAIL, None

    status, node = _apply(ctx, world, gamma, s, forest, rule)
    if status == _FAIL and memo_key is not None:
        ctx.memo.add(memo_key)
    return status, node


def _apply(ctx: _Ctx, world, gamma, s, forest, rule):
    kind, pivot = select_rule(gamma, forest)
    wname = render_world(world)

    if kind == "none":
        return SAT, TableauNode(world, gamma, s, forest, rule)

    if kind == "nestedForall":
        return _forest_point(ctx, world, gamma, s, rule, wname)

    if kind == "trivialSkolem":
        status, child = _solve(ctx, world, gamma, s, EMPTY_TREE, "trivialSkolem")
        return _single(world, gamma, s, forest, rule, status, child)

    if kind == "and":
        gamma2 = apply_and(gamma, pivot)
        status, child = _solve(ctx, world, gamma2, s, forest, "and")
        return _single(world, gamma, s, forest, rule, status, child)

    if kind == "or":
        options = or_options(gamma, pivot)
        order = [0, 1]
        if ctx.guidance is not None:
            want = ctx.guidance.or_choice.get((wname, formula_key(pivot)))
            if want in (0, 1):
                order = [want, 1 - want]
        exhausted = False
        for idx in order:
            ctx.bump_choice()
            status, child = _solve(ctx, world, options[idx], s, forest, "or")
            if status == SAT:
                return _single(world, gamma, s, forest, rule, SAT, child)
            if status == EXHAUSTED:
                exhausted = True
        return (EXHAUSTED if exhausted else _FAIL), None

    if kind == "exists":
        gamma2 = apply_exists(gamma, s, pivot)
        status, child = _solve(ctx, world, gamma2, s, forest, "exists")
        return _single(world, gamma, s, forest, rule, status, child)

    if kind == "forall":
        gamma2 = apply_forall(gamma, s, pivot)
        status, child = _solve(ctx, world, gamma2, s, forest, "forall")
        return _single(world, gamma, s, forest, rule, status, child)

    if kind == "diamond":
        order = None
        if ctx.guidance is not None:
            order = ctx.guidance.diamond_order.get(wname)
        outcomes = diamond_outcomes(gamma, s, order)
        children = []
        exhausted = False
        for i, (d, gamma_i, s_i) in enumerate(outcomes):
            status, child = _solve(
                ctx, world + (i,), gamma_i, s_i, NOT_INIT, "diamond"
            )
            if status == _FAIL:
                return _FAIL, None
            if status == EXHAUSTED:
                exhausted = True
                children = None
                continue
            if children is not None:
                children.append(child)
        if exhausted:
            return EXHAUSTED, None
        node = TableauNode(world, gamma, s, forest, rule, tuple(children))
        return SAT, node

    if kind == "end":
        gamma2 = apply_end(gamma)
        status, child = _solve(ctx, world, gamma2, s, forest, "end")
        return _single(world, gamma, s, forest, rule, status, child)

    raise FomlError(f"unhandled rule kind {kind!r}")


def _forest_point(ctx: _Ctx, world, gamma, s, rule, wname):
    guidance = ctx.guidance
    exhausted = False

    if guidance is not None and wname in guidance.forest_override:
        forced = guidance.forest_override[wname]
        ctx.bump_choice(forest=True)
        try:
            status, child = _try_forest(ctx, world, gamma, s, forced)
        except FomlError:
            return _FAIL, None
        if status == SAT:
            return _single(world, gamma, s, NOT_INIT, rule, SAT, child)
        return (EXHAUSTED if status == EXHAUSTED else _FAIL), None

    tried = []
    if guidance is not None and wname in guidance.forest_prefer:
        preferred = guidance.forest_prefer[wname]
        if not validate_forest(preferred, gamma, s):
            ctx.bump_choice(forest=True)
            try:
                status, child = _try_forest(ctx, world, gamma, s, preferred)
            except FomlError:
                status, child = _FAIL, None
            if status == SAT:
                return _single(world, gamma, s, NOT_INIT, rule, SAT, child)
            if status == EXHAUSTED:
                exhausted = True
            tried.append(preferred)

    stream = enumerate_forests(gamma, s, ctx.limits)
    while True:
        try:
            candidate = next(stream)
        except StopIteration:
            break
        except ResourceLimit:
            exhausted = True
            break
        if candidate in tried:
            continue
        ctx.bump_choice(forest=True)
        status, child = _try_forest(ctx, world, gamma, s, candidate)
        if status == SAT:
            return _single(world, gamma, s, NOT_INIT, rule, SAT, child)
        if status == EXHAUSTED:
            exhausted = True
    return (EXHAUSTED if exhausted else _FAIL), None


def _try_forest(ctx: _Ctx, world, gamma, s, forest: SkolemForest):
    gamma2 = expand_forest(forest, gamma)
    s2 = frozenset(forest.names())
    return _solve(ctx, world, gamma2, s2, forest, "nestedForall")


def _single(world, gamma, s, forest, rule, status, child):
    if status != SAT:
        return status, None
    node = TableauNode(world, gamma, s, forest, rule, (child,))
    return SAT, node


def verify_tableau(tableau: Tableau, theta: Formula) -> list[str]:
    """Re-derive every edge of the certificate; empty list means it stands."""
    out: list[str] = []
    root = tableau.root

    if not is_nnf(theta) or not is_clean(theta):
        out.append("input formula is not clean NNF")
    elif classify_fragment(theta).category != EBBE:
        out.append("input formula is outside the decidable bundle")

    z = fresh_var(all_vars(theta))
    s0 = frozenset(free_vars(theta)) | outer_ex_vars(theta) | {z}
    if root.world != ():
        out.append("root world is not r")
    if root.gamma != frozenset({theta}):
        out.append("root gamma is not {theta}")
    if root.s != s0:
        out.append("root domain set is wrong")
    if root.forest is not NOT_INIT:
        out.append("root forest is initialized")

    stack = [root]
    while stack:
        node = stack.pop()
        where = render_world(node.world)
        if is_closed(node.gamma):
            out.append(f"{where}: gamma contains a formula and its complement")
        if not node.children:
            if any(not is_literal(g) for g in node.gamma):
                out.append(f"{where}: unsaturated leaf")
            continue
        out.extend(_check_step(node))
        stack.extend(node.children)
    return out


def _check_step(node: TableauNode) -> list[str]:
    where = render_world(node.world)
    try:
        kind, pivot = select_rule(node.gamma, node.forest)
    except FomlError as exc:
        return [f"{where}: {exc}"]
    kids = node.children
    tags = {c.rule for c in kids}
    if tags != {kind}:
        return [f"{where}: children tagged {sorted(tags)} but rule is {kind}"]

    def same_world_single(expect_gamma, expect_s, expect_forest) -> list[str]:
        if len(kids) != 1:
            return [f"{where}: {kind} must produce exactly one child"]
        c = kids[0]
        errs = []
        if c.world != node.world:
            errs.append(f"{where}: {kind} changed the world name")
        if expect_gamma is not None and c.gamma != expect_gamma:
            errs.append(f"{where}: {kind} produced an unexpected gamma")
        if expect_s is not None and c.s != expect_s:
            errs.append(f"{where}: {kind} changed the domain set incorrectly")
        if expect_forest is not None and c.forest is not expect_forest:
            if not (isinstance(expect_forest, SkolemForest) and c.forest == expect_forest):
                errs.append(f"{where}: {kind} altered the forest")
        return errs

    if kind == "none":
        return [f"{where}: children under a saturated node"]
    if kind == "trivialSkolem":
        if len(kids) == 1 and kids[0].forest is EMPTY_TREE:
            return same_world_single(node.gamma, node.s, None)
        return [f"{where}: trivialSkolem must set the empty forest"]
    if kind == "nestedForall":
        if len(kids) != 1:
            return [f"{where}: nestedForall must produce exactly one child"]
        c = kids[0]
        errs = []
        if not isinstance(c.forest, SkolemForest):
            return [f"{where}: nestedForall child carries no forest"]
        errs.extend(
            f"{where}: forest: {v}"
            for v in validate_forest(c.forest, node.gamma, node.s)
        )
        if errs:
            return errs
        if c.gamma != expand_forest(c.forest, node.gamma):
            errs.append(f"{where}: forest expansion mismatch")
        if c.s != frozenset(c.forest.names()):
            errs.append(f"{where}: domain set is not the forest node set")
        if c.world != node.world:
            errs.append(f"{where}: nestedForall changed the world name")
        return errs
    if kind == "and":
        return same_world_single(apply_and(node.gamma, pivot), node.s, node.forest)
    if kind == "or":
        if len(kids) != 1:
            return [f"{where}: or must keep exactly one disjunct branch"]
        if kids[0].gamma not in or_options(node.gamma, pivot):
            return [f"{where}: or child matches neither disjunct"]
        return same_world_single(None, node.s, node.forest)
    if kind == "exists":
        try:
            expect = apply_exists(node.gamma, node.s, pivot)
        except FomlError as exc:
            return [f"{where}: {exc}"]
        return same_world_single(expect, node.s, node.forest)
    if kind == "forall":
        return same_world_single(
            apply_forall(node.gamma, node.s, pivot), node.s, node.forest
        )
    if kind == "end":
        return same_world_single(apply_end(node.gamma), node.s, node.forest)

    # diamond: order-insensitive child matching, names fixed by position
    outcomes = diamond_outcomes(node.gamma, node.s)
    errs = []
    if len(kids) != len(outcomes):
        return [f"{where}: expected {len(outcomes)} diamond children, got {len(kids)}"]
    for i, c in enumerate(kids):
        if c.world != node.world + (i,):
            errs.append(f"{where}: diamond child {i} has the wrong world name")
        if c.forest is not NOT_INIT:
            errs.append(f"{where}: diamond child {i} starts with a forest")
    want = sorted((sorted(map(formula_key, g)), sorted(sv)) for _, g, sv in outcomes)
    got = sorted((sorted(map(formula_key, c.gamma)), sorted(c.s)) for c in kids)
    if want != got:
        errs.append(f"{where}: diamond successors do not match the rule outcomes")
    return errs


def replay_guidance(tableau: Tableau) -> Guidance:
    """The choices behind a verified tree, read back as replay hints: the
    disjunct kept at each `or` node, each world's forest (as a preference)
    and each diamond node's successor order. Searching with them rebuilds
    the same tree."""
    guidance = Guidance()
    for node in tableau.walk():
        if not node.children:
            continue
        kind, pivot = select_rule(node.gamma, node.forest)
        wname = render_world(node.world)
        if kind == "or":
            idx = or_options(node.gamma, pivot).index(node.children[0].gamma)
            guidance.or_choice[(wname, formula_key(pivot))] = idx
        elif kind == "nestedForall":
            guidance.forest_prefer[wname] = node.children[0].forest
        elif kind == "diamond":
            # Several diamonds can yield one successor state: use each once.
            left = diamond_outcomes(node.gamma, node.s)
            order = []
            for c in node.children:
                i = [(g, sv) for _, g, sv in left].index((c.gamma, c.s))
                order.append(formula_key(left.pop(i)[0]))
            guidance.diamond_order[wname] = order
    return guidance


def dump_tableau(tableau: Tableau) -> str:
    """One line per node: world | rule | gamma | S | forest summary."""
    lines = []

    def summary(forest) -> str:
        if forest is NOT_INIT or forest is EMPTY_TREE:
            return repr(forest)
        return f"forest({len(forest.nodes)} nodes)"

    def emit(node: TableauNode):
        gamma = ", ".join(sorted(map(formula_key, node.gamma)))
        dom = ", ".join(sorted(node.s, key=var_key))
        lines.append(
            f"{render_world(node.world)} | {node.rule} | {{{gamma}}} "
            f"| {{{dom}}} | {summary(node.forest)}"
        )
        for c in node.children:
            emit(c)

    emit(tableau.root)
    return "\n".join(lines)


def _forest_to_json(forest) -> object:
    if forest is NOT_INIT:
        return "NotInit"
    if forest is EMPTY_TREE:
        return "EmptyTree"
    return {
        "var": forest.var,
        "psi": print_formula(forest.psi),
        "nodes": [
            {
                "name": n.name,
                "parent": n.parent,
                "atom": [print_formula(m) for m in n.atom.members],
                "children": list(n.children),
            }
            for n in forest.nodes
        ],
    }


def _forest_from_json(data) -> object:
    if data == "NotInit":
        return NOT_INIT
    if data == "EmptyTree":
        return EMPTY_TREE
    nodes = tuple(
        ForestNode(
            name=n["name"],
            parent=n["parent"],
            atom=Atom(tuple(parse_formula(m) for m in n["atom"])),
            children=tuple(n["children"]),
        )
        for n in data["nodes"]
    )
    return SkolemForest(var=data["var"], psi=parse_formula(data["psi"]), nodes=nodes)


def _node_to_json(node: TableauNode) -> dict:
    return {
        "world": render_world(node.world),
        "rule": node.rule,
        "gamma": sorted(print_formula(g) for g in node.gamma),
        "s": sorted(node.s, key=var_key),
        "forest": _forest_to_json(node.forest),
        "children": [_node_to_json(c) for c in node.children],
    }


def _node_from_json(data: dict) -> TableauNode:
    return TableauNode(
        world=parse_world(data["world"]),
        gamma=frozenset(parse_formula(g) for g in data["gamma"]),
        s=frozenset(data["s"]),
        forest=_forest_from_json(data["forest"]),
        rule=data["rule"],
        children=tuple(_node_from_json(c) for c in data["children"]),
    )


def certificate_to_json(tableau: Tableau) -> str:
    doc = {
        "theta": print_formula(tableau.theta),
        "root": _node_to_json(tableau.root),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def certificate_from_json(text: str) -> Tableau:
    try:
        doc = json.loads(text)
        theta = parse_formula(doc["theta"])
        root = _node_from_json(doc["root"])
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise FomlError(f"malformed certificate: {exc}") from exc
    return Tableau(theta=theta, root=root)
