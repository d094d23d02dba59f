"""Tableau construction and search for the bundled fragment.

A tableau node is its state (gamma, s), its children and its `pick`, the
choice its rule made. Within one world the rules fire in a fixed priority:
forest initialization first (answering the nested universal if one is
present), then conjunctions, disjunctions, existentials, universals, and
finally the modal step that spawns one child world per diamond. A node
starts a world when it is the root or a child of a diamond node, so a
node's world is its path of diamond indices (`walk`). Search is
depth-first over the AND-OR space: diamond children all have to succeed,
disjuncts and forest choices are alternatives.

A node is kept only where the tableau branches or a world ends: at a
world's first node (a forest point, which records the skolem forest it
chose in `pick`), at an `or` whose disjuncts gamma both leaves open (a
choice, which records the disjunct it kept in `pick`), at a diamond node
(which records its diamonds in child order in `pick`) and at a leaf.
`_saturate` is the one definition of the single-child rules (`and`, an
`or` that gamma decides, `exists`, `forall`, `end`, and the
`trivialSkolem` step that precedes them): it runs them inside one node,
on one mutable set, in rank order, checking each formula it adds for a
clash, so that `or` propagates before it branches. `_child_states` is the
one definition of each branching rule's children for one choice: a
forest, the `trivialSkolem` step, a disjunct index or the diamonds in
order. Search and the verifier both call the two: search to make each
node, the verifier to check each edge against the node's recorded choice.
The search is one loop over a stack of frames, and `_alternatives` lists
each branching rule's choices in the order they are tried, hints first,
so no call recurses and a tree is as deep as the node budget lets it be.

No tree reader applies a rule: `read_choices` reads the choices off the
tree, and reading a certificate back replays them and compares the
choices, which keeps the reader and the rules in step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional

from .formulas import (
    LITERAL_RANK,
    ORIGIN_SEP,
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
    Or,
    ResourceLimit,
    all_vars,
    classify_fragment,
    formula_key,
    free_vars,
    fresh_var,
    instance,
    is_clean,
    is_literal,
    is_nested_forall,
    is_nnf,
    nnf_complement,
    outer_ex_vars,
    outer_witnesses,
    post_order,
    rule_rank,
)
from .forest import (
    ForestNode,
    SkolemForest,
    enumerate_forests,
    expand_forest,
    forest_size_bound,
    validate_forest,
)
from .kripke import checked, names
from .parser import ParseError, parse_formula, print_formula

SAT = "sat"
UNSAT = "unsat"
EXHAUSTED = "exhausted"


def render_world(world: tuple[int, ...]) -> str:
    return "r" + "".join(f".{i}" for i in world)


@dataclass(frozen=True, eq=False)
class TableauNode:
    """A node compares and hashes by identity; compare trees by `walk`.
    `pick` is the one record of the choice a node's rule made: at a forest
    point, a world's first node that answers its nested universal, the
    skolem forest; at an `or` choice the index of the disjunct its child
    took, which the child's saturated gamma may no longer show; at a
    diamond node its diamonds in child order, since several diamonds can
    start one world. It is None elsewhere."""

    gamma: frozenset
    s: frozenset
    children: tuple = ()
    pick: object = None

    def walk(self):
        """(world, node) for this node, the root world (), and its
        descendants, in preorder. Child i of a diamond node, whose pick is
        a tuple, starts world + (i,); every other child sits at its
        parent's world."""
        stack = [((), self)]
        while stack:
            world, node = stack.pop()
            yield world, node
            kids = node.children
            if type(node.pick) is tuple:
                for i in range(len(kids) - 1, -1, -1):
                    stack.append((world + (i,), kids[i]))
            else:
                for c in reversed(kids):
                    stack.append((world, c))

    def forest_points(self):
        """(world, node) for each forest point: a world's first node, whose
        pick is the skolem forest its world settled on."""
        for world, node in self.walk():
            if isinstance(node.pick, SkolemForest):
                yield world, node


@dataclass
class SearchStats:
    """What a search did: `nodes` counts the nodes it visited, each a
    world's first node or a state saturated by `_saturate`, closed ones
    included; `or_attempts` the disjuncts tried at `or` choices;
    `forest_attempts` the forests tried at forest points; `memo_hits` the
    states an unguided search found in its memo of failed nodes, keyed by
    (gamma, S); `failed_at` the name of the world of the first state that
    failed, one that closed or whose rule offered no alternative, None
    while none has. A valid certificate's replay fails none."""

    nodes: int = 0
    or_attempts: int = 0
    forest_attempts: int = 0
    memo_hits: int = 0
    exhausted_by: Optional[str] = None
    failed_at: Optional[str] = None


@dataclass(frozen=True)
class SearchLimits:
    """Practical guards on a search that terminates without them: world
    depth is bounded by theta's modal depth and minimal skolem forests are
    finite. `max_tableau_nodes` caps `SearchStats.nodes`, the nodes
    visited; the single-child rules inside a node cost none of it.
    Exceeding either budget raises `ResourceLimit` and ends the whole
    search as EXHAUSTED."""

    max_forest_nodes: int = 10_000
    max_tableau_nodes: int = 200_000

    def __post_init__(self):
        if min(self.max_forest_nodes, self.max_tableau_nodes) < 1:
            raise ValueError("all search limits must be positive")

    @classmethod
    def derive(cls, theta: Formula) -> "SearchLimits":
        """Defaults sized from the formula: the forest ceiling comes from the
        per-quantifier node bound at a generous root-count estimate. Raises
        `FragmentError`, as `search` does, on a theta not in NNF."""
        _require_nnf(theta)
        n_est = len(all_vars(theta)) + 2
        forest_cap = 64
        for sub in post_order(theta):
            if isinstance(sub, Forall) and is_nested_forall(sub):
                forest_cap = max(forest_cap, forest_size_bound(sub, n_est))
        return cls(max_forest_nodes=forest_cap)


@dataclass
class Guidance:
    """Replay hints: preferred disjunct indices at the `or` choices (an
    `or` that gamma decides is taken inside a node, and a hint for it is
    never read), a preferred forest per world, and a preferred diamond
    ordering per world. A hint only reorders the alternatives: a preferred
    forest is validated and tried first, and the rest are still enumerated
    if it fails. A world is its tuple of diamond indices, and formulas are
    named by `formula_key` (`or_choice` keys are world and pivot): instance
    binders are named by their origin, so a rebuild meets the old tree's
    formulas again. An extension rebuild also carries the old chain end's
    hints, renamed twice, to the fresh element's diamond worlds: the leaf
    to the fresh element, then, where that gave no hint, the pair (leaf,
    its forest parent) to the fresh element and its parent
    (`extraction._carry_hints`). A certificate is these hints, read off a
    tree, less those a replay makes unguided (`_pruned`), with theta and
    the tree's count of kept nodes (`certificate_to_json`)."""

    or_choice: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    diamond_order: dict = field(default_factory=dict)


@dataclass
class SearchResult:
    status: str
    tableau: Optional[TableauNode]
    stats: SearchStats


def init_root(theta: Formula) -> TableauNode:
    """Root node: gamma = {theta} over the root domain, which holds theta's
    free variables, its outer existential witnesses and one fresh variable,
    so it is never empty. A variable of theta may not carry `ORIGIN_SEP`,
    which names instance binders."""
    _require_nnf(theta)
    if not is_clean(theta):
        raise FragmentError("input formula must be clean")
    if any(ORIGIN_SEP in v for v in all_vars(theta)):
        raise FragmentError(
            f"variable names with {ORIGIN_SEP!r} are kept for instance binders"
        )
    fragment = classify_fragment(theta)
    if fragment.category != EBBE:
        raise FragmentError(
            f"formula is outside the decidable bundle (classified {fragment.category})"
        )
    z = fresh_var(all_vars(theta))
    s = frozenset(free_vars(theta)) | outer_ex_vars(theta) | {z}
    return TableauNode(frozenset({theta}), s)


def _require_nnf(theta: Formula) -> None:
    if not is_nnf(theta):
        raise FragmentError("input formula must be in negation normal form")


def is_closed(gamma: frozenset) -> bool:
    """Whether a formula of gamma meets its complement in it."""
    for f in gamma:
        compl = f._compl
        if compl is None:
            compl = nnf_complement(f)
        if compl in gamma:
            return True
    return False


_rank = attrgetter("_rank")


def _top(gamma: frozenset) -> Optional[Formula]:
    """Gamma's formula first in `rule_rank` order, None when gamma is
    saturated: empty, or literals only. An unranked formula sorts first, so
    the ranks are filled only where one is missing."""
    top = min(gamma, key=_rank, default=None)
    if top is not None and not top._rank:
        top = min(gamma, key=rule_rank)
    if top is None or top._rank is LITERAL_RANK:
        return None
    return top


def is_saturated(gamma: frozenset) -> bool:
    """No rule applies: gamma is empty or holds literals only."""
    return _top(gamma) is None


# The rule of each `RULE_PRIORITY`, and whether it takes a pivot.
_RULES = (
    ("and", True), ("or", True), ("exists", True), ("forall", True),
    ("diamond", False), ("end", False),
)


def select_rule(gamma: frozenset, start: bool) -> tuple[str, Optional[Formula]]:
    """The unique rule class for this node state, with its pivot formula.
    At a world's first node (`start`), the forest rule: `nestedForall` on
    the one nested universal, else `trivialSkolem`. Past it, the rule of gamma's
    first formula in `rule_rank` order, whose rank is the rule priority,
    and that formula as the pivot of a rule that takes one."""
    top = _top(gamma)
    if top is None:
        return "none", None
    if start:
        nested = [g for g in gamma if type(g) is Forall and is_nested_forall(g)]
        if len(nested) > 1:
            raise FomlError("multiple nested universals in one gamma")
        if nested:
            return "nestedForall", nested[0]
        return "trivialSkolem", None
    priority = top._rank[0]
    if priority >= len(_RULES):
        raise FomlError("no rule applies to a non-literal gamma")
    kind, takes_pivot = _RULES[priority]
    return kind, top if takes_pivot else None


def _open_disjuncts(gamma, pivot: Or) -> tuple[Formula, ...]:
    """The disjuncts of `pivot` that gamma leaves open: the one disjunct
    already in gamma, or the one the two disjuncts are, alone; otherwise
    each disjunct whose complement is not in gamma. Two means the `or` is a
    choice, none that it closes. That gamma holds the pivot decides
    nothing: no disjunct, nor its complement, is the pivot."""
    left, right = pivot.left, pivot.right
    if left in gamma or left is right:
        return (left,)
    if right in gamma:
        return (right,)
    return tuple(d for d in (left, right) if nnf_complement(d) not in gamma)


def _saturate(
    s: frozenset, base: Iterable[Formula], added: Iterable[Formula]
) -> Optional[tuple[frozenset, str, Optional[Formula]]]:
    """The one definition of the single-child rules: the node a state
    becomes once they have run. The state's gamma is `base`, a set with no
    clash in it, joined by `added`. The rules then run on one mutable set,
    each on gamma's first formula in `rule_rank` order: `and`; `or` where
    gamma leaves one disjunct open (`_open_disjuncts`); `exists`; `forall`,
    which adds the universal's cached `instance` at each element of S; and
    `end`, which drops every formula but the literals. They stop at an `or`
    that leaves both disjuncts open, at a diamond or at a saturated gamma.
    Returns that gamma with the rule that comes next, `or` with its pivot,
    `diamond` or `none`; or None when a formula meets its complement, each
    checked as it is added, or an `or` has no open disjunct. S does not
    change, and no rule here reads the world's forest: its choice is over
    once the forest point's child holds the forest's expansion.

    The formulas whose rule takes a pivot wait on a heap keyed by rank,
    which their `formula_key` makes unique, so no tie is broken. The
    pivotless ranks (diamond, box, a negation that is no literal) are never
    taken off gamma here, so the lowest of them is all that is kept: it
    decides what happens once the heap is empty."""
    gamma = set(base)
    heap = []
    low = LITERAL_RANK  # the lowest pivotless rank in gamma
    for f in gamma:
        rank = f._rank or rule_rank(f)
        if len(rank) == 2:
            heap.append((rank, f))
        elif rank < low:
            low = rank
    heapify(heap)
    add = gamma.add
    while True:
        for f in added:
            n = len(gamma)
            add(f)
            if len(gamma) == n:
                continue
            compl = f._compl
            if compl is None:
                compl = nnf_complement(f)
            if compl in gamma:
                return None
            rank = f._rank or rule_rank(f)
            if len(rank) == 2:
                heappush(heap, (rank, f))
            elif rank < low:
                low = rank
        if not heap:
            break
        pivot = heap[0][1]
        t = type(pivot)
        if t is And:
            added = (pivot.left, pivot.right)
        elif t is Exists:
            if pivot.var not in s:
                raise FomlError(
                    f"existential witness {pivot.var!r} is missing from the domain set"
                )
            added = (pivot.body,)
        elif t is Or:
            added = _open_disjuncts(gamma, pivot)
            if len(added) == 2:
                return frozenset(gamma), "or", pivot
            if not added:
                return None
        else:
            added = [instance(pivot, z) for z in s]
        heappop(heap)
        gamma.remove(pivot)
    if low is LITERAL_RANK:
        return frozenset(gamma), "none", None
    priority = low[0]
    if priority >= len(_RULES):
        raise FomlError("no rule applies to a non-literal gamma")
    if _RULES[priority][0] == "diamond":
        return frozenset(gamma), "diamond", None
    return frozenset(g for g in gamma if is_literal(g)), "none", None  # `end`


def diamond_outcomes(
    gamma: frozenset, s: frozenset, diamonds: Iterable[Diamond]
) -> list[tuple[frozenset, frozenset, tuple]]:
    """The successor world of each of `diamonds`, in their order, as the
    state (s, base, added) of its first node: the diamond's body
    and every box body of gamma, over S and the outer witnesses of the
    boxes and the diamond."""
    boxes = [g for g in gamma if isinstance(g, Box)]
    box_bodies = frozenset([b.body for b in boxes])
    shared = frozenset(s).union(*map(outer_witnesses, boxes))
    return [
        (shared | outer_witnesses(d), frozenset({d.body}) | box_bodies, ())
        for d in diamonds
    ]


def _child_states(gamma, s, kind, pivot, choice) -> list[tuple]:
    """The one definition of each branching rule's children: the states
    (s, base, added) the rule `kind` of a node (gamma, s) makes for one
    `choice`, the node's `pick`, all of which must be open. At `nestedForall`
    the choice is a forest, and its child is the forest's expansion over
    its node names; at `trivialSkolem` it is None, and the child is the
    node under the empty forest; at `or` it is a disjunct index, and the
    child is gamma with the pivot replaced by that disjunct; at `diamond`
    it is the diamonds in child order (`diamond_outcomes`). A diamond's
    child starts a world and is its state as it stands; any other child is
    what `_saturate` makes of it. Search and the verifier both call this."""
    if kind == "diamond":
        return diamond_outcomes(gamma, s, choice)
    if kind == "nestedForall":
        return [(frozenset(choice.names()), (), expand_forest(choice, gamma))]
    if kind == "trivialSkolem":
        return [(s, gamma, ())]
    return [(s, gamma - {pivot}, ((pivot.left, pivot.right)[choice],))]


def search(
    theta: Formula,
    limits: Optional[SearchLimits] = None,
    guidance: Optional[Guidance] = None,
) -> SearchResult:
    """Depth-first AND-OR search for an open saturated tableau.

    Returns SAT with the certificate tableau's root and UNSAT when every
    alternative closed. A budget that runs out raises `ResourceLimit`
    wherever it fires, which ends the whole search: the result is then
    EXHAUSTED, and `stats.exhausted_by` names the budget and the world of
    the state being visited or of the frame drawing its next alternative.
    `stats.failed_at` names the world of the first state that failed.

    The search is one loop over a stack of frames, one per open node whose
    rule is being expanded, so its depth is bounded by the node budget
    alone. Each state visited is a node and counts against the budget: a
    world's first node as it stands, any other state once `_saturate` has
    run its single-child rules. A node that closes, or that the memo of
    failed nodes holds, fails at once, and a saturated one is a leaf. A
    frame fails when every alternative `_alternatives` lists has failed;
    unguided, its node then enters the memo, keyed by (gamma, S). The key
    leaves out the forest, which no rule below a forest point reads, and
    whether the node starts a world: a world's first node either holds
    its nested universal, which no kept node past a world start holds, or
    saturates to the node it equals.
    """
    root = init_root(theta)
    if limits is None:
        limits = SearchLimits.derive(theta)
    stats = SearchStats()
    memo: set = set()
    # A frame: [world, gamma, s, kind, the alternatives left, the current
    # alternative's states, its pick, its children built so far].
    stack: list[list] = []
    # A state to visit: (world, start, (s, base, added)). At a world's
    # first node (`start`) gamma is `base`, checked in full for a clash;
    # elsewhere it is what `_saturate` makes of `base` and `added`.
    state = ((), True, (root.s, root.gamma, ()))
    try:
        while True:
            world, start, (s, base, added) = state
            stats.nodes += 1
            if stats.nodes > limits.max_tableau_nodes:
                raise ResourceLimit("tableau node budget exceeded", stats.nodes)
            node = None
            if not start:
                kept = _saturate(s, base, added)
            elif is_closed(base):
                kept = None
            else:
                kept = (base, *select_rule(base, True))
            if kept is None:
                stats.failed_at = stats.failed_at or render_world(world)
            elif guidance is None and (kept[0], s) in memo:
                stats.memo_hits += 1
            else:
                gamma, kind, pivot = kept
                if kind == "none":
                    node = TableauNode(gamma, s)
                else:
                    alts = _alternatives(world, gamma, s, kind, pivot, limits, guidance)
                    stack.append([world, gamma, s, kind, alts, (), None, []])
            # Hand `node`, None for a failed state, up the stack until a
            # frame names the next state to visit.
            while stack:
                frame = stack[-1]
                world, gamma, s, kind, alts, alt, pick, kids = frame
                if node is not None:
                    kids.append(node)
                    if len(kids) < len(alt):
                        break
                    stack.pop()
                    node = TableauNode(gamma, s, tuple(kids), pick)
                    continue
                pick, alt = next(alts, (None, None))
                if alt is None:
                    stack.pop()
                    stats.failed_at = stats.failed_at or render_world(world)
                    if guidance is None:
                        memo.add((gamma, s))
                    continue
                if kind == "or":
                    stats.or_attempts += 1
                elif kind == "nestedForall":
                    stats.forest_attempts += 1
                kids = []
                frame[5:] = alt, pick, kids
                break
            else:
                break
            # Child i of a diamond node starts world + (i,); any other child
            # sits at its node's world.
            i = len(kids)
            start = kind == "diamond"
            state = (world + (i,) if start else world, start, alt[i])
    except ResourceLimit as exc:
        # `world` is that of the state being visited or of the frame
        # drawing its next alternative.
        stats.exhausted_by = str(ResourceLimit(exc.budget, exc.count, render_world(world)))
        return SearchResult(EXHAUSTED, None, stats)
    return SearchResult(UNSAT if node is None else SAT, node, stats)


def _alternatives(world, gamma, s, kind, pivot, limits, guidance):
    """The alternatives of a node's rule `kind`, as an iterator of (pick,
    states) in the order search tries them: each choice the rule offers,
    a hinted one first, which is the node's pick, with the child states
    `_child_states` makes for it. At a world's first node the choices are
    the candidate forests (a valid preferred forest first, then the
    enumerated ones, lazily), or the one `trivialSkolem` step, whose pick
    is None; at an `or` choice the two disjunct indices; at a
    diamond node one order of its diamonds, by `formula_key` but those
    whose keys the hint lists first, in its order."""
    if kind == "nestedForall":
        choices = enumerate_forests(pivot, gamma, s, limits)
        preferred = None if guidance is None else guidance.forest.get(world)
        if preferred is not None and not validate_forest(preferred, pivot, s):
            choices = chain([preferred], (f for f in choices if f != preferred))
    elif kind == "diamond":
        diamonds = sorted((g for g in gamma if isinstance(g, Diamond)), key=formula_key)
        order = None if guidance is None else guidance.diamond_order.get(world)
        if order:
            pool = {formula_key(d): d for d in diamonds}
            first = [pool.pop(key) for key in order if key in pool]
            diamonds = first + list(pool.values())
        choices = [tuple(diamonds)]
    elif kind == "trivialSkolem":
        choices = [None]
    else:
        hint = guidance and guidance.or_choice.get((world, formula_key(pivot)))
        choices = (1, 0) if hint == 1 else (0, 1)
    for choice in choices:
        yield choice, _child_states(gamma, s, kind, pivot, choice)


def verify_tableau(tableau: TableauNode, theta: Formula) -> list[str]:
    """Re-derive every edge of the certificate, the tree under the root
    `tableau`, an edge within a world by running `_saturate` again; empty
    list means it stands. The root and each child of a diamond node, whose
    pick is a tuple, start a world, as in `walk`."""
    out: list[str] = []
    try:
        want = init_root(theta)
    except FragmentError as exc:
        out.append(str(exc))
    else:
        for name in ("gamma", "s"):
            if getattr(tableau, name) != getattr(want, name):
                out.append(f"root {name} differs from init_root(theta)")

    starts = {id(tableau)}
    for world, node in tableau.walk():
        if type(node.pick) is tuple:
            starts.update(map(id, node.children))
        errs = []
        if is_closed(node.gamma):
            errs.append("gamma contains a formula and its complement")
        if node.children:
            errs.extend(_check_step(node, id(node) in starts))
        elif not is_saturated(node.gamma):
            errs.append("unsaturated leaf")
        elif node.pick is not None:
            errs.append("leaf with a pick")
        if errs:
            where = render_world(world)
            out.extend(f"{where}: {e}" for e in errs)
    return out


def _check_step(node: TableauNode, start: bool) -> list[str]:
    """What is wrong with the step from this node, which starts a world
    or not, to its children. The node's choice, its `pick`, must be one
    its rule offers, a forest only at a forest point, and each child must
    be the state `_child_states` makes for it, compared by gamma and
    domain set: a diamond's child as the state stands, any other once
    `_saturate` has run. Past a world's first node only an `or` choice and
    a diamond node have children."""
    try:
        kind, pivot = select_rule(node.gamma, start)
    except FomlError as exc:
        return [str(exc)]
    kids, choice = node.children, node.pick
    if kind == "none":
        return ["children under a saturated node"]
    if not start and isinstance(choice, SkolemForest):
        return ["forest pick at a node that starts no world"]
    if kind == "diamond":
        diamonds = sorted((g for g in node.gamma if isinstance(g, Diamond)), key=id)
        # Nodes are unique, so the pick lists each diamond of gamma once
        # exactly when the two sort alike by id.
        if type(choice) is not tuple or sorted(choice, key=id) != diamonds:
            return ["diamond pick does not list each diamond of gamma once"]
    elif kind == "or":
        if choice not in (0, 1):
            return [f"or node with a pick of {choice!r}"]
        if len(_open_disjuncts(node.gamma, pivot)) < 2:
            return ["or node that gamma decides is kept as a choice"]
    elif kind == "nestedForall":
        if not isinstance(choice, SkolemForest):
            return [f"nestedForall node with a pick of {choice!r}"]
        bad = validate_forest(choice, pivot, node.s)
        if bad:
            return [f"forest: {v}" for v in bad]
    elif kind != "trivialSkolem":
        return [f"{kind} left to apply at a node with children"]
    elif choice is not None:
        return [f"trivialSkolem node with a pick of {choice!r}"]
    states = _child_states(node.gamma, node.s, kind, pivot, choice)
    if len(kids) != len(states):
        return [f"{kind} node has {len(kids)} children, its choice makes {len(states)}"]
    errs = []
    for i, (c, (s, gamma, added)) in enumerate(zip(kids, states)):
        if kind != "diamond":
            try:
                made = _saturate(s, gamma, added)
            except FomlError as exc:
                errs.append(str(exc))
                continue
            if made is None:
                errs.append(f"{kind} child {i} closes")
                continue
            gamma = made[0]
        parts = (("gamma", c.gamma, gamma), ("domain set", c.s, s))
        wrong = [part for part, got, want in parts if got != want]
        if wrong:
            errs.append(f"{kind} child {i} has an unexpected {' and '.join(wrong)}")
    return errs


def read_choices(root: TableauNode):
    """The choices behind a verified tree, one per node that made one, as
    (world, node, kind, choice): at `or` the pivot and the kept disjunct's
    index, at `nestedForall` the forest, at `diamond` the diamonds in
    child order, the order the search used. Each is read off the node's
    `pick` alone, with no rule applied: a tuple is a diamond node's
    diamonds, a skolem forest a forest point's forest, and any other pick
    an `or` choice's kept index, whose pivot is gamma's first formula in
    `rule_rank` order."""
    for w, node in root.walk():
        pick = node.pick
        if type(pick) is tuple:
            yield w, node, "diamond", pick
        elif isinstance(pick, SkolemForest):
            yield w, node, "nestedForall", pick
        elif pick is not None:
            yield w, node, "or", (_top(node.gamma), pick)


def replay_guidance(tableau: TableauNode, choices: Optional[list] = None) -> Guidance:
    """The choices behind a verified tree, read back as replay hints: the
    disjunct kept at each `or` choice, each world's forest
    and each diamond node's successor order. Searching with them rebuilds
    the same tree.
    `choices` is the tree's `read_choices`, where a caller has listed it."""
    guidance = Guidance()
    if choices is None:
        choices = read_choices(tableau)
    for world, _, kind, choice in choices:
        if kind == "or":
            pivot, idx = choice
            guidance.or_choice[(world, formula_key(pivot))] = idx
        elif kind == "nestedForall":
            guidance.forest[world] = choice
        else:
            guidance.diamond_order[world] = [formula_key(d) for d in choice]
    return guidance


def _pruned(g: Guidance) -> Guidance:
    """The hints of `g` that differ from the choice `_alternatives` makes
    unguided: the `or` picks of disjunct 1 and the diamond orders whose
    keys are out of `formula_key` order, with every forest. A certificate
    holds these; a rebuild keeps every order, since an old world's diamonds
    keep their indices only where the order lists them."""
    orders = g.diamond_order.items()
    return Guidance(
        or_choice={key: i for key, i in g.or_choice.items() if i},
        forest=g.forest,
        diamond_order={w: keys for w, keys in orders if keys != sorted(keys)},
    )


def _forest_to_json(forest: SkolemForest, show) -> dict:
    return {
        "var": forest.var,
        "psi": show(forest.psi),
        "nodes": [
            {
                "name": n.name,
                "parent": n.parent,
                "atom": list(map(show, n.atom.members)),
                "children": list(n.children),
            }
            for n in forest.nodes
        ],
    }


def _forest_from_json(data, read) -> SkolemForest:
    nodes = tuple(
        ForestNode(
            name=checked(n["name"], str, "a node name"),
            parent=None if n["parent"] is None else checked(
                n["parent"], str, "a parent name"
            ),
            atom=Atom(tuple(map(read, checked(n["atom"], list, "a list")))),
            children=names(n["children"]),
        )
        for n in checked(data["nodes"], list, "a list of forest nodes")
    )
    return SkolemForest(
        var=checked(data["var"], str, "a variable"),
        psi=read(data["psi"]),
        nodes=nodes,
    )


def certificate_to_json(tableau: TableauNode) -> str:
    """The choices behind the tree under the root `tableau` that a replay
    would not make by itself, as one line of canonical JSON: `theta`, the
    root's one formula; `nodes`, the tree's node count, which a replay must
    visit exactly (the kept nodes only: world starts, `or` choices, diamond
    nodes and leaves); and the `_pruned` `replay_guidance` hints, each a
    list of entries sorted by world, a world written as its list of
    diamond indices: `or_choice`, `[world, pivot]` where the right
    disjunct was kept; `forest`, `[world, forest]` at every forest point;
    and `diamond_order`, `[world, keys]` where the keys are out of
    `formula_key` order. Each distinct formula is printed once."""
    show = cache(print_formula)
    (theta,) = tableau.gamma
    g = _pruned(replay_guidance(tableau))
    doc = {
        "theta": show(theta),
        "nodes": sum(1 for _ in tableau.walk()),
        "or_choice": [[list(w), key] for w, key in sorted(g.or_choice)],
        "forest": [
            [list(w), _forest_to_json(f, show)] for w, f in sorted(g.forest.items())
        ],
        "diamond_order": [[list(w), keys] for w, keys in sorted(g.diamond_order.items())],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _world(data) -> tuple[int, ...]:
    if type(data) is not list or any(type(i) is not int for i in data):
        raise TypeError(f"expected a world, a list of diamond indices, got {data!r}")
    return tuple(data)


def _table(entries, entry) -> dict:
    """The dict of a certificate's list of entries, each read by `entry`
    into a (key, value) pair; a key listed twice is malformed."""
    pairs = [entry(*e) for e in checked(entries, list, "a list of entries")]
    table = dict(pairs)
    if len(table) < len(pairs):
        raise ValueError("a choice is listed twice")
    return table


def _parse_certificate(text: str) -> tuple[Formula, int, Guidance]:
    """A certificate's theta, node count and choices, in any JSON layout.
    Only theta and the forests are parsed, each distinct string once."""
    once = cache(parse_formula)

    def read(t):  # any other JSON value fails in the parser, uncached
        return once(t) if type(t) is str else parse_formula(t)

    def or_entry(world, key):
        return (_world(world), checked(key, str, "a pivot key")), 1

    def forest_entry(world, forest):
        return _world(world), _forest_from_json(forest, read)

    def diamond_entry(world, keys):
        return _world(world), list(names(keys))

    try:
        doc = checked(json.loads(text), dict, "an object")
        if "root" in doc:
            raise FomlError(
                "certificate holds a whole tableau tree, a format no longer "
                "read: regenerate it with `foml sat`"
            )
        guidance = Guidance(
            or_choice=_table(doc["or_choice"], or_entry),
            forest=_table(doc["forest"], forest_entry),
            diamond_order=_table(doc["diamond_order"], diamond_entry),
        )
        nodes = checked(doc["nodes"], int, "a node count")
        if nodes < 1:
            raise ValueError(f"node count {nodes} is not positive")
        return read(doc["theta"]), nodes, guidance
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise FomlError(f"malformed certificate: {exc}") from exc


def _first_difference(got: Guidance, want: Guidance) -> Optional[str]:
    """How the choices a replay read back (`got`) first differ from the
    certificate's (`want`), by field and then by world; None if they agree."""
    if got == want:
        return None
    for name in ("or_choice", "forest", "diamond_order"):
        have, claim = getattr(got, name), getattr(want, name)
        for key in sorted(have.keys() | claim.keys()):
            where = render_world(key[0] if name == "or_choice" else key)
            if key not in have:
                return f"{name} at {where} is never used"
            if key not in claim:
                return f"{name} at {where} is missing"
            if have[key] != claim[key]:
                return f"{name} at {where} differs from the replay's"
    return None


def certificate_from_json(text: str) -> TableauNode:
    """The root of the tree a certificate's choices rebuild. The replay is
    `search(theta)` under the certificate's guidance, an `or_choice` entry
    a pick of disjunct 1, with `nodes` as its node budget; it stands only
    if no state it visits fails, it visits exactly `nodes` nodes and the
    `_pruned` choices it reads back are the certificate's, so no choice is
    missing and none is unused: an entry that lists a default, such as a
    diamond order in key order, is unused. Any other outcome, running out
    of that budget included, is a `FomlError` that names the world where
    one is known, the world of the first failed state first."""
    theta, nodes, guidance = _parse_certificate(text)
    try:
        init_root(theta)  # a theta the search takes, before it sizes a budget
        limits = SearchLimits(SearchLimits.derive(theta).max_forest_nodes, nodes)
        result = search(theta, limits, guidance)
    except FomlError as exc:
        raise FomlError(f"invalid certificate: {exc}") from exc
    if failed := result.stats.failed_at:
        raise FomlError(f"invalid certificate: the replay closed a node at {failed}")
    if result.status == EXHAUSTED:
        raise FomlError(
            f"invalid certificate: the replay ran past its budget: "
            f"{result.stats.exhausted_by}"
        )
    wrong = _first_difference(_pruned(replay_guidance(result.tableau)), guidance)
    if wrong:
        raise FomlError(f"invalid certificate: {wrong}")
    if result.stats.nodes != nodes:
        raise FomlError(
            f"invalid certificate: the replay visited {result.stats.nodes} "
            f"nodes, not {nodes}"
        )
    return result.tableau
