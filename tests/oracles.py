"""Brute-force reference generators and checks the package code never touches."""

import re
from itertools import product
from typing import NamedTuple, Optional

from foml.formulas import (
    BUNDLE_BOX_EXISTS,
    BUNDLE_BOX_FORALL,
    BUNDLE_EXISTS_BOX,
    BUNDLE_FORALL_BOX,
    EBBE,
    FMP_DECIDABLE,
    NOT_BUNDLED,
    ORIGIN_SEP,
    UNDECIDABLE,
    And,
    ArityError,
    Box,
    Diamond,
    Exists,
    FomlError,
    Forall,
    Formula,
    FragmentClass,
    Not,
    Or,
    Pred,
    ResourceLimit,
    check_arities,
    formula_key,
    free_vars,
    fresh_var,
    instance,
    is_literal,
    is_nested_forall,
    is_nnf,
    nnf_complement,
    outer_witnesses,
    var_key,
)
from foml.forest import SkolemForest
from foml.kripke import KripkeModel, _tree_shapes
from foml.parser import ParseError, SourceSpan


def brute_atoms(psi):
    """All minimal consistent leaf choices of the and/or skeleton."""

    def leaves(f):
        if isinstance(f, (And, Or)):
            return leaves(f.left) + leaves(f.right)
        return [f]

    def holds(f, chosen):
        if isinstance(f, And):
            return holds(f.left, chosen) and holds(f.right, chosen)
        if isinstance(f, Or):
            return holds(f.left, chosen) or holds(f.right, chosen)
        return f in chosen

    pool = []
    for leaf in leaves(psi):
        if leaf not in pool:
            pool.append(leaf)
    candidates = []
    for mask in range(1 << len(pool)):
        chosen = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
        if not holds(psi, chosen):
            continue
        if any(nnf_complement(f) in chosen for f in chosen):
            continue
        candidates.append(chosen)
    return {c for c in candidates if not any(o < c for o in candidates)}


def ref_components(phi):
    """The subformulas evaluated at phi's world: and/or flattened, modules
    kept whole, quantifiers kept and entered."""
    if isinstance(phi, (And, Or)):
        return ref_components(phi.left) | ref_components(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return {phi} | ref_components(phi.body)
    return {phi}


def atoms_as_sets(atoms):
    return {frozenset(a.members) for a in atoms}


def ref_label_trees(atoms, above):
    """Independent enumerator of minimal label trees below one node."""
    out = []
    for i, atom in enumerate(atoms):
        n_ex = len(atom.exists_members)
        admissible = n_ex == 0 or above.count(i) >= 2
        if admissible:
            out.append((i, ()))
        else:
            options = ref_label_trees(atoms, above + [i])
            for combo in product(options, repeat=n_ex):
                out.append((i, combo))
    return out


def forest_shape(forest, atoms):
    """Name-free canonical form of a forest for cross-enumerator comparison."""
    index = forest.by_name()

    def shape(name):
        node = index[name]
        return (atoms.index(node.atom), tuple(shape(c) for c in node.children))

    return tuple(shape(r.name) for r in forest.roots())


def is_minimal_forest(forest):
    """True when every branch closes at its first node whose label has no
    existential member or already labels two strict ancestors."""
    parent = {n.name: n.parent for n in forest.nodes}
    label = {n.name: n.atom for n in forest.nodes}
    for node in forest.nodes:
        above = []
        cur = parent[node.name]
        while cur is not None:
            above.append(label[cur])
            cur = parent[cur]
        owes = any(isinstance(m, Exists) for m in node.atom.members)
        closes = not owes or above.count(node.atom) >= 2
        if bool(node.children) == closes:
            return False
    return True


# Uncached references for the values a formula node caches: each walks the
# node's fields afresh and reads none of its caches.

_BINARY_OPS = {And: " & ", Or: " | "}
_UNARY_OPS = {Not: "~", Box: "[]", Diamond: "<>"}
_QUANT_KW = {Exists: "exists", Forall: "forall"}


def ref_key(phi):
    """`formula_key`."""
    t = type(phi)
    if t is Pred:
        return f"{phi.name}({','.join(phi.args)})" if phi.args else phi.name
    if t in _BINARY_OPS:
        return f"({ref_key(phi.left)}{_BINARY_OPS[t]}{ref_key(phi.right)})"
    if t in _QUANT_KW:
        return f"({_QUANT_KW[t]} {phi.var}. {ref_key(phi.body)})"
    return _UNARY_OPS[t] + ref_key(phi.body)


_PRIORITY = {And: 0, Or: 1, Exists: 2, Forall: 3, Diamond: 4, Box: 5, Not: 6}


def ref_rank(phi):
    """`rule_rank`: the priority of the rule that takes phi, then, for a
    kind whose rule takes one pivot, the key; a literal, which no rule
    takes, `(7,)`."""
    if type(phi) is Pred or (type(phi) is Not and type(phi.body) is Pred):
        return (7,)
    if type(phi) in (Diamond, Box, Not):
        return (_PRIORITY[type(phi)],)
    return _PRIORITY[type(phi)], ref_key(phi)


def ref_free_vars(phi):
    if type(phi) is Pred:
        return frozenset(phi.args)
    if type(phi) in _BINARY_OPS:
        return ref_free_vars(phi.left) | ref_free_vars(phi.right)
    if type(phi) in _QUANT_KW:
        return ref_free_vars(phi.body) - {phi.var}
    return ref_free_vars(phi.body)


def ref_all_vars(phi):
    if type(phi) is Pred:
        return frozenset(phi.args)
    if type(phi) in _BINARY_OPS:
        return ref_all_vars(phi.left) | ref_all_vars(phi.right)
    if type(phi) in _QUANT_KW:
        return ref_all_vars(phi.body) | {phi.var}
    return ref_all_vars(phi.body)


_DUALS = {And: Or, Or: And, Exists: Forall, Forall: Exists, Box: Diamond, Diamond: Box}


def ref_complement(phi):
    """`nnf_complement` of an NNF formula, built afresh."""
    t = type(phi)
    if t is Pred:
        return Not(phi)
    if t is Not:
        return phi.body
    if t in (And, Or):
        return _DUALS[t](ref_complement(phi.left), ref_complement(phi.right))
    if t in _QUANT_KW:
        return _DUALS[t](phi.var, ref_complement(phi.body))
    return _DUALS[t](ref_complement(phi.body))


# Recursive references for the formula walks, which the package runs over
# its post-order with an explicit stack. Each visits a shared operand once
# per path and reads no node cache.


def ref_check_arities(phi):
    arities = {}

    def walk(node):
        if type(node) is Pred:
            n = len(node.args)
            old = arities.setdefault(node.name, n)
            if old != n:
                raise ArityError(node.name, old, n)
        elif type(node) in _BINARY_OPS:
            walk(node.left)
            walk(node.right)
        else:
            walk(node.body)

    walk(phi)
    return arities


def ref_is_nnf(phi):
    if type(phi) is Pred:
        return True
    if type(phi) is Not:
        return type(phi.body) is Pred
    if type(phi) in _BINARY_OPS:
        return ref_is_nnf(phi.left) and ref_is_nnf(phi.right)
    return ref_is_nnf(phi.body)


def ref_to_nnf(phi):
    ref_check_arities(phi)

    def walk(node):
        t = type(node)
        if t is Pred:
            return node
        if t is Not:
            return ref_complement(walk(node.body))
        if t in _BINARY_OPS:
            return t(walk(node.left), walk(node.right))
        if t in _QUANT_KW:
            return t(node.var, walk(node.body))
        return t(walk(node.body))

    return walk(phi)


def ref_substitute(phi, mapping):
    """Capture raises only for a variable that occurs free below the binder."""
    if not mapping:
        return phi
    t = type(phi)
    if t is Pred:
        return Pred(phi.name, tuple(mapping.get(a, a) for a in phi.args))
    if t in _BINARY_OPS:
        return t(ref_substitute(phi.left, mapping), ref_substitute(phi.right, mapping))
    if t in _QUANT_KW:
        live = {k: v for k, v in mapping.items() if k in ref_free_vars(phi)}
        if not live:
            return phi
        if phi.var in live.values():
            raise FomlError(f"substitution would capture binder {phi.var!r}")
        return t(phi.var, ref_substitute(phi.body, live))
    return t(ref_substitute(phi.body, mapping))


def ref_binders(phi):
    """Bound-variable names in preorder, duplicates kept."""
    if type(phi) is Pred:
        return []
    if type(phi) in _BINARY_OPS:
        return ref_binders(phi.left) + ref_binders(phi.right)
    if type(phi) in _QUANT_KW:
        return [phi.var] + ref_binders(phi.body)
    return ref_binders(phi.body)


def ref_clean_rename(phi):
    used = set(ref_free_vars(phi))
    taken = set(ref_all_vars(phi))

    def walk(node, ren):
        t = type(node)
        if t is Pred:
            return Pred(node.name, tuple(ren.get(a, a) for a in node.args))
        if t in _BINARY_OPS:
            return t(walk(node.left, ren), walk(node.right, ren))
        if t in _QUANT_KW:
            name = node.var
            if name in used:
                new = fresh_var(used | taken)
                taken.add(new)
            else:
                new = name
            used.add(new)
            return t(new, walk(node.body, {**ren, name: new}))
        return t(walk(node.body, ren))

    return walk(phi, {})


def _is_module(phi):
    t = type(phi)
    return t is Pred or t in (Box, Diamond) or (t is Not and type(phi.body) is Pred)


def ref_outer_ex_vars(phi):
    if _is_module(phi):
        return frozenset()
    if type(phi) in _BINARY_OPS:
        return ref_outer_ex_vars(phi.left) | ref_outer_ex_vars(phi.right)
    if type(phi) is Exists:
        return frozenset({phi.var}) | ref_outer_ex_vars(phi.body)
    if type(phi) is Forall:
        return frozenset()
    raise ValueError(f"not in negation normal form: {phi}")


def ref_skeleton_leaves(psi):
    out = []

    def walk(node):
        if type(node) in _BINARY_OPS:
            walk(node.left)
            walk(node.right)
            return
        if not (_is_module(node) or type(node) in _QUANT_KW):
            raise ValueError(f"not in negation normal form: {node}")
        if node not in out:
            out.append(node)

    walk(psi)
    return out


_ABOVE = {Box: BUNDLE_BOX_EXISTS, Diamond: BUNDLE_BOX_FORALL}
_BELOW = {Box: BUNDLE_EXISTS_BOX, Diamond: BUNDLE_FORALL_BOX}
_FMP_ROWS = (
    {BUNDLE_FORALL_BOX, BUNDLE_EXISTS_BOX},
    {BUNDLE_FORALL_BOX, BUNDLE_BOX_FORALL, BUNDLE_BOX_EXISTS},
)


def ref_classify_fragment(phi):
    """Every occurrence of a quantifier, with the modality directly above it."""
    bundles = set()
    unbundled = False
    stack = [(ref_to_nnf(phi), None)]
    while stack:
        node, above = stack.pop()
        t = type(node)
        if t in _BINARY_OPS:
            stack += ((node.left, None), (node.right, None))
        elif t in (Box, Diamond):
            stack.append((node.body, t))
        elif t in _QUANT_KW:
            for row, modal in ((_ABOVE, above), (_BELOW, type(node.body))):
                if modal in row:
                    bundles.add(row[modal if t is Exists else _DUALS[modal]])
                    break
            else:
                unbundled = True
            stack.append((node.body, None))
    if unbundled:
        category = NOT_BUNDLED
    elif bundles <= {BUNDLE_EXISTS_BOX, BUNDLE_BOX_EXISTS}:
        category = EBBE
    elif any(bundles <= row for row in _FMP_ROWS):
        category = FMP_DECIDABLE
    else:
        category = UNDECIDABLE
    return FragmentClass(frozenset(bundles), category)


def ref_step(gamma, s, kind, pivot):
    """The gammas one same-world rule allows, as the tableau applied the
    rules one node at a time: one per disjunct gamma leaves open at `or`
    (the one already in gamma, or the one both disjuncts are, alone; else
    each whose complement is not in gamma), the single gamma of every other
    kind."""
    if kind == "end":
        return [frozenset(g for g in gamma if is_literal(g))]
    rest = gamma - {pivot}
    if kind == "and":
        return [rest | {pivot.left, pivot.right}]
    if kind == "or":
        left, right = pivot.left, pivot.right
        if left in rest or left is right:
            return [rest | {left}]
        if right in rest:
            return [rest | {right}]
        return [rest | {d} for d in (left, right) if nnf_complement(d) not in rest]
    if kind == "exists":
        if pivot.var not in s:
            raise FomlError(
                f"existential witness {pivot.var!r} is missing from the domain set"
            )
        return [rest | {pivot.body}]
    assert kind == "forall", kind
    return [rest | {instance(pivot, z) for z in s}]


def _closed(gamma):
    return any(nnf_complement(f) in gamma for f in gamma)


def ref_saturate(gamma, s):
    """`tableau._saturate` of a state past a world's first node, one rule at
    a time: `ref_select_rule` picks each rule, `ref_step` applies it, and
    every state is checked in
    full for a clash. Returns the steps taken, each (kind, pivot, the gamma
    it applied to), and the node they end at, (gamma, kind, pivot) with kind `or` (a choice), `diamond`
    or `none`, or None where a state closes or an `or` has no open
    disjunct."""
    steps = []
    while True:
        if _closed(gamma):
            return steps, None
        kind, pivot = ref_select_rule(gamma, False)
        if kind in ("none", "diamond"):
            return steps, (gamma, kind, pivot)
        options = ref_step(gamma, s, kind, pivot)
        if len(options) == 2:
            return steps, (gamma, kind, pivot)
        if not options:
            return steps, None
        steps.append((kind, pivot, gamma))
        gamma = options[0]


def ref_diamond_world(gamma, s, diamond):
    """The first (gamma, S) of the world `diamond` spawns: its body and
    every box body of gamma, over S and the outer witnesses of the boxes
    and the diamond."""
    boxes = [g for g in gamma if isinstance(g, Box)]
    body = frozenset([diamond.body] + [b.body for b in boxes])
    return body, frozenset(s).union(outer_witnesses(diamond), *map(outer_witnesses, boxes))


def ref_read_choices(root):
    """`tableau.read_choices` by re-applying the rules, in preorder: the
    root and each child of a node whose rule is `diamond` start a world,
    where `ref_select_rule` names the forest rule, and a forest point's
    choice is its `pick`, a forest. Elsewhere an `or` node is a choice when
    `ref_step` offers two options; the kept index is the node's `pick`,
    whose option `ref_saturate` must take to the child's gamma. Both
    options can saturate to one gamma, so the pick is read, not found. So
    is a diamond node's order, its `pick`: it must list each diamond of
    gamma once, and child i must start the world of its i-th diamond,
    though several diamonds can spawn one world."""
    stack = [((), root, True)]
    while stack:
        w, node, start = stack.pop()
        kind, pivot = ref_select_rule(node.gamma, start)
        kids = node.children
        if kind == "diamond":
            order = node.pick
            diamonds = [g for g in node.gamma if type(g) is Diamond]
            assert sorted(order, key=formula_key) == sorted(diamonds, key=formula_key)
            assert [(k.gamma, k.s) for k in kids] == [
                ref_diamond_world(node.gamma, node.s, d) for d in order
            ], "the pick does not lead to the children"
            yield w, node, "diamond", order
            stack.extend((w + (i,), kids[i], True) for i in reversed(range(len(kids))))
            continue
        if kind == "nestedForall":
            assert isinstance(node.pick, SkolemForest)
            yield w, node, kind, node.pick
        elif kind == "or":
            options = ref_step(node.gamma, node.s, kind, pivot)
            if len(options) == 2:
                end = ref_saturate(options[node.pick], node.s)[1]
                assert end[0] == kids[0].gamma, "the pick does not lead to the child"
                yield w, node, kind, (pivot, node.pick)
        stack.extend((w, c, False) for c in reversed(kids))


# `tableau.select_rule` by a scan of gamma's kinds, then of the first kind's
# formulas in `formula_key` order: the reference for the pick by rank.
_PIVOT_RULES = ((And, "and"), (Or, "or"), (Exists, "exists"), (Forall, "forall"))


def ref_select_rule(gamma, start):
    """The unique rule class for this node state, with its pivot formula: at
    a world's first node (`start`) the forest rule, elsewhere, of the first
    kind present, the one first in `formula_key` order."""
    kinds = {type(g) for g in gamma}
    if kinds <= {Pred, Not} and all(is_literal(g) for g in gamma):
        return "none", None
    if start:
        nested = [g for g in gamma if isinstance(g, Forall) and is_nested_forall(g)]
        if len(nested) > 1:
            raise FomlError("multiple nested universals in one gamma")
        if nested:
            return "nestedForall", nested[0]
        return "trivialSkolem", None
    for kind, name in _PIVOT_RULES:
        if kind in kinds:
            return name, min((g for g in gamma if type(g) is kind), key=formula_key)
    if Diamond in kinds:
        return "diamond", None
    if Box in kinds:
        return "end", None
    raise FomlError("no rule applies to a non-literal gamma")


# The recursive-descent parser, one method per binding level, over one token
# per regular-expression group: the reference for `parser.parse_formula`.
class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# One named group per token kind, tried in order: `word` is a keyword,
# predicate or variable, `skip` a comment, and `stray` and `bad` catch what
# no token starts with. `finditer` steps over whitespace, which no group
# matches. A word may carry `ORIGIN_SEP` after its first letter: instance
# binders are named `b@e` (`formulas.instance`), and certificates print them.
_TOKEN = re.compile(
    rf"""
    (?P<word>[A-Za-z][A-Za-z0-9_{ORIGIN_SEP}]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<and>[&∧])
  | (?P<or>[|∨])
  | (?P<not>[~¬])
  | (?P<iff><->|↔)
  | (?P<implies>->|→)
  | (?P<diamond><>|[◇◊])
  | (?P<box>\[\]|□)
  | (?P<forall>∀)
  | (?P<exists>∃)
  | (?P<skip>\#[^\n]*)
  | (?P<stray>[-<\[])
  | (?P<bad>[^ \t\r\n])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        word = m.group()
        start, end = m.span()
        if kind == "word":
            if word in ("forall", "exists"):
                kind = word
            else:
                kind = "pred" if word[0].isupper() else "var"
        elif kind == "stray":
            raise ParseError(f"stray {word!r}", SourceSpan(start, end))
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", SourceSpan(start, end))
        toks.append(_Token(kind, word, start, end))
    toks.append(_Token("eof", "", len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            raise ParseError(
                f"expected {expected}, found {tok.text or 'end of input'!r}", tok.span
            )
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
        return phi

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek().kind == "iff":
            self.pos += 1
            right = self.iff()
            return Or(And(left, right), And(Not(left), Not(right)))
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "implies":
            self.pos += 1
            return Or(Not(left), self.implies())
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while self.peek().kind == "or":
            self.pos += 1
            phi = Or(phi, self.conjunction())
        return phi

    def conjunction(self) -> Formula:
        phi = self.unary()
        while self.peek().kind == "and":
            self.pos += 1
            phi = And(phi, self.unary())
        return phi

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.pos += 1
            return Not(self.unary())
        if tok.kind == "box":
            self.pos += 1
            return Box(self.unary())
        if tok.kind == "diamond":
            self.pos += 1
            return Diamond(self.unary())
        if tok.kind in ("forall", "exists"):
            self.pos += 1
            var = self.take("var", "a variable")
            self.take("dot", "'.'")
            body = self.iff()
            return (Forall if tok.kind == "forall" else Exists)(var.text, body)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            self.pos += 1
            phi = self.iff()
            self.take("rparen", "')'")
            return phi
        if tok.kind == "pred":
            self.pos += 1
            args: list[str] = []
            end = tok.end
            if self.peek().kind == "lparen":
                self.pos += 1
                args.append(self.take("var", "a variable").text)
                while self.peek().kind == "comma":
                    self.pos += 1
                    args.append(self.take("var", "a variable").text)
                end = self.take("rparen", "')'").end
            known = self.arities.setdefault(tok.text, len(args))
            if known != len(args):
                raise ParseError(
                    f"predicate {tok.text!r} used with arity {len(args)},"
                    f" earlier with arity {known}",
                    SourceSpan(tok.start, end),
                )
            return Pred(tok.text, tuple(args))
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.span
        )


def ref_parse_formula(text):
    return _Parser(text).parse()


# The bounded model finder as it stood with a recursive `dfs` and a nested
# `_join` per connective: the reference for `kripke.bounded_model_search`,
# which must return the same first model, world and assignment, and raise
# `ResourceLimit` with the same count, for every budget.
def ref_ground(phi: Formula, w: int, sigma: dict, delta: list[frozenset[str]],
               children: list[list[int]], atom_ids: dict):
    """Expand NNF phi at world w into a folded propositional DAG.

    A node is True, False, a literal (2 * atom id, plus 1 when negated; ids
    are handed out in `atom_ids`, keyed (world, predicate, tuple)), or
    (is_or, parts) with at least two parts. Quantifiers become Or/And over
    the sorted local domain and modalities Or/And over the children.
    """
    if isinstance(phi, Pred):
        key = (w, phi.name, tuple(sigma[a] for a in phi.args))
        return 2 * atom_ids.setdefault(key, len(atom_ids))
    if isinstance(phi, Not):
        return ref_ground(phi.body, w, sigma, delta, children, atom_ids) | 1
    if isinstance(phi, (And, Or)):
        return ref_join(isinstance(phi, Or), (
            ref_ground(part, w, sigma, delta, children, atom_ids)
            for part in (phi.left, phi.right)
        ))
    if isinstance(phi, (Exists, Forall)):
        return ref_join(isinstance(phi, Exists), (
            ref_ground(phi.body, w, {**sigma, phi.var: d}, delta, children, atom_ids)
            for d in sorted(delta[w])
        ))
    return ref_join(isinstance(phi, Diamond), (
        ref_ground(phi.body, v, sigma, delta, children, atom_ids) for v in children[w]
    ))


def ref_join(is_or: bool, parts):
    """Fold an Or (is_or) or And of ground parts: constants absorb or drop,
    nested nodes of the same kind flatten, duplicates drop, and a literal
    next to its complement decides the node."""
    out: dict = {}
    for part in parts:
        if type(part) is bool:
            if part is is_or:
                return is_or
        elif type(part) is tuple and part[0] is is_or:
            out.update(dict.fromkeys(part[1]))
        else:
            out[part] = None
    if any(type(p) is int and (p ^ 1) in out for p in out):
        return is_or
    if len(out) < 2:
        return next(iter(out), not is_or)
    return (is_or, tuple(out))


def ref_dag_atoms(node, out: set) -> set:
    if type(node) is int:
        out.add(node >> 1)
    elif type(node) is tuple:
        for part in node[1]:
            ref_dag_atoms(part, out)
    return out


def ref_kleene(node, val: list):
    """Three-valued value of a ground DAG; val[i] is atom i's value or None."""
    if type(node) is int:
        v = val[node >> 1]
        return v if v is None or not node & 1 else not v
    if type(node) is bool:
        return node
    want, parts = node
    unknown = False
    for part in parts:
        r = ref_kleene(part, val)
        if r is want:
            return want
        if r is None:
            unknown = True
    return None if unknown else not want


def ref_bounded_model_search(
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
            for delta in ref_delta_assignments(parents, n, max_domain):
                for sigma_vals in product(sorted(delta[0]), repeat=len(fvars)):
                    sigma = dict(zip(fvars, sigma_vals))
                    model, steps = ref_search_valuations(
                        phi, sigma, parents, children, delta, max_steps, steps
                    )
                    if model is not None:
                        return model, "w0", sigma
    return None


def ref_delta_assignments(parents, n: int, max_domain: int):
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


def ref_search_valuations(phi, sigma, parents, children, delta,
                          max_steps: int, steps: int):
    """The least valuation, in (world, predicate, tuple) order with false
    before true, that satisfies phi at w0 under sigma on this frame."""
    atom_ids: dict[tuple[int, str, tuple[str, ...]], int] = {}
    dag = ref_ground(phi, 0, sigma, delta, children, atom_ids)
    used = ref_dag_atoms(dag, set())
    order = sorted(a for a, i in atom_ids.items() if i in used)
    ids = [atom_ids[a] for a in order]
    val: list = [None] * len(atom_ids)

    def dfs(i: int, steps: int):
        steps += 1
        if steps > max_steps:
            raise ResourceLimit("oracle enumeration budget exceeded", steps)
        r = ref_kleene(dag, val)
        if r is not None:
            return r, steps
        for b in (False, True):
            val[ids[i]] = b
            found, steps = dfs(i + 1, steps)
            if found:
                return True, steps
        val[ids[i]] = None
        return False, steps

    found, steps = dfs(0, steps)
    if not found:
        return None, steps
    true_atoms = [a for a in order if val[atom_ids[a]]]
    return ref_build_model(parents, delta, true_atoms), steps


def ref_build_model(parents, delta, true_atoms) -> KripkeModel:
    n = len(parents)
    worlds = frozenset(f"w{i}" for i in range(n))
    edges = frozenset((f"w{parents[i]}", f"w{i}") for i in range(1, n))
    valuation: dict[tuple[str, str], set] = {}
    for w, p, t in true_atoms:
        valuation.setdefault((f"w{w}", p), set()).add(t)
    return KripkeModel(
        worlds=worlds,
        domain=frozenset().union(*delta) if delta else frozenset(),
        edges=edges,
        local_domain={f"w{i}": delta[i] for i in range(n)},
        valuation={k: frozenset(v) for k, v in valuation.items()},
    )
