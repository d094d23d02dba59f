"""Formula AST and syntactic machinery for a bundled fragment of first-order
modal logic.

There are no constants or function symbols; predicate arguments are plain
variables. Diamond is a first-class node rather than sugar for ~[]~ because
negation normal form needs it and the solver pattern-matches on it directly.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

Var = str


class FomlError(Exception):
    """Base class for errors raised by this package."""


class ArityError(FomlError):
    """A predicate symbol is used with two different arities."""

    def __init__(self, name: str, seen: int, conflicting: int):
        super().__init__(
            f"predicate {name!r} used with arity {seen} and with arity {conflicting}"
        )
        self.name = name


class FragmentError(FomlError):
    """The formula lies outside the fragment a component can handle."""


class ResourceLimit(FomlError):
    """A configured enumeration or search budget was exceeded. The message
    names the budget; `world`, when known, is the world where it fired and
    `count` the work done by then, and both are appended to it."""

    def __init__(
        self, budget: str, count: int | None = None, world: str | None = None
    ):
        message = budget
        if world is not None:
            message = f"{message} at {world}"
        if count is not None:
            message = f"{message} (work count {count})"
        super().__init__(message)
        self.budget = budget
        self.count = count
        self.world = world


class _Node:
    """A formula node, hash-consed: each constructor returns the one live node
    for its structure, so equal formulas are the same object and compare by
    identity. The intern table holds nodes weakly, keyed on the class, the
    name fields and the children's identities; a live entry keeps its
    children alive, so their ids cannot be reused while it stands.

    A node is immutable and hashes by identity, as `object` does, so a set
    of nodes iterates in an order that follows memory addresses: each
    reader of one whose result reaches an output sorts by `formula_key`,
    takes a `min` by `rule_rank`, or yields a set or a bool. A node fills
    on first use what the tableau asks of it: `formula_key` with
    `rule_rank`, `nnf_complement`, `free_vars`, `all_vars` and `_binders`,
    each over `post_order` for the whole DAG, and `classify_fragment` its
    result; a `Forall` also keeps `is_nested_forall` and `instances`, a `Box`
    or `Diamond` its `outer_witnesses`."""

    __slots__ = (
        "_key", "_compl", "_free", "_all", "_binders", "_rank", "_fragment", "__weakref__"
    )
    _fields: tuple[str, ...] = ()
    _op = ""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        return formula_key(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # hands back the live node.
        return type(self), tuple(getattr(self, f) for f in self._fields)


_TABLE: dict[tuple, weakref.ref] = {}
# Dead entries are swept once the table holds twice the nodes alive at the
# last sweep (and at least _MIN_SWEEP entries), so a node that is built and
# dropped costs no weakref callback, and its entry is gone soon after.
_MIN_SWEEP = 128
_sweep_at = _MIN_SWEEP
_ref = weakref.ref
_blank = object.__new__
_UNRANKED = ()  # sorts before every filled `rule_rank`


def _sweep() -> None:
    global _TABLE, _sweep_at
    _TABLE = {k: r for k, r in _TABLE.items() if r() is not None}
    _sweep_at = max(_MIN_SWEEP, 2 * len(_TABLE))


def _enter(node, key):
    """Give a new node empty caches and enter it in the table under key."""
    _set_key(node, None)
    _set_compl(node, None)
    _set_free(node, None)
    _set_all(node, None)
    _set_rank(node, _UNRANKED)
    _TABLE[key] = _ref(node)
    if len(_TABLE) >= _sweep_at:
        _sweep()
    return node


# Nodes are filled in through the slot descriptors, past the guard.
_set_key = _Node._key.__set__
_set_compl = _Node._compl.__set__
_set_free = _Node._free.__set__
_set_all = _Node._all.__set__
_set_binders = _Node._binders.__set__
_set_rank = _Node._rank.__set__
_set_fragment = _Node._fragment.__set__


class Pred(_Node):
    """Atomic predicate application, e.g. P(x, y). Arity may be zero."""

    __slots__ = ("name", "args")
    _fields = ("name", "args")

    def __new__(cls, name: str, args: tuple[Var, ...] = ()):
        if type(args) is not tuple:
            args = tuple(args)
        key = (name, args)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _blank(cls)
        _set_name(node, name)
        _set_args(node, args)
        return _enter(node, key)


_set_name = Pred.name.__set__
_set_args = Pred.args.__set__


class _Unary(_Node):
    __slots__ = ("body",)
    _fields = ("body",)

    def __new__(cls, body: "Formula"):
        key = (cls, id(body))
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _blank(cls)
        _set_body(node, body)
        if cls is not Not:
            _set_outer(node, None)
        return _enter(node, key)


_set_body = _Unary.body.__set__


class _Binary(_Node):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, id(left), id(right))
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _blank(cls)
        _set_left(node, left)
        _set_right(node, right)
        return _enter(node, key)


_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class _Quant(_Node):
    __slots__ = ("var", "body")
    _fields = ("var", "body")

    def __new__(cls, var: Var, body: "Formula"):
        key = (cls, var, id(body))
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _blank(cls)
        _set_var(node, var)
        _set_quant_body(node, body)
        if cls is Forall:
            _set_nested(node, None)
            _set_atoms(node, None)
        return _enter(node, key)


_set_var = _Quant.var.__set__
_set_quant_body = _Quant.body.__set__


class Not(_Unary):
    __slots__ = ()
    _op = "~"


class And(_Binary):
    __slots__ = ()
    _op = " & "


class Or(_Binary):
    __slots__ = ()
    _op = " | "


class Exists(_Quant):
    __slots__ = ()
    _op = "exists"


class Forall(_Quant):
    # See `instances`, `is_nested_forall` and `forall_atoms`.
    __slots__ = ("_inst", "_nested", "_atoms")
    _op = "forall"


_set_inst = Forall._inst.__set__
_set_nested = Forall._nested.__set__
_set_atoms = Forall._atoms.__set__


class _Modal(_Unary):
    __slots__ = ("_outer",)  # see `outer_witnesses`


_set_outer = _Modal._outer.__set__


class Box(_Modal):
    __slots__ = ()
    _op = "[]"


class Diamond(_Modal):
    __slots__ = ()
    _op = "<>"


Formula = Union[Pred, Not, And, Or, Exists, Forall, Box, Diamond]

_ENUM_VAR = re.compile(r"v(\d+)\Z")


# The tableau's rule priority by node kind (`tableau.select_rule`); no rule
# takes a negation that is not a literal, nor a literal, which ranks last.
RULE_PRIORITY = {And: 0, Or: 1, Exists: 2, Forall: 3, Diamond: 4, Box: 5, Not: 6}
LITERAL_RANK = (7,)
# The ranks of kinds whose rule takes no single pivot, known without a key.
_KEYLESS_RANK = {Pred: LITERAL_RANK, **{t: (RULE_PRIORITY[t],) for t in (Diamond, Box)}}


def formula_key(phi: Formula) -> str:
    """Stable sort key so iteration over formula sets is deterministic: the
    formula's `str`. One fold over phi's DAG fills the key of every node
    below phi that has none, each from its children's keys, and the node's
    `rule_rank` with it."""
    key = phi._key
    if key is None:
        for node in post_order(phi, slot=_Node._key):
            t = type(node)
            if t is Pred:
                key = f"{node.name}({','.join(node.args)})" if node.args else node.name
                rank = LITERAL_RANK
            elif t is And or t is Or:
                key = f"({node.left._key}{node._op}{node.right._key})"
                rank = (RULE_PRIORITY[t], key)
            elif t is Exists or t is Forall:
                key = f"({node._op} {node.var}. {node.body._key})"
                rank = (RULE_PRIORITY[t], key)
            else:
                key = node._op + node.body._key
                if t is not Not:
                    rank = _KEYLESS_RANK[t]
                elif type(node.body) is Pred:
                    rank = LITERAL_RANK
                else:
                    rank = (RULE_PRIORITY[Not],)
            _set_key(node, key)
            _set_rank(node, rank)
    return key


def rule_rank(phi: Formula) -> tuple:
    """The order in which the tableau takes a gamma's formulas: the
    `RULE_PRIORITY` of phi's kind, then, if its rule takes one formula,
    `formula_key`; every literal is `LITERAL_RANK`."""
    rank = phi._rank
    if not rank:
        rank = _KEYLESS_RANK.get(type(phi))
        if rank is None:
            formula_key(phi)
            return phi._rank
        _set_rank(phi, rank)
    return rank


def var_key(name: Var) -> tuple:
    """Sort key placing the fresh enumeration v0, v1, ... in numeric order."""
    m = _ENUM_VAR.match(name)
    if m:
        return (0, int(m.group(1)), "")
    return (1, 0, name)


def fresh_var(avoid: Iterable[Var]) -> Var:
    """Smallest variable of the fixed enumeration v0, v1, ... not in avoid."""
    taken = set(avoid)
    i = 0
    while f"v{i}" in taken:
        i += 1
    return f"v{i}"


# The node kinds with children, and the last walk with the defaults (kept,
# not copied), which `to_nnf`, `derive`, `is_nnf` and `classify_fragment` repeat.
_INNER = frozenset({Not, And, Or, Exists, Forall, Box, Diamond})
_last_walk: tuple = (None, [])


def post_order(phi: Formula, into=_INNER, slot=None) -> list[Formula]:
    """The distinct nodes of phi's DAG in post-order, children left to right,
    entering nodes of the kinds `into` only; with `slot`, less the nodes below
    phi whose slot is filled, as fills run in this order. The walk runs at any
    depth and visits a shared operand once. Do not change the list returned."""
    global _last_walk
    if type(phi) not in into:
        return [phi]
    filled = None if slot is None else slot.__get__
    last, cached = _last_walk
    if into is _INNER and last is phi:
        return cached if filled is None else [n for n in cached if filled(n) is None]
    order: list[Formula] = []
    seen: set[int] = set()
    stack: list = [phi]
    while stack:
        node = stack.pop()
        if node is None:  # the node under the marker has its children done
            order.append(stack.pop())
            continue
        i = id(node)
        if i in seen or (filled is not None and filled(node) is not None):
            continue
        seen.add(i)
        t = type(node)
        if t not in into:
            order.append(node)
        elif t is And or t is Or:
            stack += (node, None, node.right, node.left)
        else:
            stack += (node, None, node.body)
    if into is _INNER and slot is None:
        _last_walk = (phi, order)
    return order


def _make(cls, node: Formula, new, var: Var | None = None) -> Formula:
    """A cls node over new(child) for node's children, binding var or node's."""
    if issubclass(cls, _Binary):
        return cls(new(node.left), new(node.right))
    if issubclass(cls, _Quant):
        return cls(node.var if var is None else var, new(node.body))
    return cls(new(node.body))


def check_arities(phi: Formula) -> dict[str, int]:
    """Collect predicate arities, raising ArityError on any inconsistency."""
    arities: dict[str, int] = {}
    for node in post_order(phi):
        if type(node) is Pred:
            n = len(node.args)
            old = arities.setdefault(node.name, n)
            if old != n:
                raise ArityError(node.name, old, n)
    return arities


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _fill_vars(phi: Formula) -> None:
    """Fill `free_vars`, `all_vars` and `_binders` (one per path) of phi's DAG."""
    for node in post_order(phi, slot=_Node._free):
        if type(node) is Pred:
            free = found = frozenset(node.args)
            binders = 0
        elif isinstance(node, _Binary):
            free = _union(node.left._free, node.right._free)
            found = _union(node.left._all, node.right._all)
            binders = node.left._binders + node.right._binders
        else:
            free, found, binders = node.body._free, node.body._all, node.body._binders
            if isinstance(node, _Quant):
                binders += 1
                if node.var in free:
                    free = free - {node.var}
                if node.var not in found:
                    found = found | {node.var}
        _set_free(node, free)
        _set_all(node, found)
        _set_binders(node, binders)


def free_vars(phi: Formula) -> frozenset[Var]:
    if phi._free is None:
        _fill_vars(phi)
    return phi._free


def all_vars(phi: Formula) -> frozenset[Var]:
    """Free and bound variables."""
    if phi._all is None:
        _fill_vars(phi)
    return phi._all


def _rename(phi: Formula, ren: Mapping[Var, Var], bind) -> Formula:
    """phi, its DAG filled, with each predicate's arguments renamed by the
    renaming in force, ren at the top; at a quantifier, bind(node, ren) gives
    the new binder and the renaming below, None to keep the node. A node's
    image depends on the binders above it: the walk goes once per path."""
    scoped: list[tuple] = []
    stack: list = [(phi, ren)]
    while stack:
        node, ren = stack.pop()
        var = None
        if node._binders == 0 and (not ren or ren.keys().isdisjoint(node._free)):
            ren = None  # nothing below to bind or to rename
        elif isinstance(node, _Quant):
            var, ren = bind(node, ren)
        scoped.append((node, ren, var))
        if ren is not None and isinstance(node, _Binary):
            stack += ((node.right, ren), (node.left, ren))
        elif ren is not None and type(node) is not Pred:
            stack.append((node.body, ren))
    out: list[Formula] = []  # a node's new children on top, leftmost last
    for node, ren, var in reversed(scoped):
        if ren is None:
            out.append(node)
        elif type(node) is Pred:
            out.append(Pred(node.name, tuple([ren.get(a, a) for a in node.args])))
        else:
            out.append(_make(type(node), node, lambda _child: out.pop(), var))
    return out[0]


def is_clean(phi: Formula) -> bool:
    """No variable both bound and free, and none bound twice: as many binders,
    one per path, as variables that occur bound and never free."""
    return len(all_vars(phi) - free_vars(phi)) == phi._binders


def substitute(phi: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Rename free occurrences of variables.

    Binders shadow the mapping. Capture (a binder equal to the new name of
    a variable that occurs free below it) is an internal error.
    """
    if mapping.keys().isdisjoint(free_vars(phi)):
        return phi

    def bind(node: _Quant, ren: dict) -> tuple:
        live = {k: v for k, v in ren.items() if k in node._free}
        if node.var in live.values():
            raise FomlError(f"substitution would capture binder {node.var!r}")
        return node.var, live or None

    return _rename(phi, mapping, bind)


def rename_vars(phi: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Rename the variables `mapping` names, free or bound, binders
    included; for renamings that keep distinct names apart."""
    if mapping.keys().isdisjoint(all_vars(phi)):  # fills the counts `_rename` reads
        return phi
    return _rename(phi, mapping, lambda node, ren: (ren.get(node.var, node.var), ren))


# Joins a binder's name to the element its universal was instantiated at:
# the binder `b` in a universal's instance at element `e` is named `b@e`, so
# a name depends only on its origin, the input binder, and the elements on
# the way. The parser reads it inside variable names, since certificates
# print forests whose formulas carry such names; `clean_rename` renames an
# input binder that carries it, and a search refuses an input variable that
# does (`tableau.init_root`).
ORIGIN_SEP = "@"


def instances(q: Forall) -> dict:
    """The universal's cache of named instances, made on first use: each
    body `instance` named, under its element, and what each skolem-forest
    node adds (`forest.expand_forest`), under the node's name, label and
    children. Every search, check and rebuild shares it."""
    table = getattr(q, "_inst", None)  # the slot is unset until first use
    if table is None:
        table = {}
        _set_inst(q, table)
    return table


def instance(q: Forall, z: Var) -> Formula:
    """The universal's body at element z, each binder `b` in it named by
    its origin, `b@z`: `forall w` in the instance at `v1` binds `w@v1`, and a
    binder `z@v1` instantiated at `v5` becomes `z@v1@v5`. The name depends
    only on the universal and the element, never on what else is in gamma,
    so the instance is made once per (universal, element) and cached on the
    universal (`instances`)."""
    table = instances(q)
    body = table.get(z)
    if body is None:
        free_vars(q.body)  # fills the counts `_rename` reads
        tag = ORIGIN_SEP + z

        def bind(node: _Quant, ren: dict) -> tuple:
            new = node.var + tag
            if new in node._free:
                raise FomlError(f"the instance at {z!r} would capture {new!r}")
            return new, {**ren, node.var: new}

        body = table[z] = _rename(q.body, {q.var: z}, bind)
    return body


def clean_rename(phi: Formula) -> Formula:
    """Rewrite binders one by one, in preorder, so the result is clean: the
    normalization of input formulas.

    A binder is kept when its name is still unused and carries no
    `ORIGIN_SEP`, which instance binders own (`instance`); otherwise it
    becomes the first variable of the fixed enumeration that clashes with
    nothing. The result is alpha-equivalent to the input and deterministic.
    A clean formula whose binders carry no `ORIGIN_SEP` keeps every binder,
    so it is its own result. Search renames nothing: instances name their
    binders by origin.
    """
    free = free_vars(phi)  # fills the binder count too
    if phi._binders == 0 or (
        is_clean(phi) and not any(ORIGIN_SEP in v for v in all_vars(phi) - free)
    ):
        return phi
    used = set(free)
    taken = set(all_vars(phi))

    def bind(node: _Quant, ren: dict) -> tuple:
        # A kept binder shadows no renamed one: those names are all used.
        name = node.var
        if name not in used and ORIGIN_SEP not in name:
            used.add(name)
            return name, ren
        new = fresh_var(used | taken)
        taken.add(new)
        used.add(new)
        return new, {**ren, name: new}

    return _rename(phi, {}, bind)


def to_nnf(phi: Formula) -> Formula:
    """Negation normal form: negation only on atoms.

    Each `~psi` becomes the `nnf_complement` of psi's normal form, so the
    dual table there is the one definition of negation.
    """
    check_arities(phi)
    if is_nnf(phi):
        return phi  # a rebuild would hand back this very node
    out: dict[int, Formula] = {}
    for node in post_order(phi):
        t = type(node)
        if t is Pred:
            out[id(node)] = node
        elif t is Not:
            out[id(node)] = nnf_complement(out[id(node.body)])
        else:
            out[id(node)] = _make(t, node, lambda child: out[id(child)])
    return out[id(phi)]


def is_nnf(phi: Formula) -> bool:
    # Only a formula in negation normal form has its complement filled.
    return phi._compl is not None or all(
        type(n) is not Not or type(n.body) is Pred for n in post_order(phi)
    )


def nnf_complement(phi: Formula) -> Formula:
    """Negation of an NNF formula, again in NNF."""
    if phi._compl is None:
        nodes = [phi] if is_literal(phi) else post_order(phi, slot=_Node._compl)
        for node in nodes:
            t = type(node)
            if t is Pred:
                compl = Not(node)
            elif t is Not and type(node.body) is Pred:
                compl = node.body
            elif t in _DUAL:
                compl = _make(_DUAL[t], node, _Node._compl.__get__)
            else:
                raise ValueError(f"not in negation normal form: {node}")
            _set_compl(node, compl)
            # The complement of the complement is the node itself.
            if compl._compl is None:
                _set_compl(compl, node)
    return phi._compl


_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists, Box: Diamond, Diamond: Box}
_SKELETON = (And, Or)  # the kinds of the and/or skeleton


def is_literal(phi: Formula) -> bool:
    return isinstance(phi, Pred) or (
        isinstance(phi, Not) and isinstance(phi.body, Pred)
    )


def is_module(phi: Formula) -> bool:
    """A literal or a formula whose outermost symbol is a modality."""
    return is_literal(phi) or isinstance(phi, (Box, Diamond))


def outer_ex_vars(phi: Formula) -> frozenset[Var]:
    """Existential variables not guarded by any modality or universal.

    These are exactly the witnesses the tableau strips at the world where the
    formula lives, so they must already sit in that world's local domain.
    """
    found = set()
    for node in post_order(phi, (And, Or, Exists)):
        if type(node) is Exists:
            found.add(node.var)
        elif not (type(node) in (And, Or, Forall) or is_module(node)):
            raise ValueError(f"not in negation normal form: {node}")
    return frozenset(found)


_NO_VARS: frozenset[Var] = frozenset()  # shared by every empty result


def outer_witnesses(phi: Box | Diamond) -> frozenset[Var]:
    """The `outer_ex_vars` of the modality's body, cached on the node."""
    found = phi._outer
    if found is None:
        found = outer_ex_vars(phi.body) or _NO_VARS
        _set_outer(phi, found)
    return found


def is_nested_forall(phi: Formula) -> bool:
    """True when the and/or skeleton of a universal's body has a quantified
    leaf, that is, when a quantifier is evaluated at the universal's world.
    Computed once per universal and cached on it.

    Such formulas are the source of unbounded witness chains and get the
    skolem-forest treatment instead of plain instantiation.
    """
    if not isinstance(phi, Forall):
        raise ValueError(f"expected a universally quantified formula: {phi}")
    nested = phi._nested
    if nested is None:
        nested = any(isinstance(c, _Quant) for c in skeleton_leaves(phi.body))
        _set_nested(phi, nested)
    return nested


@dataclass(frozen=True)
class Atom:
    """Label of a skolem-forest node.

    One minimal way a single element can satisfy the matrix of a nested
    universal formula: every disjunction resolved, every conjunction kept,
    no member together with its complement. Members stay in the matrix's
    left-to-right order.
    """

    members: tuple[Formula, ...]

    @property
    def exists_members(self) -> tuple[Exists, ...]:
        return tuple(m for m in self.members if isinstance(m, Exists))

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def skeleton_leaves(psi: Formula) -> list[Formula]:
    """Leaves of the and/or skeleton in document order, without duplicates."""
    leaves = [n for n in post_order(psi, _SKELETON) if type(n) not in _SKELETON]
    for leaf in leaves:
        if not (is_module(leaf) or isinstance(leaf, _Quant)):
            raise ValueError(f"not in negation normal form: {leaf}")
    return leaves


def enumerate_atoms(psi: Formula) -> list[Atom]:
    """All atoms of psi, the matrix of a universal, in a fixed order.

    Resolution of the and/or skeleton generates candidate member sets; the
    inconsistent ones (containing some leaf and its complement) and the
    non-minimal ones are dropped. Every minimal consistent set of leaves
    satisfying the skeleton survives, so the enumeration is complete.
    """
    leaves = skeleton_leaves(psi)
    index = {f: i for i, f in enumerate(leaves)}

    # Each node's candidate member sets, deduplicated in first-seen order.
    sets: dict[int, list[frozenset[int]]] = {}
    for node in post_order(psi, _SKELETON):
        if type(node) not in _SKELETON:
            sets[id(node)] = [frozenset({index[node]})]
            continue
        ls, rs = sets[id(node.left)], sets[id(node.right)]
        both = [a | b for a in ls for b in rs] if type(node) is And else ls + rs
        sets[id(node)] = list(dict.fromkeys(both))
    consistent = []
    for cand in sets[id(psi)]:
        chosen = {leaves[i] for i in cand}
        if not any(nnf_complement(f) in chosen for f in chosen):
            consistent.append(cand)
    minimal = [c for c in consistent if not any(o < c for o in consistent)]
    minimal.sort(key=lambda c: tuple(sorted(c)))
    return [Atom(tuple(leaves[i] for i in sorted(c))) for c in minimal]


def forall_atoms(q: Forall) -> tuple[Atom, ...]:
    """`enumerate_atoms` of the universal's body, made once and kept on the
    universal: the forest layer asks for them at every enumeration,
    validation and size bound."""
    atoms = q._atoms
    if atoms is None:
        atoms = tuple(enumerate_atoms(q.body))
        _set_atoms(q, atoms)
    return atoms


BUNDLE_FORALL_BOX = "forall-box"
BUNDLE_EXISTS_BOX = "exists-box"
BUNDLE_BOX_FORALL = "box-forall"
BUNDLE_BOX_EXISTS = "box-exists"

EBBE = "EBBE"
FMP_DECIDABLE = "FMP-decidable"
UNDECIDABLE = "Undecidable"
NOT_BUNDLED = "NotBundled"

_EBBE_BUNDLES = frozenset({BUNDLE_EXISTS_BOX, BUNDLE_BOX_EXISTS})
_FMP_ROWS = (
    frozenset({BUNDLE_FORALL_BOX, BUNDLE_EXISTS_BOX}),
    frozenset({BUNDLE_FORALL_BOX, BUNDLE_BOX_FORALL, BUNDLE_BOX_EXISTS}),
)

# The bundle an existential makes with the modality directly above it, or
# failing that with the one its body starts with. A universal reads the row
# through `_DUAL`: `forall x . <>` is the dual of `exists x . []`.
_ABOVE = {Box: BUNDLE_BOX_EXISTS, Diamond: BUNDLE_BOX_FORALL}
_BELOW = {Box: BUNDLE_EXISTS_BOX, Diamond: BUNDLE_FORALL_BOX}


@dataclass(frozen=True)
class FragmentClass:
    """Which quantifier-modality bundles occur, and the resulting category."""

    bundles_present: frozenset[str]
    category: str


def classify_fragment(phi: Formula) -> FragmentClass:
    """Detect bundle patterns in the NNF of phi and map them to a category.

    A quantifier directly under a modality is attributed to that modality;
    otherwise a modal body makes the bundle, and a quantifier adjacent to no
    modality at all rules the formula out of every bundled fragment. Any
    bundle set within {exists-box, box-exists} is EBBE, including strict
    subsets and the empty set. The class is kept on phi.
    """
    found = getattr(phi, "_fragment", None)  # the slot is unset until first use
    if found is not None:
        return found
    bundles: set[str] = set()
    unbundled = False
    nnf = to_nnf(phi)
    edges = [(None, nnf)]  # each occurrence, with the kind of node above it
    for node in post_order(nnf):
        t = type(node)
        if t is And or t is Or:
            edges += ((t, node.left), (t, node.right))
        elif t is not Pred:
            edges.append((t, node.body))
    for above, node in edges:
        t = type(node)
        if t is Exists or t is Forall:
            for row, modal in ((_ABOVE, above), (_BELOW, type(node.body))):
                if modal in row:
                    bundles.add(row[modal if t is Exists else _DUAL[modal]])
                    break
            else:
                unbundled = True
    present = frozenset(bundles)
    if unbundled:
        category = NOT_BUNDLED
    elif present <= _EBBE_BUNDLES:
        category = EBBE
    elif any(present <= row for row in _FMP_ROWS):
        category = FMP_DECIDABLE
    else:
        category = UNDECIDABLE
    found = FragmentClass(present, category)
    _set_fragment(phi, found)
    return found
