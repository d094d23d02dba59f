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

    A node is immutable. It holds its hash, computed once when built, and
    fills on first use the values `formula_key`, `nnf_complement`,
    `free_vars`, `all_vars` and `alpha_key` return for it."""

    __slots__ = ("_hash", "_key", "_compl", "_free", "_all", "_alpha", "__weakref__")
    _fields: tuple[str, ...] = ()
    _op = ""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return self._hash

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
    _set_alpha(node, None)
    _TABLE[key] = _ref(node)
    if len(_TABLE) >= _sweep_at:
        _sweep()
    return node


# Nodes are filled in through the slot descriptors, past the guard.
_set_hash = _Node._hash.__set__
_set_key = _Node._key.__set__
_set_compl = _Node._compl.__set__
_set_free = _Node._free.__set__
_set_all = _Node._all.__set__
_set_alpha = _Node._alpha.__set__


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
        _set_hash(node, hash(key))
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
        _set_hash(node, hash((cls._op, body._hash)))
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
        _set_hash(node, hash((cls._op, left._hash, right._hash)))
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
        _set_hash(node, hash((cls._op, var, body._hash)))
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
    __slots__ = ()
    _op = "forall"


class Box(_Unary):
    __slots__ = ()
    _op = "[]"


class Diamond(_Unary):
    __slots__ = ()
    _op = "<>"


Formula = Union[Pred, Not, And, Or, Exists, Forall, Box, Diamond]

_ENUM_VAR = re.compile(r"v(\d+)\Z")


def _render(phi: Formula, alpha: bool) -> str:
    """The `formula_key` of phi or, with `alpha`, its `alpha_key`, built in
    one walk with an explicit stack. Keys already cached below phi are
    reused; alpha keys are not, since a binder's name depends on its depth."""
    parts: list[str] = []
    stack: list = [(phi, {}, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, ren, depth = item
        if not alpha and node._key is not None:
            parts.append(node._key)
        elif type(node) is Pred:
            args = ",".join([ren.get(a, a) for a in node.args])
            parts.append(f"{node.name}({args})" if args else node.name)
        elif isinstance(node, _Binary):
            parts.append("(")
            stack += (")", (node.right, ren, depth), node._op, (node.left, ren, depth))
        elif isinstance(node, _Quant):
            name = f"#{depth}" if alpha else node.var
            parts.append(f"({node._op} {name}. ")
            inner = {**ren, node.var: name} if alpha else ren
            stack += (")", (node.body, inner, depth + 1))
        else:
            parts.append(node._op)
            stack.append((node.body, ren, depth))
    return "".join(parts)


def formula_key(phi: Formula) -> str:
    """Stable sort key so iteration over formula sets is deterministic: the
    formula's `str`."""
    key = phi._key
    if key is None:
        key = _render(phi, alpha=False)
        _set_key(phi, key)
    return key


def alpha_key(phi: Formula) -> str:
    """`formula_key` up to bound-variable names: binder d levels deep is
    named `#d`. Alpha-equivalent formulas share a key, and a formula without
    binders keeps its `formula_key`."""
    key = phi._alpha
    if key is None:
        key = _render(phi, alpha=True)
        _set_alpha(phi, key)
    return key


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


def check_arities(phi: Formula) -> dict[str, int]:
    """Collect predicate arities, raising ArityError on any inconsistency."""
    arities: dict[str, int] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Pred):
            n = len(node.args)
            old = arities.setdefault(node.name, n)
            if old != n:
                raise ArityError(node.name, old, n)
        elif isinstance(node, _Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, _Node):
            walk(node.body)
        else:
            raise TypeError(f"not a formula: {node!r}")

    walk(phi)
    return arities


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def free_vars(phi: Formula) -> frozenset[Var]:
    free = phi._free
    if free is None:
        if type(phi) is Pred:
            free = frozenset(phi.args)
        elif isinstance(phi, _Binary):
            free = _union(free_vars(phi.left), free_vars(phi.right))
        else:
            free = free_vars(phi.body)
            if isinstance(phi, _Quant) and phi.var in free:
                free = free - {phi.var}
        _set_free(phi, free)
    return free


def binders(phi: Formula) -> list[Var]:
    """Bound-variable names in preorder, duplicates kept."""
    out: list[Var] = []

    def walk(node: Formula) -> None:
        if isinstance(node, _Binary):
            walk(node.left)
            walk(node.right)
        elif type(node) is not Pred:
            if isinstance(node, _Quant):
                out.append(node.var)
            walk(node.body)

    walk(phi)
    return out


def all_vars(phi: Formula) -> frozenset[Var]:
    """Free and bound variables."""
    found = phi._all
    if found is None:
        if type(phi) is Pred:
            found = free_vars(phi)
        elif isinstance(phi, _Binary):
            found = _union(all_vars(phi.left), all_vars(phi.right))
        else:
            found = all_vars(phi.body)
            if isinstance(phi, _Quant) and phi.var not in found:
                found = found | {phi.var}
        _set_all(phi, found)
    return found


def is_clean(phi: Formula) -> bool:
    """No variable both bound and free, and no variable bound twice."""
    bs = binders(phi)
    return len(bs) == len(set(bs)) and not (set(bs) & free_vars(phi))


def substitute(phi: Formula, mapping: Mapping[Var, Var]) -> Formula:
    """Rename free occurrences of variables.

    Binders shadow the mapping. Capture (a binder equal to a substituted-in
    name while that entry is live) is an internal error; callers freshen
    binders beforehand.
    """
    if not mapping:
        return phi
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(mapping.get(a, a) for a in phi.args))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, mapping))
    if isinstance(phi, _Binary):
        return type(phi)(substitute(phi.left, mapping), substitute(phi.right, mapping))
    if isinstance(phi, _Quant):
        live = {k: v for k, v in mapping.items() if k != phi.var}
        if not live:
            return phi
        if phi.var in live.values():
            raise FomlError(f"substitution would capture binder {phi.var!r}")
        return type(phi)(phi.var, substitute(phi.body, live))
    return type(phi)(substitute(phi.body, mapping))


def clean_rename(phi: Formula, forbidden: Iterable[Var] = ()) -> Formula:
    """Rewrite binders one by one, in preorder, so the result is clean and
    avoids the forbidden names.

    A binder is kept when its name is still unused; otherwise it becomes the
    first variable of the fixed enumeration that clashes with nothing. The
    result is alpha-equivalent to the input and deterministic.
    """
    used = set(forbidden) | set(free_vars(phi))
    taken = set(forbidden) | set(all_vars(phi))

    def walk(node: Formula, ren: dict[Var, Var]) -> Formula:
        if isinstance(node, Pred):
            return Pred(node.name, tuple(ren.get(a, a) for a in node.args))
        if isinstance(node, Not):
            return Not(walk(node.body, ren))
        if isinstance(node, _Binary):
            return type(node)(walk(node.left, ren), walk(node.right, ren))
        if isinstance(node, _Quant):
            name = node.var
            if name in used:
                new = fresh_var(used | taken)
                taken.add(new)
            else:
                new = name
            used.add(new)
            inner = dict(ren)
            inner[name] = new
            return type(node)(new, walk(node.body, inner))
        return type(node)(walk(node.body, ren))

    return walk(phi, {})


def to_nnf(phi: Formula) -> Formula:
    """Negation normal form: negation only on atoms.

    Each `~psi` becomes the `nnf_complement` of psi's normal form, so the
    dual table there is the one definition of negation.
    """
    check_arities(phi)
    if is_nnf(phi):
        return phi  # a rebuild would hand back this very node

    def walk(node: Formula) -> Formula:
        if isinstance(node, Pred):
            return node
        if isinstance(node, Not):
            return nnf_complement(walk(node.body))
        if isinstance(node, _Binary):
            return type(node)(walk(node.left), walk(node.right))
        if isinstance(node, _Quant):
            return type(node)(node.var, walk(node.body))
        return type(node)(walk(node.body))

    return walk(phi)


def is_nnf(phi: Formula) -> bool:
    if isinstance(phi, Pred):
        return True
    if isinstance(phi, Not):
        return isinstance(phi.body, Pred)
    if isinstance(phi, _Binary):
        return is_nnf(phi.left) and is_nnf(phi.right)
    return is_nnf(phi.body)


def nnf_complement(phi: Formula) -> Formula:
    """Negation of an NNF formula, again in NNF."""
    compl = phi._compl
    if compl is None:
        t = type(phi)
        if t is Pred:
            compl = Not(phi)
        elif t is Not and type(phi.body) is Pred:
            compl = phi.body
        elif t in _DUAL:
            if isinstance(phi, _Binary):
                compl = _DUAL[t](nnf_complement(phi.left), nnf_complement(phi.right))
            elif isinstance(phi, _Quant):
                compl = _DUAL[t](phi.var, nnf_complement(phi.body))
            else:
                compl = _DUAL[t](nnf_complement(phi.body))
        else:
            raise ValueError(f"not in negation normal form: {phi}")
        _set_compl(phi, compl)
        # The complement of the complement is the node itself.
        if compl._compl is None:
            _set_compl(compl, phi)
    return compl


_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists, Box: Diamond, Diamond: Box}


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
    if is_module(phi):
        return frozenset()
    if isinstance(phi, (And, Or)):
        return outer_ex_vars(phi.left) | outer_ex_vars(phi.right)
    if isinstance(phi, Exists):
        return frozenset({phi.var}) | outer_ex_vars(phi.body)
    if isinstance(phi, Forall):
        return frozenset()
    raise ValueError(f"not in negation normal form: {phi}")


def is_nested_forall(phi: Formula) -> bool:
    """True when the and/or skeleton of a universal's body has a quantified
    leaf, that is, when a quantifier is evaluated at the universal's world.

    Such formulas are the source of unbounded witness chains and get the
    skolem-forest treatment instead of plain instantiation.
    """
    if not isinstance(phi, Forall):
        raise ValueError(f"expected a universally quantified formula: {phi}")
    return any(isinstance(c, _Quant) for c in skeleton_leaves(phi.body))


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
    out: list[Formula] = []
    seen: set[Formula] = set()

    def walk(node: Formula) -> None:
        if isinstance(node, (And, Or)):
            walk(node.left)
            walk(node.right)
            return
        if not (is_module(node) or isinstance(node, _Quant)):
            raise ValueError(f"not in negation normal form: {node}")
        if node not in seen:
            seen.add(node)
            out.append(node)

    walk(psi)
    return out


def enumerate_atoms(psi: Formula) -> list[Atom]:
    """All atoms of psi, the matrix of a universal, in a fixed order.

    Resolution of the and/or skeleton generates candidate member sets; the
    inconsistent ones (containing some leaf and its complement) and the
    non-minimal ones are dropped. Every minimal consistent set of leaves
    satisfying the skeleton survives, so the enumeration is complete.
    """
    leaves = skeleton_leaves(psi)
    index = {f: i for i, f in enumerate(leaves)}

    def resolve(node: Formula) -> list[frozenset[int]]:
        if isinstance(node, And):
            lefts = resolve(node.left)
            rights = resolve(node.right)
            combos = []
            seen: set[frozenset[int]] = set()
            for a in lefts:
                for b in rights:
                    u = a | b
                    if u not in seen:
                        seen.add(u)
                        combos.append(u)
            return combos
        if isinstance(node, Or):
            merged = []
            seen = set()
            for c in resolve(node.left) + resolve(node.right):
                if c not in seen:
                    seen.add(c)
                    merged.append(c)
            return merged
        return [frozenset({index[node]})]

    candidates = resolve(psi)
    consistent = []
    for cand in candidates:
        chosen = {leaves[i] for i in cand}
        if any(nnf_complement(f) in chosen for f in chosen):
            continue
        if cand not in consistent:
            consistent.append(cand)
    minimal = [c for c in consistent if not any(o < c for o in consistent)]
    minimal.sort(key=lambda c: tuple(sorted(c)))
    return [Atom(tuple(leaves[i] for i in sorted(c))) for c in minimal]


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
    subsets and the empty set.
    """
    bundles: set[str] = set()
    unbundled = False
    stack: list = [(to_nnf(phi), None)]
    while stack:
        node, above = stack.pop()
        t = type(node)
        if t is And or t is Or:
            stack += ((node.left, None), (node.right, None))
        elif t is Box or t is Diamond:
            stack.append((node.body, t))
        elif t is Exists or t is Forall:
            for row, modal in ((_ABOVE, above), (_BELOW, type(node.body))):
                if modal in row:
                    bundles.add(row[modal if t is Exists else _DUAL[modal]])
                    break
            else:
                unbundled = True
            stack.append((node.body, None))
    present = frozenset(bundles)
    if unbundled:
        category = NOT_BUNDLED
    elif present <= _EBBE_BUNDLES:
        category = EBBE
    elif any(present <= row for row in _FMP_ROWS):
        category = FMP_DECIDABLE
    else:
        category = UNDECIDABLE
    return FragmentClass(present, category)
