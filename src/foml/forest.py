"""Skolem forests: labeled witness trees rooted at the current variable set.

A forest answers the one nested universal quantifier alive at a world. Every
node is a fresh variable labeled by an atom of the quantified body; each
existential member of a non-leaf's label gets a designated child as witness.
A branch may stop only once its label has no existential members or has
already appeared twice strictly above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .formulas import (
    ORIGIN_SEP,
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    FomlError,
    Or,
    ResourceLimit,
    all_vars,
    forall_atoms,
    fresh_var,
    instance,
    instances,
    substitute,
    var_key,
)


@dataclass(frozen=True)
class ForestNode:
    name: str
    parent: Optional[str]
    atom: Atom
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class SkolemForest:
    """Immutable forest for one nested quantifier ∀var. psi."""

    var: str
    psi: Formula
    nodes: tuple[ForestNode, ...]

    def by_name(self) -> dict[str, ForestNode]:
        return {n.name: n for n in self.nodes}

    def names(self) -> frozenset[str]:
        return frozenset(n.name for n in self.nodes)

    def roots(self) -> list[ForestNode]:
        return [n for n in self.nodes if n.parent is None]

    def leaves(self) -> list[ForestNode]:
        return [n for n in self.nodes if not n.children]


def _above(index: dict[str, ForestNode], name: str) -> list[ForestNode]:
    """Strict ancestors of the named node in `index`, nearest parent first."""
    out = []
    cur = index[name].parent
    while cur is not None:
        out.append(index[cur])
        cur = index[cur].parent
    return out


def forest_size_bound(quant: Forall, n_roots: int) -> int:
    """Node-count ceiling for minimal forests for the nested universal
    `quant` with n_roots roots.

    With A atoms and at most b existential members per atom, branches repeat
    a label after at most 2A+1 nodes, so max(b, 2)^(2A+2) majorizes any tree.
    """
    atoms = forall_atoms(quant)
    n_atoms = len(atoms)
    branching = max((len(a.exists_members) for a in atoms), default=0)
    return n_roots * max(branching, 2) ** (2 * n_atoms + 2)


def _admissible(atom: Atom, ancestor_atoms: list[Atom]) -> bool:
    if not atom.exists_members:
        return True
    return sum(1 for a in ancestor_atoms if a == atom) >= 2


def enumerate_forests(
    quant: Forall,
    gamma: Iterable[Formula],
    s: Iterable[str],
    limits=None,
) -> Iterator[SkolemForest]:
    """All minimal skolem-forests for `quant`, gamma's nested universal,
    lazily; fresh node names avoid gamma's variables and the origins of
    their derived names.

    Label choices are tried in atom order per node (breadth-first node
    order), so the stream is canonical and duplicate-free. Shape carries no
    choice: a node closes exactly when its label is admissible. A forest
    growing past the node budget raises with the count yielded so far.
    """
    var, psi = quant.var, quant.body
    atoms = forall_atoms(quant)
    roots = sorted(set(s), key=var_key)
    max_nodes = getattr(limits, "max_forest_nodes", None) if limits else None

    if not roots:
        yield SkolemForest(var=var, psi=psi, nodes=())
        return
    if not atoms:
        return

    used = set(roots)
    for g in gamma:
        used |= all_vars(g)
    # No node is named like the origin of a derived name (`b` of `b@e`), so
    # the elements in a derived name can be read back off it.
    used |= {v.partition(ORIGIN_SEP)[0] for v in used}

    order: list[str] = list(roots)
    parents: dict[str, Optional[str]] = {r: None for r in roots}
    labels: dict[str, Atom] = {}
    kids: dict[str, tuple[str, ...]] = {}
    yielded = 0

    # One entry per labelled position of `order`: the index in `atoms` of
    # its label and its ancestors' atoms, computed once per node.
    stack: list[list] = []
    while True:
        if len(stack) == len(order):
            nodes = tuple(ForestNode(n, parents[n], labels[n], kids[n]) for n in order)
            yielded += 1
            yield SkolemForest(var=var, psi=psi, nodes=nodes)
        else:
            above, cur = [], parents[order[len(stack)]]
            while cur is not None:
                above.append(labels[cur])
                cur = parents[cur]
            stack.append([-1, above])
        # Move the last position to its next label, dropping the children
        # its old label made (a stale entry of `parents`, `labels` or `kids`
        # is never read); a position out of labels is dropped too.
        while True:
            entry = stack[-1]
            z = order[len(stack) - 1]
            if entry[0] >= 0:
                fresh = kids[z]
                used.difference_update(fresh)
                del order[len(order) - len(fresh) :]
            entry[0] += 1
            if entry[0] < len(atoms):
                break
            stack.pop()
            if not stack:
                return
        atom = labels[z] = atoms[entry[0]]
        if _admissible(atom, entry[1]):
            kids[z] = ()
            continue
        n_new = len(atom.exists_members)
        if max_nodes is not None and len(order) + n_new > max_nodes:
            raise ResourceLimit("skolem-forest node budget exceeded", yielded)
        fresh = []
        for _ in range(n_new):
            name = fresh_var(used)
            used.add(name)
            fresh.append(name)
            parents[name] = z
            order.append(name)
        kids[z] = tuple(fresh)


def validate_forest(
    forest: SkolemForest, quant: Forall, s: Iterable[str]
) -> list[str]:
    """Check every forest invariant for the nested universal `quant` over
    the domain set s; names each violation."""
    out: list[str] = []
    if forest.var != quant.var or forest.psi != quant.body:
        out.append("forest was built for a different quantified formula")
        return out

    names = [n.name for n in forest.nodes]
    if len(names) != len(set(names)):
        out.append("duplicate node names")
        return out
    index = forest.by_name()

    for node in forest.nodes:
        if node.parent is not None:
            parent = index.get(node.parent)
            if parent is None:
                out.append(f"node {node.name!r} has unknown parent {node.parent!r}")
            elif node.name not in parent.children:
                out.append(
                    f"node {node.name!r} missing from children of {node.parent!r}"
                )
        for c in node.children:
            child = index.get(c)
            if child is None or child.parent != node.name:
                out.append(f"child link {node.name!r} -> {c!r} is inconsistent")

    for node in forest.nodes:
        seen = {node.name}
        cur = node.parent
        while cur is not None:
            if cur in seen:
                out.append(f"cycle through {node.name!r}")
                break
            seen.add(cur)
            cur = index[cur].parent if cur in index else None
    if out:
        return out

    roots = {n.name for n in forest.roots()}
    expected = set(s)
    if roots != expected:
        out.append(
            f"roots {sorted(roots, key=var_key)} differ from "
            f"{sorted(expected, key=var_key)}"
        )

    valid_atoms = set(forall_atoms(quant))
    for node in forest.nodes:
        if node.atom not in valid_atoms:
            out.append(f"node {node.name!r} carries an invalid atom")
            continue
        n_exists = len(node.atom.exists_members)
        if node.children:
            if len(node.children) != n_exists:
                out.append(
                    f"node {node.name!r} has {len(node.children)} children "
                    f"for {n_exists} existential members"
                )
        else:
            above = [a.atom for a in _above(index, node.name)]
            if not _admissible(node.atom, above):
                out.append(
                    f"leaf {node.name!r} still owes witnesses: its label has "
                    "existential members and no two ancestors repeat it"
                )
    return out


def expand_forest(forest: SkolemForest, gamma: Iterable[Formula]) -> frozenset[Formula]:
    """Replace the forest's universal, ∀var. psi, in gamma with its forest
    instances.

    Every node contributes its non-existential members instantiated at the
    node; every non-leaf additionally contributes one existential per member,
    rebound to the designated child. A member's binders are named by origin
    at the node (`formulas.instance`), so what a node contributes depends on
    the node alone and is cached on the universal: expansion is lookups and
    a set union.
    """
    quant = Forall(forest.var, forest.psi)
    if quant not in gamma:
        raise FomlError("forest does not match the nested universal in gamma")
    out = set(gamma)
    out.remove(quant)
    for node in forest.nodes:
        out.update(_node_instances(quant, node))
    return frozenset(out)


def _node_instances(quant: Forall, node: ForestNode) -> tuple[Formula, ...]:
    """What one forest node adds to gamma: each member of its label as it
    stands in `instance(quant, node.name)`, an existential member rebound to
    its designated child, or left out at a leaf."""
    table = instances(quant)
    key = (node.name, node.atom, node.children)
    out = table.get(key)
    if out is None:
        # The instance has the body's and/or skeleton, leaf for leaf.
        at: dict[Formula, Formula] = {}
        stack = [(quant.body, instance(quant, node.name))]
        while stack:
            a, b = stack.pop()
            if type(a) is And or type(a) is Or:
                stack += ((a.left, b.left), (a.right, b.right))
            else:
                at[a] = b
        out = []
        witnesses = iter(node.children)
        for member in node.atom.members:
            inst = at[member]
            if type(member) is Exists:
                witness = next(witnesses, None)
                if witness is None:
                    continue
                inst = Exists(witness, substitute(inst.body, {inst.var: witness}))
            out.append(inst)
        out = table[key] = tuple(out)
    return out


def extend_forest(forest: SkolemForest, leaf: str, avoid: Iterable[str] = ()) -> SkolemForest:
    """Grow the forest at a repeat-label leaf by copying the repeated subtree.

    The leaf takes the position of its nearest-to-root ancestor with the same
    label; the ancestor's subtree is copied below it with fresh names, each
    copy closing as soon as its new root path makes it admissible.
    """
    index = forest.by_name()
    if leaf not in index:
        raise FomlError(f"no node named {leaf!r} in the forest")
    node = index[leaf]
    if node.children:
        raise FomlError(f"node {leaf!r} is not a leaf")
    if not node.atom.exists_members:
        raise FomlError(f"leaf {leaf!r} has no existential members to witness")
    shared = [a for a in _above(index, leaf) if a.atom == node.atom]
    if len(shared) < 2:
        raise FomlError(f"leaf {leaf!r} lacks two ancestors repeating its label")
    top = shared[-1]

    used = {n.name for n in forest.nodes}
    used |= set(avoid) | all_vars(forest.psi) | {forest.var}

    new_nodes: dict[str, ForestNode] = {n.name: n for n in forest.nodes}
    creation: list[str] = []
    counterpart = {top.name: leaf}

    queue = [top.name]
    while queue:
        orig_name = queue.pop(0)
        orig = index[orig_name]
        copy_name = counterpart[orig_name]
        parent = (
            node.parent
            if copy_name == leaf
            else counterpart[orig.parent]
        )
        new_nodes[copy_name] = ForestNode(copy_name, parent, orig.atom, ())
        above = [a.atom for a in _above(new_nodes, copy_name)]
        if copy_name != leaf and _admissible(orig.atom, above):
            continue
        fresh_children = []
        for child in orig.children:
            name = fresh_var(used)
            used.add(name)
            counterpart[child] = name
            fresh_children.append(name)
            creation.append(name)
            queue.append(child)
        new_nodes[copy_name] = ForestNode(
            copy_name, parent, orig.atom, tuple(fresh_children)
        )

    ordered = [new_nodes[n.name] for n in forest.nodes]
    ordered.extend(new_nodes[name] for name in creation)
    return SkolemForest(var=forest.var, psi=forest.psi, nodes=tuple(ordered))
