"""Brute-force reference generators and checks the package code never touches."""

from itertools import product

from foml.formulas import And, Exists, Or, nnf_complement


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
