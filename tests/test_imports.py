"""Static checks on the package's names, read with `ast`: a deleted name
must not linger as an import or an export, and a name a module defines must
be read somewhere in the package."""

import ast
from pathlib import Path

import foml

PACKAGE = Path(foml.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """Names the module's import statements bind, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _imported_names(tree).items():
            if name not in loaded:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_package_imports_exactly_its_exports():
    tree = _tree(PACKAGE / "__init__.py")
    (exports,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
    ]
    assert len(exports) == len(set(exports))
    assert set(_imported_names(tree)) == set(exports)


def _defined_names(tree):
    """Names the module's top-level statements bind, other than imports,
    with their line numbers. A decorated function is left out: its
    decorator reads it, as click's do."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.decorator_list:
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.lineno
    return out


def test_every_module_level_name_is_read():
    """A module-level name is read in its own module or imported by another
    one; `__init__.py`'s dunder names are exempt."""
    trees = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    imported = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names
                )
    unread = []
    for module, tree in trees.items():
        loaded = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name, line in _defined_names(tree).items():
            if module == "__init__" and name.startswith("__") and name.endswith("__"):
                continue
            if name not in loaded and name not in imported.get(module, ()):
                unread.append(f"{module}.py:{line}: {name}")
    assert unread == []
