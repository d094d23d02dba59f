"""Static checks on the package's imports, read with `ast`: a deleted name
must not linger as an import or an export."""

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
