"""Static check, read with `ast`: no function in the formula layer calls
itself, so every formula walk runs at any depth. A nested function counts as
part of the function it sits in, so recursion through a nested helper is
caught too."""

import ast
from pathlib import Path

import foml.formulas

FORMULAS = Path(foml.formulas.__file__)


def _called_names(fn):
    """Names of the functions and own methods that fn, and the functions
    nested in it, call: `name(...)`, `self.name(...)` and `cls.name(...)`."""
    out = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            out.add(node.func.id)
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("self", "cls")
        ):
            out.add(node.func.attr)
    return out


def recursive_functions(source):
    tree = ast.parse(source)
    return sorted(
        f"{fn.name}:{fn.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name in _called_names(fn)
    )


def test_no_formula_function_calls_itself():
    assert recursive_functions(FORMULAS.read_text(encoding="utf-8")) == []


def test_the_check_sees_direct_and_nested_recursion():
    direct = "def f(x):\n    return f(x)\n"
    nested = "def f(x):\n    def g(y):\n        return f(y)\n    return g(x)\n"
    inner = "def f(x):\n    def walk(y):\n        walk(y)\n    walk(x)\n"
    method = "class A:\n    def f(self):\n        return self.f()\n"
    assert recursive_functions(direct) == ["f:1"]
    assert recursive_functions(method) == ["f:2"]
    assert recursive_functions(nested) == ["f:1"]
    assert recursive_functions(inner) == ["walk:2"]
