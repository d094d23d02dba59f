"""Static check, read with `ast`: no function in the formula layer, the
parser, the tableau search or the forest layer lies on a cycle of calls, so
every formula walk, parsing, the search and forest enumeration run at any
depth. Nested
functions and methods are functions of their own, named by their path
(`outer.walk`, `Class.method`), so recursion through a nested helper,
through `self.` or `cls.` and through other functions is caught too."""

import ast
from pathlib import Path

import pytest

import foml.forest
import foml.formulas
import foml.parser
import foml.tableau

FORMULAS = Path(foml.formulas.__file__)
PARSER = Path(foml.parser.__file__)
SEARCH_AND_FOREST = [Path(foml.tableau.__file__), Path(foml.forest.__file__)]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of fn's body, without those of the functions and classes
    defined in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*_DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _call_graph(source):
    """{function: the functions of the module it calls}. A top-level
    function is named by its name, a method by `Class.method` and a nested
    function by its path, such as `outer.walk`. A call is `name(...)`, found
    in the enclosing functions first, or `self.name(...)`, `cls.name(...)`
    or `Class.name(...)`."""
    defs = {}  # name: (def, its class, the scopes a bare call is looked up in)
    todo = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            todo.extend(
                (f, f"{node.name}.{f.name}", node.name, [""])
                for f in node.body if isinstance(f, _DEFS)
            )
        elif isinstance(node, _DEFS):
            todo.append((node, node.name, None, [""]))
    while todo:
        fn, name, cls, outer = todo.pop()
        scopes = [name] + outer
        defs[name] = (fn, cls, scopes)
        todo.extend(
            (n, f"{name}.{n.name}", None, scopes)
            for n in _own_nodes(fn) if isinstance(n, _DEFS)
        )
    classes = {cls for _, cls, _ in defs.values() if cls is not None}
    graph = {}
    for name, (fn, cls, scopes) in defs.items():
        graph[name] = set()
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                found = (f"{s}.{f.id}" if s else f.id for s in scopes)
                callee = next((q for q in found if q in defs), None)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                owner = cls if f.value.id in ("self", "cls") else f.value.id
                callee = f"{owner}.{f.attr}" if owner in classes else None
            else:
                callee = None
            if callee in defs:
                graph[name].add(callee)
    return graph


def functions_on_call_cycles(source):
    """The sorted names of the functions that can reach themselves through
    calls."""
    graph = _call_graph(source)

    def reaches_itself(start):
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        return False

    return sorted(name for name in graph if reaches_itself(name))


def test_no_formula_function_calls_itself():
    assert functions_on_call_cycles(FORMULAS.read_text(encoding="utf-8")) == []


def test_no_parser_function_lies_on_a_call_cycle():
    assert functions_on_call_cycles(PARSER.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SEARCH_AND_FOREST, ids=lambda p: p.name)
def test_no_search_or_forest_function_lies_on_a_call_cycle(path):
    assert functions_on_call_cycles(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_direct_and_nested_recursion():
    direct = "def f(x):\n    return f(x)\n"
    nested = "def f(x):\n    def g(y):\n        return f(y)\n    return g(x)\n"
    inner = "def f(x):\n    def walk(y):\n        walk(y)\n    walk(x)\n"
    method = "class A:\n    def f(self):\n        return self.f()\n"
    helper = "def f(x):\n    def walk(y):\n        return y\n    return walk(x)\n"
    assert functions_on_call_cycles(direct) == ["f"]
    assert functions_on_call_cycles(method) == ["A.f"]
    assert functions_on_call_cycles(nested) == ["f", "f.g"]
    assert functions_on_call_cycles(inner) == ["f.walk"]
    assert functions_on_call_cycles(helper) == []


def test_the_check_sees_mutual_recursion():
    chain = (
        "def solve(x):\n    return apply(x)\n"
        "def apply(x):\n    return point(x) or solve(x)\n"
        "def point(x):\n    return solve(x)\n"
        "def leaf(x):\n    return solve(x)\n"
    )
    via_class = (
        "class A:\n    @classmethod\n    def make(cls):\n        return build()\n"
        "def build():\n    return A.make()\n"
    )
    assert functions_on_call_cycles(chain) == ["apply", "point", "solve"]
    assert functions_on_call_cycles(via_class) == ["A.make", "build"]
