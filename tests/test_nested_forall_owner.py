"""Static check, read with `ast`: `tableau.select_rule` is the one place that
picks a gamma's nested universal, and `SearchLimits.derive` the one place
that sizes forests from theta's. Nothing else in the package reads
`is_nested_forall`; the forest layer takes select_rule's pivot instead.

The same scan keeps two more owners: `extraction.audit` is the one caller
of `verify_tableau`, the one check of a SAT tableau that `foml verify` and
`foml difftest` share, and `cli._report` and `cli._Main.main` are the only
code that prints (`echo`)."""

import ast
from pathlib import Path

import foml

PACKAGE = Path(foml.__file__).parent
NAME = "is_nested_forall"
OWNERS = ["tableau.py:SearchLimits.derive", "tableau.py:select_rule"]


def readers(module, source, name=NAME):
    """`module:qualname` of each function in source that reads name, as a
    bare name or an attribute (`<module>` for code outside any function)."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope = []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

        def visit_Name(self, node):
            if node.id == name and isinstance(node.ctx, ast.Load):
                self.report()

        def visit_Attribute(self, node):
            if node.attr == name:
                self.report()
            self.generic_visit(node)

        def report(self):
            found.append(f"{module}:{'.'.join(self.scope) or '<module>'}")

    Visitor().visit(ast.parse(source))
    return found


def package_readers(plant=None, name=NAME):
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if plant and path.name == plant[0]:
            source += plant[1]
        out.extend(readers(path.name, source, name))
    return sorted(set(out))


def test_only_select_rule_and_derive_read_is_nested_forall():
    assert package_readers() == OWNERS


def test_the_check_sees_a_scan_planted_in_the_forest_layer():
    scan = (
        "\n\ndef find(gamma):\n"
        "    return [g for g in gamma if isinstance(g, Forall) and "
        f"{NAME}(g)]\n"
    )
    assert package_readers(("forest.py", scan)) == ["forest.py:find"] + OWNERS
    method = f"\n\nclass A:\n    def f(self, g):\n        return formulas.{NAME}(g)\n"
    assert readers("m.py", method) == ["m.py:A.f"]
    assert readers("m.py", f"KEEP = {NAME}\n") == ["m.py:<module>"]


def test_only_audit_reads_verify_tableau():
    owners = ["extraction.py:audit"]
    assert package_readers(name="verify_tableau") == owners
    recheck = "\n\ndef recheck(t, theta):\n    return verify_tableau(t, theta)\n"
    planted = package_readers(("cli.py", recheck), "verify_tableau")
    assert planted == ["cli.py:recheck"] + owners


def test_only_report_and_main_print():
    owners = ["cli.py:_Main.main", "cli.py:_report"]
    assert package_readers(name="echo") == owners
    say = "\n\ndef say(text):\n    click.echo(text)\n"
    assert package_readers(("testgen.py", say), "echo") == owners + ["testgen.py:say"]
