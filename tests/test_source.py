"""Source rules: no `assert` in the library, and each check runs by one route.

`python -O` strips `assert` statements, so invariants are typed
exceptions.  A second route that recomputes an answer and raises
`AssertionError` on a mismatch belongs in the tests, not in the library;
the one `raise AssertionError` left guards a branch that the proof in
`poset_from_relations` shows unreachable.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fishburn"


class _Finder(ast.NodeVisitor):
    """Collects (kind, module, enclosing function) for asserts and raised AssertionErrors."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assert(self, node):
        self.found.append(("assert", self.module, ".".join(self.scope)))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "AssertionError":
            self.found.append(("raise AssertionError", self.module, ".".join(self.scope)))
        self.generic_visit(node)


def test_no_assert_and_one_unreachable_guard():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        finder = _Finder(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += finder.found
    assert found == [("raise AssertionError", "objects.py", "poset_from_relations")]
