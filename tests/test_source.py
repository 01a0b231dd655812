"""Source rules: no `assert` in the library, each check runs by one route,
and validation happens at the boundary.

`python -O` strips `assert` statements, so invariants are typed
exceptions.  A second route that recomputes an answer and raises
`AssertionError` on a mismatch belongs in the tests, not in the library;
the one `raise AssertionError` left guards a branch that the proof in
`poset_from_relations` shows unreachable.

Values built from data that is valid by construction skip validation
through `objects._trusted`; text and public-constructor input never
does, so no parser, validator or CLI code calls it.
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


class _TrustedCalls(ast.NodeVisitor):
    """Collects (module, enclosing class and function) for every call of `_trusted`."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "_trusted":
            self.found.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def _trusted_calls() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        finder = _TrustedCalls(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += finder.found
    return found


BOUNDARY = ("parse_", "validate_", "poset_from_relations", "standardize")


def test_the_boundary_never_skips_validation():
    calls = _trusted_calls()
    assert calls
    for module, scope in calls:
        assert module != "cli.py", scope
        assert not any(part.startswith(BOUNDARY) for part in scope.split(".")), (module, scope)


def test_trusted_construction_sites():
    # every site that skips validation is listed here on purpose
    assert {scope for _, scope in _trusted_calls()} == {
        "enumerate_ascent_sequences",
        "Permutation.inverse", "Permutation.reverse", "Permutation.complement",
        "Permutation.compose", "enumerate_permutations", "ChordInvolution.mirror",
        "enumerate_fixed_point_free_involutions", "enumerate_fixed_point_free_involutions.pair",
        "_relation_of_int_pairs", "poset_to_relations",
        "perm_to_sequence", "sequence_to_perm_by_insertion", "sequence_to_perm",
        "to_modified", "from_modified", "sequence_to_poset", "poset_to_sequence",
        "poset_to_perm", "dual", "involution_to_poset", "poset_to_involution",
        "swap_endpoints", "direct_sum", "_poset_sum",
    }
