"""Source rules: no `assert` in the library, each check runs by one route,
every raise names a package error, validation happens at the boundary,
no import hides inside a function, and the library holds no definition
that it neither exports nor reads.

`python -O` strips `assert` statements, so invariants are typed
exceptions.  A second route that recomputes an answer and raises
`AssertionError` on a mismatch belongs in the tests, not in the library;
the one `raise AssertionError` left guards a branch that the proof in
`poset_from_relations` shows unreachable.  Bad input and bad arguments
raise a class of `errors.py`, so a caller catches them all as
`FishburnError`; the few other raises are listed in NON_PACKAGE_RAISES.

A value is built by one of three routes.  The public constructor types
each field (`_normalize`) and then runs the class's structure check
(`__post_init__`).  `objects._checked` runs the structure check alone, for
a parser that has just built the fields as exact ints itself; its call
sites are listed.  `objects._trusted` runs neither, for data that is
valid by construction; text and public-constructor input never takes it,
so no parser, validator or CLI code calls it.

References that only the tests compare against live in `tests/reference.py`.
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


class _Raises(ast.NodeVisitor):
    """Collects (module, enclosing class and function, raised name) for every `raise` of a value."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Raise(self, node):
        if node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            self.found.append((self.module, ".".join(self.scope), ast.unparse(exc)))
        self.generic_visit(node)


# the raises that name no class of errors.py: outside the domain's errors on purpose
NON_PACKAGE_RAISES = {
    ("objects.py", "_Value.__setattr__", "AttributeError"),
    ("objects.py", "_Value.__delattr__", "AttributeError"),
    ("objects.py", "poset_from_relations", "AssertionError"),
    ("statistics.py", "components", "TypeError"),
    ("statistics.py", "direct_sum", "TypeError"),
    ("cli.py", "non_negative_int", "argparse.ArgumentTypeError"),
    ("cli.py", "pattern_argument", "argparse.ArgumentTypeError"),
    ("verify.py", "_check", "_Counterexample"),
}


def test_every_raise_names_a_package_error():
    # argument checks and field checks alike raise a FishburnError (so still a ValueError)
    tree = ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8"))
    errors = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        finder = _Raises(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += finder.found
    assert errors and found
    assert {site for site in found if site[2] not in errors} == NON_PACKAGE_RAISES


def test_no_function_level_imports():
    # every module states its dependencies at the top, so no cycle hides in a function
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((path.name, scope.name, node.lineno) for node in ast.walk(scope)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(found) == []


class _Calls(ast.NodeVisitor):
    """Collects (module, enclosing class and function) for every call of the function `name`;
    a call in a module-level table, such as `cli.CODECS`, is in the scope of the table's name."""

    def __init__(self, module: str, name: str):
        self.module, self.name, self.scope, self.found = module, name, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node):
        if self.scope or not isinstance(node.targets[0], ast.Name):
            return self.generic_visit(node)
        self.scope.append(node.targets[0].id)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == self.name:
            self.found.append((self.module, ".".join(self.scope)))
        self.generic_visit(node)


def _calls(name: str) -> list[tuple[str, str]]:
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        finder = _Calls(path.name, name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found += finder.found
    return found


BOUNDARY = ("parse_", "validate_", "poset_from_relations", "standardize")


def test_the_boundary_never_skips_validation():
    calls = _calls("_trusted")
    assert calls
    for module, scope in calls:
        assert module != "cli.py", scope
        assert not any(part.startswith(BOUNDARY) for part in scope.split(".")), (module, scope)


def test_trusted_construction_sites():
    # every site that skips validation is listed here on purpose
    assert {scope for _, scope in _calls("_trusted")} == {
        "enumerate_ascent_sequences",
        "Permutation.inverse", "Permutation.reverse", "Permutation.complement",
        "Permutation.compose", "enumerate_permutations",
        "enumerate_fixed_point_free_involutions",
        "_relation_of_int_pairs", "poset_to_relations",
        "perm_to_sequence", "sequence_to_perm_by_insertion", "_perm_of_modified",
        "to_modified", "from_modified", "sequence_to_poset", "poset_to_sequence",
        "dual", "involution_to_poset", "poset_to_involution",
        "remove_neighbour_nestings", "direct_sum", "_poset_sum", "enumerate_self_modified",
    }


def test_checked_construction_sites():
    # every site that skips the typing has just built its fields as exact ints itself
    assert sorted(_calls("_checked")) == [
        ("cli.py", "CODECS"), ("cli.py", "CODECS"),
        ("objects.py", "_counted_poset"), ("objects.py", "parse_involution"),
        ("objects.py", "parse_permutation"),
    ]


def _unread_definitions() -> list[str]:
    """Module-level functions and classes that the package neither exports nor reads.

    A definition counts as read when its name appears as an `ast.Name` or
    `ast.Attribute` anywhere in the package outside its own body, as the
    `cmd_*` handlers do in `set_defaults`.
    """
    exported = {alias.name
                for node in ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, reads = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            is_definition = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_definition:
                defined.append(top.name)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and not (is_definition and name == top.name):
                    reads.append(name)
    return sorted(set(defined) - exported - set(reads))


def test_every_definition_is_exported_or_read():
    assert _unread_definitions() == []
