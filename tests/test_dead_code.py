"""No function, method or class in the package lives without a caller,
and no attribute it stores goes unread."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridhouse"

# defined in src/gridhouse but referenced from nowhere in src/ or
# perfbench/: each stays for the reason given
ALLOWED = {
    "write_trajectory": "trajectory logs for `gridhouse replay`; eval is to write "
                        "them (ROADMAP direction 4)",
}


def _sources():
    """(path, syntax tree) of every module in src/gridhouse and perfbench/."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, ast.parse(path.read_text())) for path in paths]


def _unreferenced():
    """Names of non-dunder functions, methods and classes defined in the
    package that nothing in src/ or perfbench/ reads.

    Only a loaded Name counts, never a stored one such as a dataclass
    field.  An attribute counts for a method of that name, whatever its
    base; for a module-level definition it counts only on a module or an
    imported name (`planner.f`), since `obj.f` reads a field or a method."""
    functions, methods = set(), set()
    loaded, attributes, module_attributes = set(), set(), set()
    for path, tree in _sources():
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    module_attributes.add(node.attr)
        if path.parent != PACKAGE:
            continue
        in_class = {d for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for d in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                (methods if node in in_class else functions).add(node.name)
    dead = (functions - loaded - module_attributes) | (methods - loaded - attributes)
    return {n for n in dead if not (n.startswith("__") and n.endswith("__"))}


def test_every_definition_has_a_caller():
    unreferenced = _unreferenced()
    assert unreferenced - set(ALLOWED) == set(), "dead code; delete it or allow it with a reason"
    # an allowed name that gained a caller no longer needs its entry
    assert set(ALLOWED) - unreferenced == set()


def _unread_attributes():
    """Names the package assigns as `self.<name>` that no attribute read
    in src/ or perfbench/ loads, whatever its base."""
    stored, read = set(), set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (path.parent == PACKAGE and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                stored.add(node.attr)
    return stored - read


def test_every_stored_attribute_is_read():
    assert _unread_attributes() == set(), "write-only attribute; delete it"
