"""No function, method or class in the package lives without a caller."""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridhouse"

# defined in src/gridhouse but referenced from nowhere in src/ or
# perfbench/: each stays for the reason given
ALLOWED = {
    "shortest_path": "test entry point: BFS optimality against an independent oracle",
    "decompose": "test entry point: expert decompositions as plain sub-goal lists",
    "instantiate_template": "test entry point: one task per instruction surface form",
    "joint_space_size": "test entry point: size of the joint skill-object space",
    "template_by_id": "test entry point: builtin scenes by name",
    "full_registry": "test entry point: the full 110-class registry",
    "write_trajectory": "trajectory logs for `gridhouse replay`; eval is to write "
                        "them (ROADMAP direction 4)",
}


def _unreferenced():
    """Names of non-dunder functions, methods and classes defined in the
    package that no Name or Attribute in src/ or perfbench/ mentions."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    defined, used = set(), set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (path.parent == PACKAGE
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.add(node.name)
    return defined - used


def test_every_definition_has_a_caller():
    unreferenced = _unreferenced()
    assert unreferenced - set(ALLOWED) == set(), "dead code; delete it or allow it with a reason"
    # an allowed name that gained a caller no longer needs its entry
    assert set(ALLOWED) - unreferenced == set()
