"""Every name the benchmark in perfbench/ reaches in the package resolves.

perfbench/ is read, never imported or changed: a refactor that renames or
unbinds a name the benchmark uses fails here, not in benchmark operations.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import gridhouse.world as world

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _trees():
    paths = sorted(BENCH.glob("*.py")) + sorted((BENCH / "tests").glob("*.py"))
    return [(p.relative_to(ROOT), ast.parse(p.read_text())) for p in paths]


def _resolve(dotted: str):
    """Import the longest module prefix of `dotted`, then walk attributes."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + names[::-1])
    return None


def _bench_names():
    """(file, dotted name) of every `from gridhouse... import x`, every
    `import gridhouse...` and every `gridhouse.<...>` attribute chain."""
    out = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gridhouse"):
                out.update((path, f"{node.module}.{a.name}") for a in node.names)
            elif isinstance(node, ast.Import):
                out.update((path, a.name) for a in node.names
                           if a.name.startswith("gridhouse"))
            elif isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name and name.startswith("gridhouse."):
                    out.add((path, name))
    return sorted(out)


def _traced():
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_every_name_the_benchmark_uses_resolves():
    names = _bench_names()
    assert any(n == "gridhouse.harness.act_episode" for _, n in names)
    bad = []
    for path, name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as e:
            bad.append(f"{path}: {name} ({type(e).__name__}: {e})")
    assert not bad, "\n".join(bad)


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for mod, path in traced:
        assert callable(_resolve(f"gridhouse.{mod}.{path}")), (mod, path)


def test_the_tracer_finds_world_step_through_its_aliases():
    # perfbench/tests/test_spans.py checks the tracer through these aliases
    for alias in ("gridhouse.trainer.env_step", "gridhouse.harness.env_step",
                  "gridhouse.episodes.step"):
        assert _resolve(alias) is world.step, alias
