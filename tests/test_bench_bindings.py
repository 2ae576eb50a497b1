"""Every name the benchmark in perfbench/ reaches in the package resolves.

perfbench/ is read, never imported or changed: a refactor that renames or
unbinds a name the benchmark uses fails here, not in benchmark operations.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import numpy as np

import gridhouse.harness as harness
import gridhouse.world as world
from gridhouse.classes import desk_registry
from gridhouse.episodes import Trajectory
from gridhouse.scenes import builtin_templates
from gridhouse.tasks import DatasetSplit, build_vocab, generate_task

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


def test_the_tracer_sees_every_memo_build(monkeypatch):
    # the tracer rebinds `world.build_geometry` and `world.render` at module
    # level, so a state's memos must build through the module names
    calls = {}
    for name in ("build_geometry", "render", "_propagation_effects"):
        real = getattr(world, name)

        def counted(state, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(state)

        monkeypatch.setattr(world, name, counted)
    state = world.randomize_scene(builtin_templates()[0], 3)
    for _ in range(2):
        state.geometry, state.observation, state.effects
        assert calls == {"build_geometry": 1, "render": 1, "_propagation_effects": 1}


def test_evaluate_rolls_every_episode_through_the_harness_global(monkeypatch):
    # perfbench/workloads.py times eval by rebinding `harness.act_episode`
    # (`_watch_episodes`), so `evaluate` must look it up there per episode
    templates = builtin_templates()
    tasks = [generate_task("EXIN", "pickup", 0, templates[0], 9, np.random.default_rng(1)),
             generate_task("IQA", "existence", 0, templates[2], 77,
                           np.random.default_rng(2))]
    rolled = []

    def act(agent, task, state, *args, **kwargs):
        rolled.append(task)
        return Trajectory(final_state=state)

    monkeypatch.setattr(harness, "act_episode", act)
    harness.evaluate(None, DatasetSplit("probe", tasks, []),
                     {t["template_id"]: t for t in templates},
                     build_vocab(desk_registry()), greedy=True)
    assert rolled == tasks
