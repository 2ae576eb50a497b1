"""No function, method or class in the package lives without a caller,
no attribute it stores goes unread, no parameter goes unread and no
parameter default is the only value its function ever sees."""

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
    "subgoal_accuracy": "rung 1 of the learning ladder; `learn-check` is to report "
                        "it (ROADMAP direction 1)",
}


def _sources():
    """(path, syntax tree) of every module in src/gridhouse and perfbench/."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, ast.parse(path.read_text())) for path in paths]


def _unreferenced():
    """Names of non-dunder functions, methods and classes defined in the
    package that nothing in src/ or perfbench/ reads.

    Only a loaded Name counts, never a stored one such as a dataclass
    field.  A method counts as read only through an attribute of its name,
    whatever its base, so a local variable of the same name does not keep
    it; a module-level definition counts through a Name, or through an
    attribute only on a module or an imported name (`planner.f`), since
    `obj.f` reads a field or a method."""
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
    dead = (functions - loaded - module_attributes) | (methods - attributes)
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


def _empty_container(node):
    """Whether an expression is `{}`, `[]`, `dict()` or `set()`."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "set") and not node.args and not node.keywords)


def _module_tables():
    """`module.name` for every module-level name in src/gridhouse bound to
    an empty container: a hand-written memo table, where `functools.cache`
    on the function that fills it would do."""
    out = set()
    for path, tree in _sources():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name))
    return out


def test_no_module_level_table():
    assert _module_tables() == set(), \
        "a module-level table; memoize the function that fills it with functools.cache"


# parameters with a default that no call in src/ or perfbench/ sets: each
# stays for the reason given
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the console entry point passes none; tests pass their own",
    "tensor.Tensor.backward(grad)": "the seed gradient of a non-scalar output",
    "trainer.pretrain(opt)": "resume a run mid-stage (ROADMAP direction 7)",
    "trainer.pretrain(rng)": "resume a run mid-stage (ROADMAP direction 7)",
    "trainer.pretrain(session)": "resume a run mid-stage (ROADMAP direction 7)",
    "episodes.run_expert_episode(intervene)": "injects wrong actions for the "
                                              "recovery tests",
    "episodes.write_trajectory(registry)": "object names in the trajectory log "
                                           "(ROADMAP direction 4)",
}


def _defaulted(fn, is_method):
    """(position or None, name) of each parameter of `fn` that has a
    default; positions count from the first argument a call passes, so a
    method's `self` is skipped."""
    a = fn.args
    positional = a.posonlyargs + a.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(a.defaults)
    out = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, k.arg) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _unset_defaults():
    """`module.[Class.]function(parameter)` for every parameter with a
    default that no call in src/ or perfbench/ passes, by position or by
    keyword.

    Calls are matched by name: a Name call, or an attribute call on a
    module or an imported name, reaches a module-level function or a
    class (whose `__init__` it runs); any other attribute call reaches a
    method.  A call unpacking `*args` or `**kwargs` passes every
    parameter of its kind."""
    calls = {}   # (kind, name) -> [(positional count, keywords)]
    sources = _sources()
    for _path, tree in sources:
        imported, renamed = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
                    if isinstance(node, ast.ImportFrom) and alias.asname:
                        renamed[alias.asname] = alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                key = ("function", renamed.get(f.id, f.id))
            elif isinstance(f, ast.Attribute):
                on_module = isinstance(f.value, ast.Name) and f.value.id in imported
                key = ("function" if on_module else "method", f.attr)
            else:
                continue
            n = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                 else len(node.args))
            calls.setdefault(key, []).append((n, {k.arg for k in node.keywords}))
    unset = set()
    for path, tree in sources:
        if path.parent != PACKAGE:
            continue
        owner = {d: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for d in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(node)
            if cls is None:
                key, qualname = ("function", node.name), node.name
            elif node.name == "__init__":
                key, qualname = ("function", cls), f"{cls}.__init__"
            else:
                key, qualname = ("method", node.name), f"{cls}.{node.name}"
            for i, name in _defaulted(node, cls is not None):
                if not any((i is not None and n > i) or name in kws or None in kws
                           for n, kws in calls.get(key, [])):
                    unset.add(f"{path.stem}.{qualname}({name})")
    return unset


def test_every_default_is_overridden_somewhere():
    unset = _unset_defaults()
    assert unset - set(ALLOWED_DEFAULTS) == set(), \
        "a parameter no caller sets; make it a constant or allow it with a reason"
    assert set(ALLOWED_DEFAULTS) - unset == set()


# parameters a function does not read because a caller's protocol fixes
# its signature: each stays for the reason given
ALLOWED_UNREAD = {
    "harness.act_episode.decide(ex)": "`episodes.rollout` calls every decide with "
                                     "the expert's label; the agent rolls out without one",
    "harness.run_skill_episode_policy.decide(ex)": "`episodes.rollout` calls every "
                                                   "decide with the expert's label; the "
                                                   "sub-policy rolls out without one",
    "cli.cmd_grad_check(args)": "`main` calls every command handler with the parsed "
                                "arguments; grad-check takes none",
}


def _unread_parameters():
    """`module.[outer.]function(parameter)` for every parameter of a
    function or method in the package that no Name in its body loads,
    nested functions included; a method's `self` or `cls` is skipped."""
    unread = set()

    def visit(node, path, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                if in_class and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                        for d in child.decorator_list):
                    params = params[1:]
                loaded = {n.id for stmt in child.body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.update(f"{path.stem}.{prefix}{child.name}({p.arg})"
                              for p in params if p.arg not in loaded)
                visit(child, path, f"{prefix}{child.name}.", False)
            else:
                visit(child, path, prefix, in_class)

    for path, tree in _sources():
        if path.parent == PACKAGE:
            visit(tree, path, "", False)
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert unread - set(ALLOWED_UNREAD) == set(), \
        "a parameter its function never reads; delete it or allow it with a reason"
    assert set(ALLOWED_UNREAD) - unread == set()
