"""Span tracing installed from outside the program.

`Tracer.install` replaces each traced function or method with a wrapper in
every `gridhouse` module namespace (or class) that binds it, so calls made
through aliases such as `trainer.env_step` are seen too.  Wrappers pass
arguments, return values and exceptions through unchanged.  Spans are kept
in memory and reduced to statistics when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

# (module, attribute path) of every traced callable, in report order
TRACED = (
    ("world", "build_geometry"),
    ("world", "render"),
    ("world", "step"),
    ("world", "state_hash"),
    ("world", "randomize_scene"),
    ("planner", "ExpertController.expert_action"),
    ("planner", "ExpertController.observe"),
    ("tasks", "remaining_milestones"),
    ("tasks", "generate_task"),
    ("tasks", "verify_episode"),
    ("episodes", "run_expert_episode"),
    ("skills", "sample_skill_episode"),
    ("agents", "high_level_step"),
    ("agents", "sub_policy_step"),
    ("agents", "qa_answer"),
    ("agents", "GridEncoder.__call__"),
    ("trainer", "teacher_forcing_update"),
    ("trainer", "ppo_update"),
    ("trainer", "multitask_episode_loss"),
    ("trainer", "multi_task_sample"),
    ("trainer", "run_skill_episode"),
    ("trainer", "run_task_episode_sf"),
    ("tensor", "Tensor.backward"),
    ("nn", "Adam.step"),
    ("nn", "gru_sequence"),
)
ENCODER = "agents.GridEncoder.__call__"
BACKWARD = "tensor.Tensor.backward"
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# return value -> outcome counted at the boundary
OUTCOMES = {
    "episodes.run_expert_episode": lambda traj: "terminated." + traj.terminated,
    "tasks.verify_episode": lambda res: "verified" if res[0] else "rejected",
}
WARMUP_MAX = 200     # the encoder needs about this many calls to settle
WARMUP_SHARE = 0.2   # never drop more than this share of a function's calls


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    tag: int = 0         # batch-size bucket (encoder only)


def batch_bucket(n: int) -> int:
    """Largest power of two not above n (n >= 1)."""
    return 1 << (max(int(n), 1).bit_length() - 1)


def graph_size(root) -> int:
    """Autograd nodes reachable from `root`, walked the way `backward` does."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.errors: dict[tuple[str, str], int] = {}   # (name, exc type) -> n
        self.outcomes: dict[str, int] = {}             # see OUTCOMES
        self.graph_nodes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        is_encoder = name == ENCODER
        is_backward = name == BACKWARD
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = batch_bucket(len(args[1])) if is_encoder else 0
            if is_backward:
                self.graph_nodes += graph_size(args[0])
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1, tag))
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                key = (name, type(e).__name__)
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                span = spans[idx]
                span.start, span.end = start, clock()
                stack.pop()
            if outcome is not None:
                key = outcome(out)
                self.outcomes[key] = self.outcomes.get(key, 0) + 1
            return out

        return traced

    def install(self):
        """Wrap every entry of TRACED wherever a gridhouse module binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gridhouse" or k.startswith("gridhouse."))]
        for mod_name, path in TRACED:
            name = f"{mod_name}.{path}"
            owner = sys.modules[f"gridhouse.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self.wrap(cls.__dict__[attr], name))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s.name == name)


# --------------------------------------------------------------------------
# reductions


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            own[s.parent] -= max(0.0, min(s.end, p.end) - max(s.start, p.start))
    return own


def steady(samples):
    """Drop the warm-up calls at the head of a call-ordered sample list."""
    skip = min(WARMUP_MAX, int(len(samples) * WARMUP_SHARE))
    return samples[skip:]


def rank(p, n) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int):
    """Highest of PERCENTILES with at least ten samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if n - rank(p, n) >= 10:
            best = p
    return best


@dataclass
class FnStats:
    calls: int = 0
    self_s: float = 0.0
    steady_n: int = 0
    p50_us: float = 0.0
    tail_pct: float | None = None
    tail_us: float = 0.0


def summarize(durations):
    """FnStats timing fields from call-ordered durations in seconds."""
    st = FnStats(calls=len(durations))
    kept = sorted(steady(durations))
    st.steady_n = len(kept)
    if kept:
        st.p50_us = percentile(kept, 50.0) * 1e6
        st.tail_pct = tail_percentile(len(kept))
        if st.tail_pct is not None:
            st.tail_us = percentile(kept, st.tail_pct) * 1e6
    return st


def function_stats(spans) -> dict:
    """name -> FnStats; the encoder also gets one entry per batch bucket,
    keyed "<name>@<bucket>"."""
    own = self_times(spans)
    durs: dict[str, list] = {}
    selfs: dict[str, float] = {}
    for s, o in zip(spans, own):
        d = s.end - s.start
        durs.setdefault(s.name, []).append(d)
        selfs[s.name] = selfs.get(s.name, 0.0) + o
        if s.name == ENCODER:
            durs.setdefault(f"{s.name}@{s.tag}", []).append(d)
    out = {}
    for name, ds in durs.items():
        st = summarize(ds)
        st.self_s = selfs.get(name, 0.0)
        out[name] = st
    return out
