"""Correctness checks on workload outputs.

Each check returns a list of problems; an empty list means it holds.  The
checks compare outputs between runs of the same inputs rather than against
constants, because legitimate fixes change fixed-seed results.
"""

from __future__ import annotations

import math

TERMINATIONS = ("end", "budget", "irrecoverable")


def plan_rates(rates: dict) -> list[str]:
    """Expert replay must succeed on every episode of every split."""
    return [f"plan_check {name} = {rate!r}, expected 100.0"
            for name, rate in rates.items() if rate != 100.0]


def split_sizes(splits, counts: dict) -> list[str]:
    """Every split holds exactly the requested episodes per family."""
    out = []
    got_names = [s.name for s in splits]
    if sorted(got_names) != sorted(counts):
        out.append(f"splits {got_names} != requested {sorted(counts)}")
    for s in splits:
        want = counts.get(s.name, {})
        got: dict[str, int] = {}
        for e in s.episodes:
            got[e.family] = got.get(e.family, 0) + 1
        for fam in sorted(set(want) | set(got)):
            if got.get(fam, 0) != want.get(fam, 0):
                out.append(f"{s.name}/{fam}: {got.get(fam, 0)} episodes, "
                           f"requested {want.get(fam, 0)}")
    return out


def stage_budgets(steps_done: dict, budgets: dict) -> list[str]:
    """Every stage reached its step budget."""
    return [f"stage {stage}: {steps_done.get(stage, 0)} steps < budget {budget}"
            for stage, budget in budgets.items()
            if steps_done.get(stage, 0) < budget]


def pretrain_done(progress, budgets: dict) -> list[str]:
    """Every stage reached its budget and the schedule ran to the end."""
    out = [] if progress.stage == "done" else \
        [f"pretrain stopped in stage {progress.stage!r}"]
    return out + stage_budgets(progress.steps_done, budgets)


def params_trained(before: list, after: list) -> list[str]:
    """Parameters are finite and at least one of them moved."""
    import numpy as np

    out = []
    if len(before) != len(after):
        return [f"{len(after)} parameters after training, {len(before)} before"]
    if not all(np.isfinite(a).all() for a in after):
        out.append("non-finite parameter after training")
    if all(np.array_equal(b, a) for b, a in zip(before, after)):
        out.append("no parameter changed during training")
    return out


def finite(name: str, value: float) -> list[str]:
    return [] if math.isfinite(value) else [f"{name} is {value!r}"]


def eval_episodes(records) -> list[str]:
    """records: (terminated, steps, max_steps) per evaluated episode."""
    out = []
    for i, (terminated, steps, max_steps) in enumerate(records):
        if terminated not in TERMINATIONS:
            out.append(f"eval episode {i} ended as {terminated!r}")
        if steps > max_steps:
            out.append(f"eval episode {i}: {steps} steps > max_steps {max_steps}")
    if not records:
        out.append("no eval episode ran")
    return out


def same_outputs(fingerprints: dict) -> list[str]:
    """fingerprints: key -> list of outputs recorded for identical inputs
    (repeats, and the traced against the untraced pass)."""
    return [f"{key}: outputs differ between runs of the same inputs: {vals}"
            for key, vals in fingerprints.items()
            if any(v != vals[0] for v in vals[1:])]
