"""Episode execution: trajectories, the expert runner, JSONL logs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .planner import ExpertController, Irrecoverable
from .skills import Skill, SubGoal
from .world import (InteractionMode, PrimitiveAction, WorldState,
                    cached_geometry, cached_render, state_hash, step)


@dataclass
class StepRecord:
    t: int
    subgoal: SubGoal
    action: PrimitiveAction
    point: tuple | None
    success: bool
    reason: str | None
    target: int | None
    state_hash: str


@dataclass
class Trajectory:
    steps: list = field(default_factory=list)
    final_state: WorldState | None = None
    answer: str | None = None
    terminated: str = "budget"      # "end" | "budget" | "irrecoverable"
    subgoal_sequence: list = field(default_factory=list)

    def record_subgoal(self, sub: SubGoal):
        if not self.subgoal_sequence or self.subgoal_sequence[-1] != sub:
            self.subgoal_sequence.append(sub)


def run_expert_episode(initial_state: WorldState, remaining_fn,
                       mode: InteractionMode = InteractionMode.HARD,
                       max_steps: int = 100, expected_answer=None,
                       intervene=None, record_hashes=True) -> Trajectory:
    """Execute the privileged expert until End or the step budget.

    `intervene(t, state, geom, obs, expert_step)` may return a replacement
    (action, point) to inject a wrong action (used by recovery tests); the
    controller then monitors and recovers exactly as during training.
    """
    controller = ExpertController(initial_state, remaining_fn, mode)
    state = initial_state
    traj = Trajectory()
    for t in range(max_steps):
        geom = cached_geometry(state)
        obs = cached_render(state)
        try:
            ex = controller.expert_action(state, geom, obs)
        except Irrecoverable:
            traj.terminated = "irrecoverable"
            break
        action, point = ex.action, ex.point
        if intervene is not None:
            swap = intervene(t, state, geom, obs, ex)
            if swap is not None:
                action, point = swap
        if ex.subgoal.skill is Skill.Answer and action is ex.action:
            traj.answer = expected_answer
        traj.record_subgoal(ex.subgoal)
        new_state, res = step(state, action, point, mode, geom, obs)
        traj.steps.append(StepRecord(
            t=t, subgoal=ex.subgoal, action=action, point=point,
            success=res.success, reason=res.reason.value if res.reason else None,
            target=res.target,
            state_hash=state_hash(new_state) if record_hashes else ""))
        try:
            controller.observe(state, action, res, new_state, ex)
        except Irrecoverable:
            traj.final_state = new_state
            traj.terminated = "irrecoverable"
            return traj
        state = new_state
        if ex.subgoal.skill is Skill.End and action is PrimitiveAction.Done \
                and action is ex.action:
            traj.terminated = "end"
            break
    traj.final_state = state
    return traj


def expert_subgoal_trace(traj: Trajectory, registry=None) -> list:
    """Consecutive-deduped sub-goal sequence as (skill name, class name)."""
    out = []
    for sub in traj.subgoal_sequence:
        name = None
        if sub.object_class is not None and registry is not None:
            name = registry[sub.object_class].name
        out.append((sub.skill.name, name if registry else sub.object_class))
    return out


# --------------------------------------------------------------------------
# trajectory logs (JSON lines)


def write_trajectory(traj: Trajectory, path, registry=None):
    with open(path, "w") as f:
        for rec in traj.steps:
            sub = rec.subgoal
            row = {
                "t": rec.t,
                "skill": sub.skill.name,
                "object": (registry[sub.object_class].name
                           if registry is not None and sub.object_class is not None
                           else sub.object_class),
                "action": rec.action.name,
                "point": list(rec.point) if rec.point else None,
                "success": rec.success,
                "reason": rec.reason,
                "target": rec.target,
                "state_hash": rec.state_hash,
            }
            f.write(json.dumps(row) + "\n")
        tail = {"terminated": traj.terminated, "answer": traj.answer}
        f.write(json.dumps(tail) + "\n")


def read_trajectory(path) -> tuple[list[dict], dict]:
    rows = []
    with open(path) as f:
        for line in f:
            rows.append(json.loads(line))
    meta = rows.pop() if rows and "terminated" in rows[-1] else {}
    return rows, meta
