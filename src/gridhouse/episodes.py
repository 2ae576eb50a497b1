"""Episode execution: the one step loop, trajectories, the expert runner,
JSONL logs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .planner import ExpertController, ExpertStep, Irrecoverable
from .skills import Skill, SubGoal
from .world import InteractionMode, PrimitiveAction, WorldState, state_hash, step


@dataclass
class StepRecord:
    t: int
    subgoal: SubGoal
    action: PrimitiveAction
    point: tuple | None
    success: bool
    reason: str | None
    target: int | None
    after: WorldState                  # the state the step led to
    expert: ExpertStep | None = None   # the controller's label for the step

    @property
    def state_hash(self) -> str:
        return state_hash(self.after)


@dataclass
class Trajectory:
    steps: list = field(default_factory=list)
    final_state: WorldState | None = None
    answer: str | None = None
    terminated: str = "budget"      # "success" | "end" | "budget" | "irrecoverable"

    @property
    def subgoal_sequence(self) -> list:
        """The steps' sub-goals with consecutive repeats removed."""
        out = []
        for rec in self.steps:
            if not out or out[-1] != rec.subgoal:
                out.append(rec.subgoal)
        return out


def rollout(state: WorldState, decide, mode: InteractionMode, max_steps: int,
            controller: ExpertController | None = None,
            succeeded=None) -> Trajectory:
    """Step the world from `state` until the episode ends; every episode
    of the package runs here.

    Each step takes the controller's label `ex` (None without a
    controller) and calls `decide(traj, state, ex)`, which returns
    `(subgoal, action, point, ends)`.  Nothing here renders: a `decide`
    that feeds a model reads `state.observation`, the expert reads it to
    aim an interaction, and `step` reads it for an interactive action; all
    three share the state's memo, as the expert, `step` and the milestones
    share `state.geometry`.  A model-fed `decide` keeps one
    `agents.ForwardMemo` per episode, which computes the high level's
    image-block gate projections and the sub-policy forward once per
    equal observation (`Observation.key`; a step that leaves the state as
    it was hands its successor the same one) and the context-block gate
    projections once per last action and previous sub-goal.  The reuse is
    exact because parameters and the task encoding are fixed while
    `rollout` runs; the projected gates sum in another order than the
    teacher-forced unroll, so they differ from it in their low bits.  The
    episode ends as
    - "success" after a step whose successor satisfies `succeeded(state)`;
      the controller does not observe that step, so a wrong interaction
      that completes the goal needs no recovery
    - "irrecoverable" when `expert_action` or `observe` raises
      `Irrecoverable`; `final_state` is then the current state, or the
      successor of the step `observe` rejected
    - "end" after a step for which `decide` set `ends`
    - "budget" after `max_steps` steps
    """
    traj = Trajectory()
    for t in range(max_steps):
        ex = None
        if controller is not None:
            try:
                ex = controller.expert_action(state)
            except Irrecoverable:
                traj.terminated = "irrecoverable"
                break
        subgoal, action, point, ends = decide(traj, state, ex)
        new_state, res = step(state, action, point, mode)
        traj.steps.append(StepRecord(
            t=t, subgoal=subgoal, action=action, point=point,
            success=res.success, reason=res.reason.value if res.reason else None,
            target=res.target, after=new_state, expert=ex))
        state, before = new_state, state
        if succeeded is not None and succeeded(state):
            traj.terminated = "success"
            break
        if controller is not None:
            try:
                controller.observe(before, action, res, state, ex)
            except Irrecoverable:
                traj.terminated = "irrecoverable"
                break
        if ends:
            traj.terminated = "end"
            break
    traj.final_state = state
    return traj


def run_expert_episode(initial_state: WorldState, remaining_fn,
                       mode: InteractionMode = InteractionMode.HARD,
                       max_steps: int = 100, expected_answer=None,
                       intervene=None) -> Trajectory:
    """Execute the privileged expert until End or the step budget.

    `intervene(t, state, expert_step)` may return a replacement
    (action, point) to inject a wrong action (used by recovery tests); the
    controller then monitors and recovers exactly as during training.
    """
    def decide(traj, state, ex):
        action, point = ex.action, ex.point
        if intervene is not None:
            swap = intervene(len(traj.steps), state, ex)
            if swap is not None:
                action, point = swap
        own = action is ex.action
        if own and ex.subgoal.skill is Skill.Answer:
            traj.answer = expected_answer
        ends = own and ex.subgoal.skill is Skill.End and action is PrimitiveAction.Done
        return ex.subgoal, action, point, ends

    return rollout(initial_state, decide, mode, max_steps,
                   ExpertController(remaining_fn, mode))


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
