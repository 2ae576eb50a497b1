"""Full-state expert: BFS navigation, per-sub-goal scripts, recovery.

The expert reads WorldState directly (the learned agent never does).  It
serves per-step labels (a*, p*) for imitation, and the ExpertController
additionally monitors executed interactions so a wrong one can be undone
by inserting a reversing sub-goal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import world as W
from .skills import SKILL_PRIMITIVE, Skill, SubGoal, skill_success, state_change
from .world import (AgentPose, InteractionMode, Openness, PrimitiveAction,
                    WorldState, build_geometry, cached_geometry, cached_render,
                    cell_visible_from, instance_distance)


class Unreachable(RuntimeError):
    pass


class InfeasibleSubgoal(RuntimeError):
    pass


class Irrecoverable(RuntimeError):
    pass


# --------------------------------------------------------------------------
# navigation BFS over (cell, heading, pitch)


def _goal_test(state, geom, pose, cells):
    cfg = state.config
    ax, ay = pose.cell
    near = min(abs(cx - ax) + abs(cy - ay) for cx, cy in cells) if cells else 99
    if near > cfg.interaction_range + 1:
        return False
    if not any((cx - ax) ** 2 + (cy - ay) ** 2 <= cfg.interaction_range ** 2
               for cx, cy in cells):
        return False
    return any(cell_visible_from(geom, cfg, pose, c) for c in cells)


# BFS successors: every navigation action but Done, which does not move
_MOVES = tuple(a for a in W.NAV_ACTION_SPACE if a is not PrimitiveAction.Done)


def _node_of(state):
    """The agent's pose as a search node (cell, heading, pitch)."""
    a = state.agent
    return (a.cell, a.heading, a.pitch)


def _bfs(state, geom, cells):
    """Minimal primitive sequence to a pose seeing a target cell in range."""
    start = _node_of(state)

    def pose_of(node):
        return AgentPose(cell=node[0], heading=node[1], pitch=node[2])

    if _goal_test(state, geom, pose_of(start), cells):
        return []
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        node, path = queue.popleft()
        for action in _MOVES:
            nxt = W.nav_pose(state, node, action, geom)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            npath = path + [action]
            if _goal_test(state, geom, pose_of(nxt), cells):
                return npath
            queue.append((nxt, npath))
    raise Unreachable("no pose sees the target in range")


def shortest_path_to_instance(state: WorldState, instance_id,
                              geom=None) -> list[PrimitiveAction]:
    geom = geom or build_geometry(state)
    cells = geom.display_cells.get(instance_id)
    if not cells:
        raise Unreachable(f"instance {instance_id} is not displayed anywhere")
    return _bfs(state, geom, cells) + [PrimitiveAction.Done]


# --------------------------------------------------------------------------
# target selection and expert points


def _applicable(state, geom, skill, obj) -> bool:
    change = state_change(skill)
    if change is not None:
        attr, needed, _left = change
        return getattr(obj, attr) is needed
    cls = state.cls(obj)
    displayed = obj.instance_id in geom.display_cells
    if skill is Skill.GoTo:
        return displayed
    if skill is Skill.Pickup:
        return displayed and cls.pickupable
    if skill is Skill.Put:
        if not obj.is_receptacle or not displayed:
            return False
        held = state.agent.held
        if held is None or held == obj.instance_id:
            return False
        if held in W.ancestors(state, obj.instance_id):
            return False  # would nest the target inside the held object
        return len(state.contents_of(obj.instance_id)) < W.capacity(obj)
    if skill is Skill.Slice:
        held = state.held_object()
        return (displayed and cls.sliceable and not obj.sliced
                and held is not None and state.cls(held).slicer)
    return False


def select_target(state: WorldState, geom, subgoal: SubGoal):
    """Nearest applicable instance of the sub-goal's class."""
    cands = [o for o in state.instances_of(subgoal.object_class)
             if _applicable(state, geom, subgoal.skill, o)
             and o.instance_id in geom.display_cells]
    if not cands:
        raise InfeasibleSubgoal(subgoal.skill.name)
    return min(cands, key=lambda o: (instance_distance(state, geom, o.instance_id),
                                     o.instance_id)).instance_id


def expert_point(state: WorldState, obs, target_iid, mode: InteractionMode):
    """Ground-truth interaction point: the centroid of the target's visible
    cells, snapped into the cell (nearest the centroid) that actually
    resolves to the target in the given mode."""
    cells = obs.visible_instance_cells().get(target_iid)
    if not cells:
        return None
    cx = sum(c[0] + 0.5 for c in cells) / len(cells)
    cy = sum(c[1] + 0.5 for c in cells) / len(cells)
    geom = cached_geometry(state)
    order = sorted(cells, key=lambda c: (c[0] + 0.5 - cx) ** 2 + (c[1] + 0.5 - cy) ** 2)
    for cell in order:
        pt = (cell[0] + 0.5, cell[1] + 0.5)
        if W.resolve_target(state, obs, pt, mode, geom) == target_iid:
            return pt
    return (order[0][0] + 0.5, order[0][1] + 0.5)


def _script_step(state, geom, obs, subgoal, target_iid, mode, store):
    """Next primitive (+ point) advancing a GoTo or interaction sub-goal
    for a pinned target.

    `store` receives the full BFS action tail so callers can replay it
    without replanning while the trajectory stays on-script.
    """
    cells = geom.display_cells.get(target_iid)
    if not cells:
        raise InfeasibleSubgoal(f"target {target_iid} not displayed")
    if subgoal.skill is Skill.GoTo or not (
            _goal_test(state, geom, state.agent, cells)
            and instance_distance(state, geom, target_iid) <= state.config.interaction_range):
        path = _bfs(state, geom, cells)
        if path:
            store(path)
            return (path[0], None)
        if subgoal.skill is not Skill.GoTo:
            raise InfeasibleSubgoal("goal test and reachability disagree")
        return (PrimitiveAction.Done, None)
    target = state.obj(target_iid)
    if (subgoal.skill is Skill.Put and state.cls(target).enclosed
            and target.openness is not Openness.OPEN):
        return (PrimitiveAction.Open, expert_point(state, obs, target_iid, mode))
    return (SKILL_PRIMITIVE[subgoal.skill], expert_point(state, obs, target_iid, mode))


# --------------------------------------------------------------------------
# plans and recovery


@dataclass(frozen=True)
class WrongEffect:
    action: PrimitiveAction
    target: int
    prior_container: int | None = None
    held_before: int | None = None


REVERSAL = {
    PrimitiveAction.Open: Skill.Close,
    PrimitiveAction.Close: Skill.Open,
    PrimitiveAction.ToggleOn: Skill.ToggleOff,
    PrimitiveAction.ToggleOff: Skill.ToggleOn,
}


def _reversal_subgoal(effect: WrongEffect, state: WorldState, pending_classes):
    """(SubGoal, target instance) undoing a wrong interaction."""
    if effect.action is PrimitiveAction.Slice:
        raise Irrecoverable("sliced the wrong object")
    if effect.action is PrimitiveAction.Pickup:
        dest = _restitution_receptacle(state, effect, pending_classes)
        return SubGoal(Skill.Put, state.obj(dest).class_id), dest
    if effect.action is PrimitiveAction.Put:
        return SubGoal(Skill.Pickup, state.obj(effect.held_before).class_id), \
            effect.held_before
    skill = REVERSAL[effect.action]
    return SubGoal(skill, state.obj(effect.target).class_id), effect.target


def _restitution_receptacle(state, effect, pending_classes):
    """Where to put back a wrongly picked object: its previous container,
    else the nearest free receptacle whose class the remaining plan does
    not need (so restitution never eats capacity the task requires)."""
    prior = effect.prior_container
    if prior is not None and state.has(prior) and W.has_room(state, state.obj(prior)):
        return prior
    geom = cached_geometry(state)
    cands = [(o.class_id in pending_classes,
              instance_distance(state, geom, o.instance_id), o.instance_id)
             for o in W.free_fixtures(state)]
    if not cands:
        raise Irrecoverable("nowhere to return the wrongly picked object")
    return min(cands)[2]


# --------------------------------------------------------------------------
# controller


@dataclass(frozen=True)
class ExpertStep:
    subgoal: SubGoal
    action: PrimitiveAction
    point: tuple | None
    target: int | None


class ExpertController:
    """Serves per-step expert labels for a dynamic sub-goal stream and
    watches executed interactions, inserting reversing sub-goals when the
    agent's interaction diverges from the expert's.

    `remaining_fn(state)` must be Markovian: it returns the
    `(SubGoal, target instance or None)` pairs still needed from the given
    state, ending in `(SubGoal(Skill.End), None)`, so a recomputed head
    stays consistent after arbitrary detours.
    """

    def __init__(self, state: WorldState, remaining_fn,
                 mode: InteractionMode = InteractionMode.HARD):
        self.mode = mode
        self.remaining_fn = remaining_fn
        self.recovery: list[tuple[SubGoal, int, WorldState]] = []
        self._pinned: tuple[SubGoal, int] | None = None
        # cached tail of the current BFS script: replanning after a step the
        # plan itself predicted reproduces this suffix exactly
        self._nav: tuple | None = None  # (subgoal, hint, [actions], node, step_count)

    def _pop_completed_recovery(self, state):
        while self.recovery:
            sub, hint, entry = self.recovery[0]
            if skill_success(sub, entry, state):
                self.recovery.pop(0)
                self._pinned = None
            else:
                return

    def _nav_cached(self, state, geom, sub, hint):
        if self._nav is None:
            return None
        csub, chint, actions, node, count = self._nav
        if csub != sub or chint != hint or not actions:
            return None
        if _node_of(state) != node or state.step_count != count:
            return None
        self._nav_store(state, geom, sub, hint, actions)
        return actions[0]

    def _nav_store(self, state, geom, sub, hint, actions):
        """Cache the script tail after `actions[0]` with the node and step
        count that executing `actions[0]` from `state` leads to."""
        if actions:
            self._nav = (sub, hint, actions[1:],
                         W.nav_pose(state, _node_of(state), actions[0], geom),
                         state.step_count + 1)
        else:
            self._nav = None

    def expert_action(self, state, geom=None, obs=None) -> ExpertStep:
        geom = geom or cached_geometry(state)
        obs = obs or cached_render(state)
        self._pop_completed_recovery(state)
        if self.recovery:
            sub, hint, _entry = self.recovery[0]
            if hint not in geom.display_cells:
                # e.g. an object put into a Plate or a Bowl: contents of a
                # movable receptacle are never displayed, so no expert can
                # label the Pickup that would undo the wrong Put
                raise Irrecoverable(f"recovery target {hint} not displayed")
        else:
            sub, hint = self.remaining_fn(state)[0]
            if sub.skill in (Skill.Answer, Skill.End):
                return ExpertStep(sub, PrimitiveAction.Done, None, None)
            if hint is None or not state.has(hint) \
                    or not _applicable(state, geom, sub.skill, state.obj(hint)):
                # keep the pinned instance while it still serves the sub-goal
                pinned = self._pinned is not None and self._pinned[0] == sub
                hint = self._pinned[1] if pinned else None
                if not (pinned and state.has(hint)
                        and _applicable(state, geom, sub.skill, state.obj(hint))
                        and hint in geom.display_cells):
                    hint = select_target(state, geom, sub)
            self._pinned = (sub, hint)
        cached = self._nav_cached(state, geom, sub, hint)
        if cached is not None:
            return ExpertStep(sub, cached, None, hint)
        action, point = _script_step(
            state, geom, obs, sub, hint, self.mode,
            lambda acts: self._nav_store(state, geom, sub, hint, acts))
        return ExpertStep(sub, action, point, hint)

    def observe(self, state_before, action, result, state_after,
                expected: ExpertStep):
        """Record an executed step; queue recovery if a wrong interaction
        succeeded.  Raises Irrecoverable when the wrong interaction has no
        reversing sub-goal: a Slice, or a Pickup with nowhere to put the
        object back.  A reversal whose target is hidden is queued and
        raises when `expert_action` would serve it, so a caller whose
        episode ends on this step never sees it."""
        if not result.success or action not in W.INTERACTIVE_ACTIONS:
            return
        if action == expected.action and result.target == expected.target:
            return
        prior_container = None
        if action is PrimitiveAction.Pickup and result.target is not None:
            prior_container = state_before.obj(result.target).container
        effect = WrongEffect(action=action, target=result.target,
                             prior_container=prior_container,
                             held_before=state_before.agent.held)
        pending = [sub for sub, _ in self.remaining_fn(state_after)]
        pending_classes = {sg.object_class for sg in
                           pending + [r[0] for r in self.recovery]
                           if sg.object_class is not None}
        sub, hint = _reversal_subgoal(effect, state_after, pending_classes)
        # entry state is post-effect: the reversal predicate compares against
        # the world as the wrong action left it
        self.recovery.insert(0, (sub, hint, state_after))
        self._pinned = None


def single_subgoal_stream(subgoal: SubGoal, initial_state: WorldState):
    """Remaining-plan callback for one-skill pre-training episodes."""

    def fn(state):
        end = (SubGoal(Skill.End), None)
        if subgoal.skill in (Skill.Answer, Skill.End) or \
                skill_success(subgoal, initial_state, state):
            return [end]
        return [(subgoal, None), end]

    return fn
