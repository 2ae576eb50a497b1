"""Skill vocabulary, per-skill success predicates, pre-training sampler."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from . import world as W
from .world import Openness, PrimitiveAction, WorldState, instance_distance


class Skill(IntEnum):
    GoTo = 0
    Pickup = 1
    Put = 2
    ToggleOn = 3
    ToggleOff = 4
    Open = 5
    Close = 6
    Slice = 7
    Answer = 8
    End = 9


NO_OBJECT_SKILLS = frozenset({Skill.Answer, Skill.End})
INTERACTION_SKILLS = (Skill.Pickup, Skill.Put, Skill.ToggleOn, Skill.ToggleOff,
                      Skill.Open, Skill.Close, Skill.Slice)
PRETRAIN_SKILLS = (Skill.GoTo,) + INTERACTION_SKILLS

# each interaction skill is named after the primitive it ends with
SKILL_PRIMITIVE = {s: PrimitiveAction[s.name] for s in INTERACTION_SKILLS}
# ToggleOn, ToggleOff, Open, Close: `sample_skill_episode` draws pairs by
# index, so this order is part of every fixed-seed episode
STATE_CHANGE_SKILLS = tuple(s for s in INTERACTION_SKILLS
                            if SKILL_PRIMITIVE[s] in W.STATE_CHANGE)


def state_change(skill):
    """(attribute, value needed, value left) of a state-change skill's
    target (`world.STATE_CHANGE`); None for any other skill."""
    return W.STATE_CHANGE.get(SKILL_PRIMITIVE.get(skill))


class NoFeasibleSkill(RuntimeError):
    pass


@dataclass(frozen=True)
class SubGoal:
    skill: Skill
    object_class: int | None = None

    def __post_init__(self):
        if self.skill in NO_OBJECT_SKILLS:
            if self.object_class is not None:
                raise ValueError(f"{self.skill.name} takes no target object")
        elif self.object_class is None:
            raise ValueError(f"{self.skill.name} requires a target object class")


# --------------------------------------------------------------------------
# success predicates


def reached(state: WorldState, iid) -> bool:
    """Whether the agent has gone to instance `iid`: it is displayed,
    within interaction range, and one of its display cells is visible."""
    cells = state.geometry.display_cells.get(iid)
    if not cells:
        return False
    if instance_distance(state, iid) > state.config.interaction_range:
        return False
    return any(W.cell_visible_from(state, state.agent, c) for c in cells)


def skill_success(subgoal: SubGoal, before: WorldState, after: WorldState) -> bool:
    """Whether the step from `before` to `after` achieved the sub-goal.
    Answer and End have no predicate here: `tasks.task_success` judges an
    answer."""
    if subgoal.skill in NO_OBJECT_SKILLS:
        raise ValueError(f"{subgoal.skill.name} has no success predicate")

    cls_id = subgoal.object_class
    if subgoal.skill is Skill.GoTo:
        return any(reached(after, o.instance_id)
                   for o in after.instances_of(cls_id))

    if subgoal.skill is Skill.Pickup:
        held = after.held_object()
        return held is not None and held.class_id == cls_id

    if subgoal.skill is Skill.Put:
        if before.agent.held is None:
            return False
        moved = after.obj(before.agent.held)
        if moved.container is None:
            return False
        return after.obj(moved.container).class_id == cls_id

    if subgoal.skill is Skill.Slice:
        for o in after.instances_of(cls_id):
            if o.sliced and before.has(o.instance_id) and not before.obj(o.instance_id).sliced:
                return True
        return False

    attr, _needed, want = state_change(subgoal.skill)
    for o in after.instances_of(cls_id):
        if getattr(o, attr) is not want or \
                instance_distance(after, o.instance_id) > after.config.interaction_range:
            continue
        if before.has(o.instance_id) and getattr(before.obj(o.instance_id), attr) is not want:
            return True
    return False


# --------------------------------------------------------------------------
# episode sampling


@dataclass
class SkillEpisode:
    initial_state: WorldState
    subgoal: SubGoal
    max_steps: int


TELEPORT_RADIUS = 3       # interaction episodes start this close (Chebyshev)
NAV_MAX_STEPS = 60        # step budget of a GoTo episode
INTERACT_MAX_STEPS = 20   # step budget of an interaction episode


def _teleport_poses(state, target_iid):
    """Traversable poses within TELEPORT_RADIUS (Chebyshev) of a target
    cell with the target in view."""
    geom = state.geometry
    cells = geom.display_cells.get(target_iid, [])
    out = []
    seen = set()
    span = range(-TELEPORT_RADIUS, TELEPORT_RADIUS + 1)
    for (cx, cy) in cells:
        for dx in span:
            for dy in span:
                p = (cx + dx, cy + dy)
                if p in seen:
                    continue
                seen.add(p)
                if not (0 <= p[0] < state.width and 0 <= p[1] < state.height):
                    continue
                if geom.blocked[p[1], p[0]]:
                    continue
                for h in W.Heading:
                    pose = W.AgentPose(cell=p, heading=h, pitch=0)
                    if any(W.cell_visible_from(state, pose, c) for c in cells):
                        out.append(pose)
                        break
    out.sort(key=lambda pose: (pose.cell, int(pose.heading)))
    return out


def _feasible_pairs(state):
    """(skill, class_id, target_iid) candidates before teleports/preconditions."""
    reg = state.registry
    geom = state.geometry
    pairs = []
    slicers = [o for o in state.objects if reg[o.class_id].slicer]
    pickupables = [o for o in state.objects
                   if reg[o.class_id].pickupable and o.instance_id in geom.display_cells]
    for o in state.objects:
        cls = reg[o.class_id]
        displayed = o.instance_id in geom.display_cells
        if displayed:
            pairs.append((Skill.GoTo, o.class_id, o.instance_id))
        if cls.pickupable and displayed:
            pairs.append((Skill.Pickup, o.class_id, o.instance_id))
            if slicers and cls.sliceable and not o.sliced:
                pairs.append((Skill.Slice, o.class_id, o.instance_id))
        if cls.receptacle and displayed and pickupables:
            pairs.append((Skill.Put, o.class_id, o.instance_id))
        # state-change skills are plausible only where the skill's action
        # would apply
        for skill in STATE_CHANGE_SKILLS:
            attr, needed, _left = state_change(skill)
            if getattr(o, attr) is needed:
                pairs.append((skill, o.class_id, o.instance_id))
    return pairs


def sample_skill_episode(state: WorldState, rng: np.random.Generator,
                         skills=PRETRAIN_SKILLS) -> SkillEpisode:
    """Uniform draw over feasible skill-object pairs.

    Interaction episodes teleport the agent near the target; state-change
    skills start from the opposite state; precondition objects (held item
    for Put, a slicer for Slice) are placed in hand.
    """
    pairs = [p for p in _feasible_pairs(state) if p[0] in skills]
    order = rng.permutation(len(pairs))
    for k in order:
        skill, cls_id, iid = pairs[int(k)]
        episode = _build_episode(state, rng, skill, cls_id, iid)
        if episode is not None:
            return episode
    raise NoFeasibleSkill("no feasible skill-object pair in scene")


def _build_episode(state, rng, skill, cls_id, iid):
    from . import planner  # full-state expert; deferred to avoid an import cycle

    s = W.with_agent(state, held=None, pitch=0)
    held_before = state.agent.held
    if held_before is not None:
        # return whatever was in hand to a receptacle slot before sampling
        s = _drop_to_any_receptacle(s, held_before)
        if s is None:
            return None

    target = s.obj(iid)
    reg = s.registry

    change = state_change(skill)
    if change is not None:
        attr, needed, _left = change
        if getattr(target, attr) is not needed:
            return None  # pair was enumerated from a stale state
    elif skill is Skill.Put:
        # what the scene showed before the hand was emptied
        choices = [o for o in s.objects
                   if reg[o.class_id].pickupable and o.instance_id != iid
                   and o.instance_id in state.geometry.display_cells
                   and o.instance_id not in W.ancestors(s, iid)]
        if not choices:
            return None
        pick = choices[int(rng.integers(len(choices)))]
        s = W.hold(s, pick.instance_id)
        if reg[target.class_id].enclosed and s.obj(iid).openness is not Openness.OPEN:
            s = s.with_object(replace(s.obj(iid), openness=Openness.OPEN))
        if len(s.contents_of(iid)) >= W.capacity(s.obj(iid)):
            return None
    elif skill is Skill.Slice:
        if target.sliced:
            return None
        slicers = [o for o in s.objects if reg[o.class_id].slicer
                   and o.instance_id != iid]
        if not slicers:
            return None
        knife = slicers[int(rng.integers(len(slicers)))]
        s = W.hold(s, knife.instance_id)

    if iid not in s.geometry.display_cells:
        return None

    if skill is Skill.GoTo:
        free = [(x, y) for y in range(1, s.height - 1) for x in range(1, s.width - 1)
                if not s.geometry.blocked[y, x]]
        if not free:
            return None
        cell = free[int(rng.integers(len(free)))]
        heading = W.Heading(int(rng.integers(4)))
        s = W.with_agent(s, cell=cell, heading=heading)
        try:
            planner.shortest_path_to_instance(s, iid)
        except planner.Unreachable:
            return None
        return SkillEpisode(s, SubGoal(skill, cls_id), NAV_MAX_STEPS)

    poses = _teleport_poses(s, iid)
    if not poses:
        return None
    pose = poses[int(rng.integers(len(poses)))]
    s = W.with_agent(s, cell=pose.cell, heading=pose.heading)
    return SkillEpisode(s, SubGoal(skill, cls_id), INTERACT_MAX_STEPS)


def _drop_to_any_receptacle(state, iid):
    """The state with the (already released) instance `iid` put into the
    first free fixture, or None when there is none."""
    free = W.free_fixtures(state)
    if not free:
        return None
    return state.with_object(replace(state.obj(iid), anchor=None,
                                     container=free[0].instance_id))


# --------------------------------------------------------------------------
# scene sessions and periodic reset


class SceneSession:
    """One worker's environment handle: scene template(s) + a seed stream.

    A template list is cycled across resets so a worker sees every
    training layout."""

    def __init__(self, template, seed, registry=None, config=None):
        self.templates = template if isinstance(template, list) else [template]
        self.registry = registry
        self.config = config
        self._seeds = np.random.SeedSequence(seed)
        self.scene_count = 0
        self.state = None
        self.reset_scene()

    def template_for_next(self):
        return self.templates[self.scene_count % len(self.templates)]

    def reset_scene(self):
        child = self._seeds.spawn(1)[0]
        seed = int(child.generate_state(1, dtype=np.uint64)[0])
        self.state = W.randomize_scene(self.template_for_next(), seed,
                                       registry=self.registry, config=self.config)
        self.scene_count += 1
        return self.state


def periodic_reset(session: SceneSession, episode_counter: int, period: int) -> SceneSession:
    """Re-randomize the scene every `period` episodes."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if episode_counter % period == 0:
        session.reset_scene()
    return session
