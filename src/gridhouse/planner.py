"""Full-state expert: distance-field navigation, per-sub-goal scripts,
recovery.

The expert reads WorldState directly (the learned agent never does).  It
serves per-step labels (a*, p*) for imitation, and the ExpertController
additionally monitors executed interactions so a wrong one can be undone
by inserting a reversing sub-goal.

Navigation labels come from one reverse BFS per (navigation key, target
cells): the distance from every pose to the nearest pose that sees a
target cell in range.  A memo is keyed by everything it reads, so the
fields live in one bounded `lru_cache` keyed by the geometry's blocked
and opaque cells, the grid size, the config and the target cells, and a
field serves every state, episode and call that agree on them.  Each
step takes the first move one level closer, which is the path FIFO BFS
from the agent's pose would return.  The expert reads the state's
`observation` only to aim an interaction (`expert_point`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import world as W
from .skills import (NO_OBJECT_SKILLS, SKILL_PRIMITIVE, Skill, SubGoal, skill_success,
                     state_change)
from .world import (AgentPose, InteractionMode, PrimitiveAction, WorldState,
                    instance_distance, line_of_sight)


class Unreachable(RuntimeError):
    pass


class InfeasibleSubgoal(RuntimeError):
    pass


class Irrecoverable(RuntimeError):
    pass


# --------------------------------------------------------------------------
# navigation: a distance field over poses
#
# A pose (cell, heading, pitch) is one bit of a Python int: heading and
# pitch pick a block of width * height bits, the cell a bit inside it.  A
# set of poses is one int, so one level of a search over every pose at
# once is a few shifts and masks.

# navigation successors: every navigation action but Done, which does not move
_MOVES = tuple(a for a in W.NAV_ACTION_SPACE if a is not PrimitiveAction.Done)
_PITCHES = (-1, 0, 1)
# distance fields kept across states, episodes and calls; one is a few KB
FIELD_CACHE_SIZE = 256


def _node_of(state):
    """The agent's pose as a search node (cell, heading, pitch)."""
    a = state.agent
    return (a.cell, a.heading, a.pitch)


def _block(heading, pitch, area):
    """First bit of the block of poses with this heading and pitch."""
    return ((pitch + 1) * 4 + heading) * area


def _pose_bit(state, node):
    (x, y), heading, pitch = node
    return _block(heading, pitch, state.width * state.height) + y * state.width + x


def _bits(mask):
    """A bool (height, width) array as an int with bit y * width + x set
    where the array is true."""
    return int.from_bytes(np.packbits(mask.ravel(), bitorder="little").tobytes(), "little")


@cache
def _view_patterns(cfg, area):
    """(dx, dy) -> the first bit of every (heading, pitch) block, `area`
    bits wide, whose view wedge holds the cell at that offset."""
    table = {}
    span = range(-cfg.window, cfg.window + 1)
    for pitch in _PITCHES:
        for heading in W.Heading:
            pose = AgentPose(cell=(0, 0), heading=heading, pitch=pitch)
            first = 1 << _block(heading, pitch, area)
            for off in ((dx, dy) for dx in span for dy in span):
                if W.cell_in_frustum(cfg, pose, off):
                    table[off] = table.get(off, 0) | first
    return table


@cache
def _pose_masks(w, h):
    """Pose-bit masks that depend on the grid size only:
    - `copies`: the first bit of every block, so `cell_bits * copies`
      repeats a cell mask in each block
    - `ahead`: per heading, the poses whose cell MoveAhead enters from
      inside the grid, and the shift from each to the pose it came from
    - the blocks facing north, facing west, at pitch -1 and at pitch 1"""
    area = w * h
    xs, ys = np.arange(w), np.arange(h)[:, None]

    def blocks(cell_bits, headings=W.Heading, pitches=_PITCHES):
        return sum(cell_bits << _block(hd, p, area) for hd in headings for p in pitches)

    ahead = []
    for heading in W.Heading:
        fx, fy = W.HEADING_VEC[heading]
        inside = _bits((0 <= xs - fx) & (xs - fx < w) & (0 <= ys - fy) & (ys - fy < h))
        ahead.append((blocks(inside, (heading,)), fy * w + fx))
    every = (1 << area) - 1
    return (blocks(1), tuple(ahead), blocks(every, (W.Heading.NORTH,)),
            blocks(every, (W.Heading.WEST,)), blocks(every, pitches=(-1,)),
            blocks(every, pitches=(1,)))


def _goal_blocks(opaque, cfg, cell, cells, view):
    """The goal test for every pose at `cell`: the first bits of the
    (heading, pitch) blocks whose pose sees a target cell while standing
    in range of one (not necessarily the same cell)."""
    ax, ay = cell
    if min(abs(cx - ax) + abs(cy - ay) for cx, cy in cells) > cfg.interaction_range + 1:
        return 0
    if not any((cx - ax) ** 2 + (cy - ay) ** 2 <= cfg.interaction_range ** 2
               for cx, cy in cells):
        return 0
    blocks = 0
    for cx, cy in cells:
        pattern = view.get((cx - ax, cy - ay), 0)
        if pattern & ~blocks and line_of_sight(opaque, cell, (cx, cy)):
            blocks |= pattern
    return blocks


def _goal_test(state, cells):
    """Whether the agent's pose sees a target cell in range."""
    area = state.width * state.height
    pose = state.agent
    blocks = _goal_blocks(state.geometry.opaque, state.config, pose.cell, cells,
                          _view_patterns(state.config, area))
    return bool(blocks >> _block(pose.heading, pose.pitch, area) & 1)


def _nav_key(state):
    """Everything a distance field reads of a state: the geometry's
    `blocked` and `opaque` as bytes, the grid size and the config."""
    geom = state.geometry
    return (geom.blocked.tobytes(), geom.opaque.tobytes(), state.width, state.height,
            state.config)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _distance_field(nav, cells):
    """Levels of one reverse BFS from the goal poses over the moves of
    `nav_pose`: levels[k] holds every pose k moves from the nearest goal
    pose.  The field is keyed by everything it reads, the nav key
    (`_nav_key`) and the target-cell tuple, so one computation serves
    every state, episode and call whose scene agrees on them."""
    blocked, opaque_bytes, w, h, cfg = nav
    opaque = np.frombuffer(opaque_bytes, dtype=bool).reshape(h, w)
    area = w * h
    view = _view_patterns(cfg, area)
    reach = math.ceil(cfg.interaction_range)
    seen = 0
    for x, y in {(x, y) for cx, cy in cells
                 for x in range(max(cx - reach, 0), min(cx + reach + 1, w))
                 for y in range(max(cy - reach, 0), min(cy + reach + 1, h))}:
        seen |= _goal_blocks(opaque, cfg, (x, y), cells, view) << y * w + x

    copies, ahead, north, west, down, up = _pose_masks(w, h)
    free = _bits(~np.frombuffer(blocked, dtype=bool)) * copies
    # MoveAhead enters a free cell from the cell behind it
    enters = [(free & inside, shift) for inside, shift in ahead]
    not_north, not_west, not_down, not_up = ~north, ~west, ~down, ~up

    levels = []
    frontier = seen
    while frontier:
        levels.append(frontier)
        before = 0
        for enter, shift in enters:
            hit = frontier & enter
            before |= hit >> shift if shift > 0 else hit << -shift
        # RotateLeft turns heading h + 1 into h, RotateRight h - 1 into h
        before |= (frontier & not_west) << area | (frontier & west) >> 3 * area
        before |= (frontier & not_north) >> area | (frontier & north) << 3 * area
        # LookUp raises pitch p - 1 to p, LookDown lowers p + 1 to p
        before |= (frontier & not_down) >> 4 * area | (frontier & not_up) << 4 * area
        frontier = before & ~seen
        seen |= frontier
    return tuple(levels)


def _walk(state, cells):
    """The moves from the agent's pose to the nearest pose that sees a
    target cell in range: at each pose, the first of `_MOVES` whose
    successor is one level closer.  That is the shortest path first in
    `_MOVES` order, the one FIFO BFS with that successor order returns."""
    levels = _distance_field(_nav_key(state), tuple(cells))
    node = _node_of(state)
    bit = _pose_bit(state, node)
    dist = next((k for k, level in enumerate(levels) if level >> bit & 1), None)
    if dist is None:
        raise Unreachable("no pose sees the target in range")
    for closer in reversed(levels[:dist]):
        for action in _MOVES:
            nxt = W.nav_pose(state, node, action)
            if nxt is not None and closer >> _pose_bit(state, nxt) & 1:
                break
        yield action
        node = nxt


def shortest_path_to_instance(state: WorldState, instance_id) -> list[PrimitiveAction]:
    cells = state.geometry.display_cells.get(instance_id)
    if not cells:
        raise Unreachable(f"instance {instance_id} is not displayed anywhere")
    return list(_walk(state, cells)) + [PrimitiveAction.Done]


# --------------------------------------------------------------------------
# target selection and expert points


def _applicable(state, skill, obj) -> bool:
    change = state_change(skill)
    if change is not None:
        attr, needed, _left = change
        return getattr(obj, attr) is needed
    cls = state.cls(obj)
    displayed = obj.instance_id in state.geometry.display_cells
    if skill is Skill.GoTo:
        return displayed
    if skill is Skill.Pickup:
        return displayed and cls.pickupable
    if skill is Skill.Put:
        held = state.agent.held
        # the held object may not end up inside itself
        return (displayed and held is not None and held != obj.instance_id
                and held not in W.ancestors(state, obj.instance_id)
                and W.has_room(state, obj))
    if skill is Skill.Slice:
        held = state.held_object()
        return (displayed and cls.sliceable and not obj.sliced
                and held is not None and state.cls(held).slicer)
    return False


def select_target(state: WorldState, subgoal: SubGoal):
    """Nearest applicable instance of the sub-goal's class."""
    cands = [o for o in state.instances_of(subgoal.object_class)
             if _applicable(state, subgoal.skill, o)
             and o.instance_id in state.geometry.display_cells]
    if not cands:
        raise InfeasibleSubgoal(subgoal.skill.name)
    return min(cands, key=lambda o: (instance_distance(state, o.instance_id),
                                     o.instance_id)).instance_id


def expert_point(state: WorldState, target_iid, mode: InteractionMode):
    """Ground-truth interaction point: the centroid of the target's visible
    cells, snapped into the cell (nearest the centroid) that actually
    resolves to the target in the given mode.  The expert reads the
    observation only here, on the states where it interacts."""
    cells = state.observation.visible_instance_cells().get(target_iid)
    if not cells:
        return None
    cx = sum(c[0] + 0.5 for c in cells) / len(cells)
    cy = sum(c[1] + 0.5 for c in cells) / len(cells)
    order = sorted(cells, key=lambda c: (c[0] + 0.5 - cx) ** 2 + (c[1] + 0.5 - cy) ** 2)
    for cell in order:
        pt = (cell[0] + 0.5, cell[1] + 0.5)
        if W.resolve_target(state, pt, mode) == target_iid:
            return pt
    return (order[0][0] + 0.5, order[0][1] + 0.5)


def _script_step(state, subgoal, target_iid, mode):
    """Next primitive (+ point) advancing a GoTo or interaction sub-goal
    for a pinned target."""
    cells = state.geometry.display_cells.get(target_iid)
    if not cells:
        raise InfeasibleSubgoal(f"target {target_iid} not displayed")
    if subgoal.skill is Skill.GoTo or not (
            _goal_test(state, cells)
            and instance_distance(state, target_iid) <= state.config.interaction_range):
        move = next(_walk(state, cells), None)
        if move is not None:
            return (move, None)
        if subgoal.skill is not Skill.GoTo:
            raise InfeasibleSubgoal("goal test and reachability disagree")
        return (PrimitiveAction.Done, None)
    return (SKILL_PRIMITIVE[subgoal.skill], expert_point(state, target_iid, mode))


# --------------------------------------------------------------------------
# plans and recovery


REVERSAL = {
    PrimitiveAction.Open: Skill.Close,
    PrimitiveAction.Close: Skill.Open,
    PrimitiveAction.ToggleOn: Skill.ToggleOff,
    PrimitiveAction.ToggleOff: Skill.ToggleOn,
}


def _reversal_subgoal(action, target, before: WorldState, state: WorldState,
                      pending_classes):
    """(SubGoal, target instance) undoing a wrong interaction: `action` on
    `target` took the world from `before` to `state`."""
    if action is PrimitiveAction.Slice:
        raise Irrecoverable("sliced the wrong object")
    if action is PrimitiveAction.Pickup:
        dest = _restitution_receptacle(state, before.obj(target).container,
                                       pending_classes)
        return SubGoal(Skill.Put, state.obj(dest).class_id), dest
    if action is PrimitiveAction.Put:
        held = before.agent.held
        return SubGoal(Skill.Pickup, state.obj(held).class_id), held
    return SubGoal(REVERSAL[action], state.obj(target).class_id), target


def _restitution_receptacle(state, prior, pending_classes):
    """Where to put back a wrongly picked object: its `prior` container,
    else the nearest free receptacle whose class the remaining plan does
    not need (so restitution never eats capacity the task requires)."""
    if prior is not None and state.has(prior) and W.has_room(state, state.obj(prior)):
        return prior
    cands = [(o.class_id in pending_classes,
              instance_distance(state, o.instance_id), o.instance_id)
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
    stays consistent after arbitrary detours.  Navigation labels are
    Markovian too: each one reads the distance field of the current
    geometry and target, so a label after a detour costs no new search
    while the scene is unchanged.
    """

    def __init__(self, remaining_fn, mode: InteractionMode = InteractionMode.HARD):
        self.mode = mode
        self.remaining_fn = remaining_fn
        self.recovery: list[tuple[SubGoal, int, WorldState]] = []
        self._pinned: tuple[SubGoal, int] | None = None

    def _pop_completed_recovery(self, state):
        while self.recovery:
            sub, hint, entry = self.recovery[0]
            if skill_success(sub, entry, state):
                self.recovery.pop(0)
                self._pinned = None
            else:
                return

    def expert_action(self, state) -> ExpertStep:
        displayed = state.geometry.display_cells
        self._pop_completed_recovery(state)
        if self.recovery:
            sub, hint, _entry = self.recovery[0]
            if hint not in displayed:
                # e.g. an object put into a Plate or a Bowl: contents of a
                # movable receptacle are never displayed, so no expert can
                # label the Pickup that would undo the wrong Put
                raise Irrecoverable(f"recovery target {hint} not displayed")
        else:
            sub, hint = self.remaining_fn(state)[0]
            if sub.skill in NO_OBJECT_SKILLS:
                return ExpertStep(sub, PrimitiveAction.Done, None, None)
            if hint is None or not state.has(hint) \
                    or not _applicable(state, sub.skill, state.obj(hint)):
                # keep the pinned instance while it still serves the sub-goal
                pinned = self._pinned is not None and self._pinned[0] == sub
                hint = self._pinned[1] if pinned else None
                if not (pinned and state.has(hint)
                        and _applicable(state, sub.skill, state.obj(hint))
                        and hint in displayed):
                    hint = select_target(state, sub)
            self._pinned = (sub, hint)
        action, point = _script_step(state, sub, hint, self.mode)
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
        pending = [sub for sub, _ in self.remaining_fn(state_after)]
        pending_classes = {sg.object_class for sg in
                           pending + [r[0] for r in self.recovery]
                           if sg.object_class is not None}
        sub, hint = _reversal_subgoal(action, result.target, state_before,
                                      state_after, pending_classes)
        # entry state is post-effect: the reversal predicate compares against
        # the world as the wrong action left it
        self.recovery.insert(0, (sub, hint, state_after))
        self._pinned = None


def single_subgoal_stream(subgoal: SubGoal, initial_state: WorldState):
    """Remaining-plan callback for one-skill pre-training episodes."""

    def fn(state):
        end = (SubGoal(Skill.End), None)
        if subgoal.skill in NO_OBJECT_SKILLS or \
                skill_success(subgoal, initial_state, state):
            return [end]
        return [(subgoal, None), end]

    return fn
