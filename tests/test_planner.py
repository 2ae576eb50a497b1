"""Expert planner: the distance-field walk vs a reference FIFO BFS and an
independent oracle, scripts, recovery rules, label consistency."""

from __future__ import annotations

import dataclasses
import functools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridhouse import planner as P, world as W
from gridhouse.episodes import run_expert_episode
from gridhouse.planner import (ExpertController, ExpertStep, Irrecoverable,
                               Unreachable, shortest_path_to_instance,
                               single_subgoal_stream)
from gridhouse.scenes import builtin_templates
from gridhouse.skills import Skill, SubGoal, sample_skill_episode, skill_success
from gridhouse.tasks import (build_splits, desk_split_counts, remaining_fn,
                             task_initial_state)
from gridhouse.world import (Heading, InteractionMode, Openness,
                             PrimitiveAction, randomize_scene, step)

from conftest import REG, TEMPLATES_BY_ID, make_state


# --------------------------------------------------------------------------
# independent BFS oracle (dict-based, own successor code)


def oracle_bfs_length(state, instance_id):
    geom = state.geometry
    cells = geom.display_cells.get(instance_id)
    if not cells:
        return None
    cfg = state.config

    def is_goal(pose):
        ax, ay = pose.cell
        near = any((cx - ax) ** 2 + (cy - ay) ** 2 <= cfg.interaction_range ** 2
                   for cx, cy in cells)
        if not near:
            return False
        return any(W.cell_visible_from(state, pose, c) for c in cells)

    start = (state.agent.cell, int(state.agent.heading), state.agent.pitch)
    if is_goal(W.AgentPose(cell=start[0], heading=Heading(start[1]), pitch=start[2])):
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        ((x, y), h, p), depth = frontier.popleft()
        nxt = []
        fx, fy = W.HEADING_VEC[Heading(h)]
        if 0 <= x + fx < state.width and 0 <= y + fy < state.height and \
                not geom.blocked[y + fy, x + fx]:
            nxt.append(((x + fx, y + fy), h, p))
        nxt.append(((x, y), (h - 1) % 4, p))
        nxt.append(((x, y), (h + 1) % 4, p))
        if p < 1:
            nxt.append(((x, y), h, p + 1))
        if p > -1:
            nxt.append(((x, y), h, p - 1))
        for node in nxt:
            if node in seen:
                continue
            seen.add(node)
            pose = W.AgentPose(cell=node[0], heading=Heading(node[1]), pitch=node[2])
            if is_goal(pose):
                return depth + 1
            frontier.append((node, depth + 1))
    return None


# --------------------------------------------------------------------------
# reference FIFO BFS with its own goal test: the distance field must agree


def reference_goal_test(state, pose, cells):
    cfg = state.config
    ax, ay = pose.cell
    near = min(abs(cx - ax) + abs(cy - ay) for cx, cy in cells) if cells else 99
    if near > cfg.interaction_range + 1:
        return False
    if not any((cx - ax) ** 2 + (cy - ay) ** 2 <= cfg.interaction_range ** 2
               for cx, cy in cells):
        return False
    return any(W.cell_visible_from(state, pose, c) for c in cells)


def reference_bfs(state, cells):
    """Minimal primitive sequence to a pose seeing a target cell in range,
    successors tried in `NAV_ACTION_SPACE` order."""
    moves = [a for a in W.NAV_ACTION_SPACE if a is not PrimitiveAction.Done]
    start = (state.agent.cell, state.agent.heading, state.agent.pitch)

    def pose_of(node):
        return W.AgentPose(cell=node[0], heading=node[1], pitch=node[2])

    if reference_goal_test(state, pose_of(start), cells):
        return []
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        node, path = queue.popleft()
        for action in moves:
            nxt = W.nav_pose(state, node, action)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            npath = path + [action]
            if reference_goal_test(state, pose_of(nxt), cells):
                return npath
            queue.append((nxt, npath))
    raise Unreachable("no pose sees the target in range")


FIELD_TEMPLATES = builtin_templates()


@settings(max_examples=200)
@given(scene=st.integers(0, len(FIELD_TEMPLATES) - 1), seed=st.integers(0, 2 ** 16),
       cell=st.integers(0, 2 ** 16), heading=st.sampled_from(list(Heading)),
       pitch=st.integers(-1, 1), target=st.integers(0, 2 ** 16))
def test_distance_field_walk_is_the_reference_bfs_path(scene, seed, cell, heading,
                                                       pitch, target):
    # any traversable cell, heading and pitch, any displayed target: the
    # field walk gives the reference's action sequence, or both raise
    base = randomize_scene(FIELD_TEMPLATES[scene], seed)
    geom = W.build_geometry(base)
    free = [(x, y) for y in range(base.height) for x in range(base.width)
            if not geom.blocked[y, x]]
    agent = dataclasses.replace(base.agent, cell=free[cell % len(free)],
                                heading=heading, pitch=pitch)
    state = dataclasses.replace(base, agent=agent)
    shown = sorted(geom.display_cells)
    iid = shown[target % len(shown)]
    try:
        want = reference_bfs(state, geom.display_cells[iid]) + [PrimitiveAction.Done]
    except Unreachable:
        with pytest.raises(Unreachable):
            shortest_path_to_instance(state, iid)
        want = None
    else:
        assert shortest_path_to_instance(state, iid) == want
    # the walk left its field in the cache, keyed by what the field reads:
    # the field served from there is the one a cold cache computes
    key = (P._nav_key(state), tuple(geom.display_cells[iid]))
    hits = P._distance_field.cache_info().hits
    served = P._distance_field(*key)
    assert P._distance_field.cache_info().hits == hits + 1
    P._distance_field.cache_clear()
    assert P._distance_field(*key) == served


def test_a_field_is_never_served_across_an_open_or_close_that_changes_opaque():
    # opening the closed Fridge clears opaque cells; every other target
    # keeps its cells, so only the nav key tells the two scenes apart
    closed = randomize_scene(TEMPLATES_BY_ID["kitchen_a"], 3)
    fridge = next(o for o in closed.objects if REG[o.class_id].name == "Fridge")
    if fridge.openness is not Openness.CLOSED:
        closed = closed.with_object(dataclasses.replace(fridge, openness=Openness.CLOSED))
    opened = closed.with_object(dataclasses.replace(fridge, openness=Openness.OPEN))
    assert not np.array_equal(closed.geometry.opaque, opened.geometry.opaque)
    assert np.array_equal(closed.geometry.blocked, opened.geometry.blocked)
    targets = [iid for iid, cells in closed.geometry.display_cells.items()
               if opened.geometry.display_cells.get(iid) == cells]
    moved = 0
    for iid in targets:
        cells = tuple(closed.geometry.display_cells[iid])
        before = P._distance_field(P._nav_key(closed), cells)   # cached first
        got = P._distance_field(P._nav_key(opened), cells)
        P._distance_field.cache_clear()
        assert got == P._distance_field(P._nav_key(opened), cells)
        moved += got != before
    assert moved > 0


def test_the_field_cache_stays_within_its_bound():
    assert P._distance_field.cache_info().maxsize == P.FIELD_CACHE_SIZE
    for seed in range(40):
        state = randomize_scene(FIELD_TEMPLATES[seed % len(FIELD_TEMPLATES)], seed)
        for cells in state.geometry.display_cells.values():
            P._distance_field(P._nav_key(state), tuple(cells))
    info = P._distance_field.cache_info()
    assert info.misses > P.FIELD_CACHE_SIZE
    assert info.currsize == P.FIELD_CACHE_SIZE


def test_a_walled_off_target_is_unreachable_for_field_and_reference():
    state = make_state([{"class": "Apple", "pos": (10, 3)}], agent_cell=(5, 8))
    walls = state.walls.copy()
    for x, y in [(9, 2), (10, 2), (11, 2), (9, 3), (11, 3), (9, 4), (10, 4), (11, 4)]:
        walls[y, x] = True
    state = dataclasses.replace(state, walls=walls)
    with pytest.raises(Unreachable):
        reference_bfs(state, state.geometry.display_cells[0])
    with pytest.raises(Unreachable):
        shortest_path_to_instance(state, 0)


def test_shortest_path_already_at_goal_is_done():
    state = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    assert shortest_path_to_instance(state, 0) == [PrimitiveAction.Done]


def test_shortest_path_three_ahead_is_move_done():
    state = make_state([{"class": "Apple", "pos": (5, 5)}], agent_cell=(5, 8))
    assert shortest_path_to_instance(state, 0) == \
        [PrimitiveAction.MoveAhead, PrimitiveAction.Done]


def test_shortest_path_matches_oracle_on_random_scenes():
    for seed in range(6):
        state = randomize_scene(TEMPLATES_BY_ID["kitchen_c"], 40 + seed)
        for cls_name in ("Apple", "Fridge", "Sink", "Knife", "DiningTable"):
            for o in state.instances_of(REG.id_of(cls_name)):
                want = oracle_bfs_length(state, o.instance_id)
                if want is None:
                    with pytest.raises(Unreachable):
                        shortest_path_to_instance(state, o.instance_id)
                    continue
                got = shortest_path_to_instance(state, o.instance_id)
                assert len(got) - 1 == want, f"{cls_name} {o.instance_id} seed={seed}"


def test_shortest_path_unreachable():
    # an apple in a closed fridge is displayed nowhere
    state = make_state([{"class": "Fridge", "pos": (4, 6)},
                        {"class": "Apple", "pos": None, "container": 0}])
    with pytest.raises(Unreachable):
        shortest_path_to_instance(state, 1)


def expert_step(state, subgoal):
    """The expert's label for a one-skill episode starting at `state`."""
    controller = ExpertController(single_subgoal_stream(subgoal, state))
    return controller.expert_action(state)


def test_expert_action_open_fridge_in_range():
    state = make_state([{"class": "Fridge", "pos": (4, 6),
                         "openness": Openness.CLOSED}], agent_cell=(5, 8))
    ex = expert_step(state, SubGoal(Skill.Open, REG.id_of("Fridge")))
    action, point = ex.action, ex.point
    assert action is PrimitiveAction.Open and point is not None
    # the point resolves to the fridge in hard mode
    got = W.resolve_target(state, point, InteractionMode.HARD)
    assert got == 0


def test_expert_action_goto_midroute_is_bfs_move():
    state = make_state([{"class": "Apple", "pos": (5, 3)}], agent_cell=(5, 8))
    ex = expert_step(state, SubGoal(Skill.GoTo, REG.id_of("Apple")))
    assert ex.action is PrimitiveAction.MoveAhead and ex.point is None


def test_expert_action_answer_is_done():
    state = make_state([])
    ex = expert_step(state, SubGoal(Skill.Answer))
    assert (ex.action, ex.point) == (PrimitiveAction.Done, None)


def test_put_goes_to_an_open_receptacle_rather_than_open_a_closed_one():
    # a closed Drawer is nearer than an open one: the expert puts the held
    # Apple into the open Drawer and never opens the closed one
    state = make_state([{"class": "Drawer", "pos": (5, 6), "openness": Openness.CLOSED},
                        {"class": "Drawer", "pos": (10, 3), "openness": Openness.OPEN},
                        {"class": "Apple", "pos": None}], agent_cell=(5, 8), held=2)
    put = SubGoal(Skill.Put, REG.id_of("Drawer"))
    traj = run_expert_episode(state, single_subgoal_stream(put, state),
                              InteractionMode.HARD, max_steps=60)
    assert traj.terminated == "end"
    assert PrimitiveAction.Open not in [r.action for r in traj.steps]
    assert traj.final_state.obj(2).container == 1


def test_expert_point_centroid_snaps_to_target():
    state = make_state([{"class": "Fridge", "pos": (4, 6)},
                        {"class": "Apple", "pos": (6, 7)}], agent_cell=(5, 8))
    from gridhouse.planner import expert_point
    for mode in (InteractionMode.HARD, InteractionMode.STANDARD):
        pt = expert_point(state, 1, mode)
        assert W.resolve_target(state, pt, mode) == 1, mode


# --------------------------------------------------------------------------
# recovery


def _observe_wrong(before, action, result, after, plan, expected):
    """Controller for the fixed sub-goal list `plan`, after watching the
    executed `action` where the expert meant `expected`."""
    controller = ExpertController(lambda state: [(sub, None) for sub in plan],
                                  InteractionMode.HARD)
    controller.observe(before, action, result, after, expected)
    return controller


def test_recover_wrong_pickup_returns_to_source_container():
    state = make_state([
        {"class": "GarbageCan", "pos": (5, 6)},
        {"class": "Orange", "pos": None, "container": 0},
        {"class": "Apple", "pos": (4, 7)},
    ], agent_cell=(5, 7))
    obs = state.observation
    ocell = obs.visible_instance_cells()[1][0]
    after, res = step(state, PrimitiveAction.Pickup,
                      (ocell[0] + .5, ocell[1] + .5), InteractionMode.HARD)
    assert res.success and res.target == 1
    plan = [SubGoal(Skill.Pickup, REG.id_of("Apple")), SubGoal(Skill.End)]
    controller = _observe_wrong(state, PrimitiveAction.Pickup, res, after, plan,
                                ExpertStep(plan[0], PrimitiveAction.Pickup, None, 2))
    sub, hint, _entry = controller.recovery[0]
    assert sub == SubGoal(Skill.Put, REG.id_of("GarbageCan"))
    assert hint == 0
    assert len(controller.recovery) == 1  # the task plan resumes after restitution
    assert controller.expert_action(after).subgoal == sub


def test_recover_wrong_open_inserts_close():
    state = make_state([{"class": "Cabinet", "pos": (4, 6),
                         "openness": Openness.OPEN}], agent_cell=(5, 8))
    before = state.with_object(dataclasses.replace(state.obj(0),
                                                   openness=Openness.CLOSED))
    plan = [SubGoal(Skill.GoTo, REG.id_of("Apple")), SubGoal(Skill.End)]
    controller = _observe_wrong(before, PrimitiveAction.Open, W.ActionResult(True, None, 0),
                                state, plan,
                                ExpertStep(plan[0], PrimitiveAction.MoveAhead, None, None))
    assert controller.recovery[0][0] == SubGoal(Skill.Close, REG.id_of("Cabinet"))


def test_recover_wrong_slice_is_irrecoverable():
    state = make_state([{"class": "Bread", "pos": (5, 7), "sliced": True}],
                       agent_cell=(5, 8))
    before = state.with_object(dataclasses.replace(state.obj(0), sliced=False))
    plan = [SubGoal(Skill.End)]
    with pytest.raises(Irrecoverable):
        _observe_wrong(before, PrimitiveAction.Slice, W.ActionResult(True, None, 0),
                       state, plan, ExpertStep(plan[0], PrimitiveAction.Done, None, None))


def test_controller_recovers_from_injected_wrong_pickup():
    # expert wants the apple; we force-pick the orange first; the label
    # stream must contain the restitution Put before the resumed Pickup
    state = make_state([
        {"class": "GarbageCan", "pos": (5, 6)},
        {"class": "Orange", "pos": None, "container": 0},
        {"class": "Apple", "pos": (4, 6)},
    ], agent_cell=(5, 7))
    sub = SubGoal(Skill.Pickup, REG.id_of("Apple"))
    controller = ExpertController(single_subgoal_stream(sub, state), InteractionMode.HARD)
    ex = controller.expert_action(state)
    assert ex.action is PrimitiveAction.Pickup and ex.target == 2
    obs = state.observation
    ocell = obs.visible_instance_cells()[1][0]
    after, res = step(state, PrimitiveAction.Pickup,
                      (ocell[0] + .5, ocell[1] + .5), InteractionMode.HARD)
    controller.observe(state, PrimitiveAction.Pickup, res, after, ex)
    labels = []
    cur = after
    for _ in range(30):
        ex = controller.expert_action(cur)
        labels.append(ex.subgoal)
        new, res = step(cur, ex.action, ex.point, InteractionMode.HARD)
        assert res.success
        controller.observe(cur, ex.action, res, new, ex)
        cur = new
        if ex.subgoal.skill is Skill.End:
            break
    names = [(s.skill, s.object_class) for s in labels]
    put_at = names.index((Skill.Put, REG.id_of("GarbageCan")))
    pick_at = names.index((Skill.Pickup, REG.id_of("Apple")))
    assert put_at < pick_at
    assert cur.agent.held == 2          # apple finally in hand
    assert cur.obj(1).container == 0    # orange restored


FUZZ_SEED = 6   # its splits hold the two wrong Puts named in the examples below


@functools.lru_cache(maxsize=None)
def _fuzz_tasks():
    templates = builtin_templates()
    splits = build_splits(templates, desk_split_counts(3000), FUZZ_SEED, n_unseen=2)
    by_id = {t["template_id"]: t for t in templates}
    return [(task, by_id[task.scene_template_id]) for sp in splits for task in sp.episodes]


@settings(max_examples=40)
@given(index=st.integers(0, 2 ** 16), inject_seed=st.integers(0, 2 ** 32 - 1))
# a wrong Put of the held Bowl into a Plate, and of a held object into a
# Bowl: contents of movable receptacles are never displayed, so no expert
# can label the reversing Pickup and the episode must end irrecoverable
@example(index=3, inject_seed=[6, 0, 3])
@example(index=23, inject_seed=[6, 3, 3])
def test_expert_is_total_under_injected_interactions(index, inject_seed):
    # replay a split episode while a quarter of the steps are replaced by a
    # random interaction aimed at a visible instance: the controller must
    # label every step or end the episode with a recorded reason
    tasks = _fuzz_tasks()
    task, template = tasks[index % len(tasks)]
    rng = np.random.default_rng(inject_seed)
    actions = sorted(W.INTERACTIVE_ACTIONS)
    streams = []

    def labels(state):
        out = remaining_fn(task)(state)
        streams.append(out)
        return out

    def intervene(t, state, ex):
        visible = sorted(state.observation.visible_instance_cells().items())
        if rng.random() >= 0.25 or not visible:
            return None
        _iid, cells = visible[int(rng.integers(len(visible)))]
        col, row = cells[int(rng.integers(len(cells)))]
        return actions[int(rng.integers(len(actions)))], (col + .5, row + .5)

    traj = run_expert_episode(task_initial_state(task, template), labels,
                              InteractionMode.HARD, max_steps=task.max_steps,
                              expected_answer=task.answer, intervene=intervene)
    assert traj.terminated in ("end", "irrecoverable", "budget")
    assert streams and all(s[-1] == (SubGoal(Skill.End), None) for s in streams)
    # an episode ends on the expert's own End, or in IQA on its own Answer
    # with the task's answer recorded
    if traj.terminated == "end":
        last = traj.steps[-1].subgoal
        assert last == SubGoal(Skill.End) or (
            task.family == "IQA" and last == SubGoal(Skill.Answer)
            and traj.answer == task.answer), (last, traj.answer)


def test_label_consistency_on_sampled_skill_episodes():
    # expert actions never fail from any reachable state
    rng = np.random.default_rng(3)
    for seed in range(3):
        state = randomize_scene(TEMPLATES_BY_ID["kitchen_d"], 60 + seed)
        for _ in range(8):
            ep = sample_skill_episode(state, rng)
            controller = ExpertController(
                single_subgoal_stream(ep.subgoal, ep.initial_state), InteractionMode.HARD)
            cur = ep.initial_state
            for _t in range(ep.max_steps):
                ex = controller.expert_action(cur)
                new, res = step(cur, ex.action, ex.point, InteractionMode.HARD)
                assert res.success, (ep.subgoal, ex.action, res.reason)
                controller.observe(cur, ex.action, res, new, ex)
                cur = new
                if skill_success(ep.subgoal, ep.initial_state, cur) or \
                        (ex.action is PrimitiveAction.Done and
                         ex.subgoal.skill is Skill.End):
                    break
