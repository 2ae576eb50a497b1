"""Simulator: rendering, dynamics, target resolution, randomization."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from gridhouse import world as W
from gridhouse.planner import (ExpertController, InfeasibleSubgoal, Unreachable,
                               expert_point, single_subgoal_stream)
from gridhouse.scenes import builtin_templates
from gridhouse.skills import sample_skill_episode
from gridhouse.world import (FLOOR, WALL, CLASS_BASE, NO_INSTANCE,
                             FailureReason, Heading, InteractionMode,
                             InvalidAction, Openness, PlacementInfeasible,
                             Power, PrimitiveAction, WorldConfig,
                             build_geometry, footprint_cells, is_visible, randomize_scene,
                             render, resolve_target, state_hash, step)

from conftest import REG, TEMPLATES_BY_ID, make_state


def shown_ids(obs):
    """Ids of the instances the observation shows."""
    return set(obs.visible_instance_cells())


# --------------------------------------------------------------------------
# independent visibility oracle: re-derives opacity and samples the ray
# densely in float space


def oracle_visible(state, instance_id):
    geom_cells = {}
    opaque = {(x, y) for y in range(state.height) for x in range(state.width)
              if state.walls[y, x]}
    for o in state.objects:
        if o.anchor is None:
            continue
        cells = footprint_cells(o.anchor, o.size)
        cls = state.registry[o.class_id]
        closed_box = cls.enclosed and o.openness is Openness.CLOSED
        if cls.occludes and o.openness is not Openness.OPEN:
            opaque |= set(cells)
        if closed_box:
            geom_cells.setdefault(o.instance_id, []).extend(cells)
            continue
        contents = sorted((c for c in state.objects if c.container == o.instance_id),
                          key=lambda c: c.instance_id)
        slots = cells[1:]
        taken = []
        for k, item in enumerate(contents):
            if k < len(slots):
                geom_cells.setdefault(item.instance_id, []).append(slots[k])
                taken.append(slots[k])
        geom_cells.setdefault(o.instance_id, []).extend(
            [cells[0]] + [c for c in slots if c not in taken])

    ax, ay = state.agent.cell
    fx, fy = W.HEADING_VEC[state.agent.heading]
    rx, ry = W.right_vec(state.agent.heading)
    lo, hi = W.depth_band(state.config, state.agent.pitch)
    half = state.config.window // 2
    for (cx, cy) in geom_cells.get(instance_id, []):
        dx, dy = cx - ax, cy - ay
        r = dx * fx + dy * fy
        l = dx * rx + dy * ry
        if not (lo <= r <= min(hi, state.config.window - 1)):
            continue
        if abs(l) > r or not (-half <= l <= half - 1):
            continue
        blocked = False
        n = 2 * max(abs(dx), abs(dy), 1)
        for i in range(1, n):
            t = i / n
            sx = math.floor(0.5 + t * dx)
            sy = math.floor(0.5 + t * dy)
            if (sx, sy) in ((0, 0), (dx, dy)):
                continue
            if (ax + sx, ay + sy) in opaque:
                blocked = True
                break
        if not blocked:
            return True
    return False


# --------------------------------------------------------------------------
# render


def test_render_empty_room_floor_and_walls_only():
    state = make_state([])
    obs = render(state)
    assert shown_ids(obs) == set()
    shown = np.unique(obs.class_map)
    assert set(shown.tolist()) <= {W.SENTINEL, FLOOR, WALL}
    assert FLOOR in shown


def test_render_apple_ahead_unoccluded():
    state = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    obs = render(state)
    assert 0 in shown_ids(obs)
    cells = obs.visible_instance_cells()[0]
    assert len(cells) == 4  # one world cell = 2x2 observation cells
    assert np.all(obs.class_map[cells[0][1], cells[0][0]] == CLASS_BASE + REG.id_of("Apple"))


def test_an_observation_key_reads_every_map():
    # equal keys must mean equal observations: a change to any one map,
    # such as a state bit alone, gives another key
    obs = render(make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8)))
    assert render(make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))).key \
        == obs.key
    for name in ("class_map", "instance_map", "depth_map", "state_bits"):
        changed = getattr(obs, name).copy()
        changed.flat[0] += 1
        assert replace(obs, **{name: changed}).key != obs.key


@pytest.mark.parametrize("obs_size,upsample", [(32, 1), (32, 2), (32, 4), (30, 4)])
def test_every_map_is_constant_on_the_blocks_render_records(obs_size, upsample):
    # the encoder reads one pixel per block x block square: a cell paints
    # its upsample x upsample square from row obs_size - upsample * (r + 1),
    # so squares of gcd(obs_size, upsample) pixels aligned at 0 hold one value
    cfg = WorldConfig(obs_size=obs_size, upsample=upsample)
    block = math.gcd(obs_size, upsample)
    for template in builtin_templates():
        for seed in range(3):
            state = randomize_scene(template, seed, config=cfg)
            for heading in Heading:
                for pitch in (-1, 0, 1):
                    obs = W.with_agent(state, heading=heading, pitch=pitch).observation
                    assert obs.block == block
                    for m in (obs.class_map, obs.instance_map, obs.depth_map,
                              obs.state_bits):
                        cells = m[..., ::block, ::block]
                        assert np.array_equal(
                            m, np.repeat(np.repeat(cells, block, axis=-2), block, axis=-1))


def test_render_apple_in_closed_fridge_hidden():
    state = make_state([
        {"class": "Fridge", "pos": (4, 4), "openness": Openness.CLOSED},
        {"class": "Apple", "pos": None, "container": 0},
    ], agent_cell=(5, 8))
    obs = render(state)
    assert 0 in shown_ids(obs)       # fridge front face visible
    assert 1 not in shown_ids(obs)   # closed receptacle hides contents
    state_open = state.with_object(replace(state.obj(0), openness=Openness.OPEN))
    assert 1 in shown_ids(render(state_open))


def test_render_is_pure():
    state = randomize_scene(TEMPLATES_BY_ID["kitchen_a"], 3)
    a, b = render(state), render(state)
    assert np.array_equal(a.class_map, b.class_map)
    assert np.array_equal(a.instance_map, b.instance_map)
    assert np.array_equal(a.depth_map, b.depth_map)
    assert np.array_equal(a.state_bits, b.state_bits)


def test_instance_map_entries_subset_of_visible_set():
    # the instance map shows exactly the instances `is_visible` sees
    for seed in range(5):
        state = randomize_scene(TEMPLATES_BY_ID["kitchen_b"], seed)
        obs = render(state)
        ids = set(obs.instance_map[obs.instance_map != NO_INSTANCE].tolist())
        assert ids == {o.instance_id for o in state.objects
                       if is_visible(state, o.instance_id)}


def test_visibility_matches_oracle_on_random_scenes():
    for seed in range(8):
        state = randomize_scene(TEMPLATES_BY_ID["kitchen_a"], seed)
        for o in state.objects:
            assert is_visible(state, o.instance_id) == oracle_visible(state, o.instance_id), \
                f"seed={seed} iid={o.instance_id}"


def test_is_visible_behind_agent_false_ahead_true():
    state = make_state([{"class": "Apple", "pos": (5, 10)}], agent_cell=(5, 8))
    assert not is_visible(state, 0)
    ahead = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    assert is_visible(ahead, 0)


def test_is_visible_inside_open_fridge():
    state = make_state([
        {"class": "Fridge", "pos": (4, 4), "openness": Openness.OPEN},
        {"class": "Apple", "pos": None, "container": 0},
    ], agent_cell=(5, 8))
    assert is_visible(state, 1)
    assert oracle_visible(state, 1)


def test_ancestors_innermost_first_and_cycle_safe():
    state = make_state([
        {"class": "CounterTop", "pos": (4, 6)},
        {"class": "Plate", "pos": None, "container": 0},
        {"class": "Apple", "pos": None, "container": 1},
    ])
    assert list(W.ancestors(state, 2)) == [1, 0]
    assert list(W.ancestors(state, 0)) == []
    looped = state.with_object(replace(state.obj(0), anchor=None, container=2))
    assert list(W.ancestors(looped, 2)) == [1, 0, 2]   # stops at the repeat
    assert W.instance_distance(looped, 2) == math.inf


def test_is_visible_unknown_instance():
    with pytest.raises(W.UnknownInstance):
        is_visible(make_state([]), 99)


def test_occlusion_by_closed_fridge():
    # apple directly behind a closed fridge: ray blocked
    state = make_state([
        {"class": "Fridge", "pos": (4, 4), "openness": Openness.CLOSED},
        {"class": "Apple", "pos": (4, 2)},
    ], agent_cell=(4, 7), heading=Heading.NORTH)
    assert not is_visible(state, 1)
    assert not oracle_visible(state, 1)


# --------------------------------------------------------------------------
# step


def test_move_ahead_north_decrements_y():
    state = make_state([], agent_cell=(2, 2), heading=Heading.NORTH)
    new, res = step(state, PrimitiveAction.MoveAhead)
    assert res.success and new.agent.cell == (2, 1)


def test_move_blocked_by_object_without_motion():
    state = make_state([{"class": "Apple", "pos": (2, 1)}], agent_cell=(2, 2))
    new, res = step(state, PrimitiveAction.MoveAhead)
    assert not res.success and res.reason is FailureReason.BLOCKED
    assert new is state


def test_rotate_and_pitch_saturation():
    state = make_state([], agent_cell=(3, 3), heading=Heading.NORTH)
    s1, _ = step(state, PrimitiveAction.RotateRight)
    assert s1.agent.heading is Heading.EAST
    s2, _ = step(s1, PrimitiveAction.RotateLeft)
    assert s2.agent.heading is Heading.NORTH
    up, res = step(s2, PrimitiveAction.LookUp)
    assert res.success and up.agent.pitch == 1
    same, res2 = step(up, PrimitiveAction.LookUp)
    assert not res2.success and same.agent.pitch == 1


def test_pickup_point_on_floor_fails_without_mutation():
    state = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    h = state_hash(state)
    # empty floor cell straight ahead at distance 1 -> obs cell (16, 28)
    new, res = step(state, PrimitiveAction.Pickup, point=(16.5, 28.5),
                    mode=InteractionMode.HARD)
    assert not res.success and res.reason is FailureReason.NO_TARGET_HIT
    assert new is state and state_hash(new) == h


def test_pickup_and_slice_flow():
    state = make_state([
        {"class": "Apple", "pos": (5, 7)},
        {"class": "Knife", "pos": (6, 7)},
    ], agent_cell=(5, 8))
    obs = render(state)
    kcell = obs.visible_instance_cells()[1][0]
    s1, res = step(state, PrimitiveAction.Pickup, point=(kcell[0] + 0.5, kcell[1] + 0.5),
                   mode=InteractionMode.HARD)
    assert res.success and s1.agent.held == 1
    obs1 = render(s1)
    acell = obs1.visible_instance_cells()[0][0]
    s2, res2 = step(s1, PrimitiveAction.Slice, point=(acell[0] + 0.5, acell[1] + 0.5),
                    mode=InteractionMode.HARD)
    assert res2.success and s2.obj(0).sliced


def test_interactive_action_requires_point():
    state = make_state([{"class": "Apple", "pos": (5, 7)}])
    with pytest.raises(InvalidAction):
        step(state, PrimitiveAction.Pickup, point=None, mode=InteractionMode.HARD)


def test_open_close_reversibility_and_toggle():
    state = make_state([{"class": "Fridge", "pos": (4, 6), "openness": Openness.CLOSED},
                        {"class": "DeskLamp", "pos": (6, 7)}],
                       agent_cell=(5, 8))
    obs = render(state)
    fcell = obs.visible_instance_cells()[0][0]
    pt = (fcell[0] + 0.5, fcell[1] + 0.5)
    h0 = state_hash(state)
    s1, r1 = step(state, PrimitiveAction.Open, point=pt, mode=InteractionMode.HARD)
    assert r1.success and s1.obj(0).openness is Openness.OPEN
    s2, r2 = step(s1, PrimitiveAction.Close, point=pt, mode=InteractionMode.HARD)
    assert r2.success and s2.obj(0).openness is Openness.CLOSED
    # same object state as before the pair
    assert state_hash(s2) == h0 == state_hash(state)

    lamp = render(s2).visible_instance_cells()[1][0]
    lpt = (lamp[0] + 0.5, lamp[1] + 0.5)
    s3, r3 = step(s2, PrimitiveAction.ToggleOn, point=lpt, mode=InteractionMode.HARD)
    assert r3.success and s3.obj(1).power is Power.ON
    s4, r4 = step(s3, PrimitiveAction.ToggleOff, point=lpt, mode=InteractionMode.HARD)
    assert r4.success and s4.obj(1).power is Power.OFF


def test_put_restores_containment():
    state = make_state([
        {"class": "GarbageCan", "pos": (5, 6)},
        {"class": "Apple", "pos": None, "container": 0},
    ], agent_cell=(5, 7))
    obs = render(state)
    apt = obs.visible_instance_cells()[1][0]
    s1, r1 = step(state, PrimitiveAction.Pickup, point=(apt[0] + 0.5, apt[1] + 0.5),
                  mode=InteractionMode.HARD)
    assert r1.success and s1.agent.held == 1 and s1.obj(1).container is None
    can = render(s1).visible_instance_cells()[0][0]
    s2, r2 = step(s1, PrimitiveAction.Put, point=(can[0] + 0.5, can[1] + 0.5),
                  mode=InteractionMode.HARD)
    assert r2.success and s2.obj(1).container == 0 and s2.agent.held is None


def test_put_capacity_and_closed_receptacle_rejections():
    state = make_state([
        {"class": "Microwave", "pos": (5, 6), "openness": Openness.CLOSED},
        {"class": "Egg", "pos": None, "container": None},
    ], agent_cell=(5, 8), held=1)
    mic = render(state).visible_instance_cells()[0][0]
    pt = (mic[0] + 0.5, mic[1] + 0.5)
    _, res = step(state, PrimitiveAction.Put, point=pt, mode=InteractionMode.HARD)
    assert not res.success and res.reason is FailureReason.PRECONDITION_UNMET


def test_hands_full_and_hands_empty():
    state = make_state([
        {"class": "Apple", "pos": (5, 7)},
        {"class": "Orange", "pos": (6, 7)},
    ], agent_cell=(5, 8))
    acell = render(state).visible_instance_cells()[0][0]
    s1, _ = step(state, PrimitiveAction.Pickup, point=(acell[0] + .5, acell[1] + .5),
                 mode=InteractionMode.HARD)
    ocell = render(s1).visible_instance_cells()[1][0]
    _, res = step(s1, PrimitiveAction.Pickup, point=(ocell[0] + .5, ocell[1] + .5),
                  mode=InteractionMode.HARD)
    assert res.reason is FailureReason.HANDS_FULL
    _, res2 = step(state, PrimitiveAction.Put, point=(acell[0] + .5, acell[1] + .5),
                   mode=InteractionMode.HARD)
    assert res2.reason is FailureReason.HANDS_EMPTY


def test_heat_cool_clean_propagation():
    # heat: potato in a toggled-on microwave becomes hot at that step
    state = make_state([
        {"class": "Microwave", "pos": (5, 6), "openness": Openness.CLOSED},
        {"class": "Potato", "pos": None, "container": 0},
    ], agent_cell=(5, 8))
    mic = render(state).visible_instance_cells()[0][0]
    pt = (mic[0] + .5, mic[1] + .5)
    s1, r = step(state, PrimitiveAction.ToggleOn, point=pt, mode=InteractionMode.HARD)
    assert r.success and s1.obj(1).temperature is W.Temperature.HOT

    # cool: egg inside fridge goes cold once any successful step elapses
    state2 = make_state([
        {"class": "Fridge", "pos": (4, 5), "openness": Openness.CLOSED},
        {"class": "Egg", "pos": None, "container": 0},
    ], agent_cell=(5, 8))
    s2, _ = step(state2, PrimitiveAction.RotateLeft)
    assert s2.obj(1).temperature is W.Temperature.COLD

    # clean: dirty apple in sink + faucet on
    state3 = make_state([
        {"class": "Sink", "pos": (4, 6)},
        {"class": "Faucet", "pos": (4, 5)},
        {"class": "Apple", "pos": None, "container": 0,
         "cleanliness": W.Cleanliness.DIRTY},
    ], agent_cell=(5, 5), heading=Heading.WEST)
    fc = render(state3).visible_instance_cells()[1][0]
    s3, r3 = step(state3, PrimitiveAction.ToggleOn, point=(fc[0] + .5, fc[1] + .5),
                  mode=InteractionMode.HARD)
    assert r3.success and s3.obj(2).cleanliness is W.Cleanliness.CLEAN


def test_a_move_from_an_unsettled_state_still_applies_effects():
    # make_state skips the effects a step would have applied: the first
    # MoveAhead cools the apple, and its successor is settled, so the next
    # pose-only step keeps the very same objects
    state = make_state([{"class": "Fridge", "pos": (2, 4)},
                        {"class": "Apple", "pos": None, "container": 0}],
                       agent_cell=(5, 8))
    assert state.obj(1).temperature is W.Temperature.ROOM
    moved, res = step(state, PrimitiveAction.MoveAhead)
    assert res.success and moved.agent.cell == (5, 7)
    assert moved.obj(1).temperature is W.Temperature.COLD
    turned, res = step(moved, PrimitiveAction.RotateLeft)
    assert res.success and turned.objects is moved.objects


def test_every_successful_step_leads_to_a_settled_state(monkeypatch):
    # a successor that inherits the settled mark skips the effects, which
    # is sound only if every state `_ok` returns is a fixpoint of its own
    # effects; replay the expert over the splits of several seeds
    from gridhouse.episodes import run_expert_episode
    from gridhouse.tasks import (build_splits, desk_split_counts, remaining_fn,
                                 task_initial_state)

    outputs = []
    real_ok = W._ok

    def ok(before, after, target=None):
        out = real_ok(before, after, target)
        outputs.append(out[0])
        return out

    monkeypatch.setattr(W, "_ok", ok)
    templates = builtin_templates()
    for seed in (0, 4, 9):
        for split in build_splits(templates, desk_split_counts(3000), seed, n_unseen=2):
            for task in split.episodes:
                state = task_initial_state(task, TEMPLATES_BY_ID[task.scene_template_id])
                run_expert_episode(state, remaining_fn(task), InteractionMode.HARD,
                                   max_steps=task.max_steps, expected_answer=task.answer)
    assert any(W._propagation_effects(s) for s in outputs)
    for s in outputs:
        assert W._apply_effects(s, W._propagation_effects(s)) is s


def test_determinism_of_action_sequences():
    template = TEMPLATES_BY_ID["kitchen_c"]

    def run():
        s = randomize_scene(template, 11)
        seq = [PrimitiveAction.MoveAhead, PrimitiveAction.RotateLeft,
               PrimitiveAction.MoveAhead, PrimitiveAction.LookDown,
               PrimitiveAction.MoveAhead, PrimitiveAction.RotateRight]
        hashes = []
        for a in seq:
            s, _ = step(s, a)
            hashes.append(state_hash(s))
        return hashes

    assert run() == run()


# --------------------------------------------------------------------------
# memos that step carries to successors


def reference_state_hash(state):
    """state_hash as one repr of the whole list."""
    parts = [state.width, state.height, state.agent.cell, int(state.agent.heading),
             state.agent.pitch, state.agent.held]
    for o in sorted(state.objects, key=lambda o: o.instance_id):
        parts.append((o.instance_id, o.class_id, o.anchor, o.container, o.size,
                      o.openness.value, o.power.value, o.cleanliness.value,
                      o.sliced, o.temperature.value))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def assert_fields_equal(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def reference_build_geometry(state):
    """build_geometry as one row per painted cell, gathered by six appends."""
    h, w = state.height, state.width
    class_grid = np.full((h, w), FLOOR, dtype=np.int16)
    class_grid[state.walls] = WALL
    inst_grid = np.full((h, w), NO_INSTANCE, dtype=np.int32)
    state_grid = np.zeros((4, h, w), dtype=np.uint8)
    opaque, blocked = state.walls.copy(), state.walls.copy()
    display, rows = {}, []
    children = {}
    for o in state.objects:
        if o.container is not None:
            children.setdefault(o.container, []).append(o)

    def paint(obj, cells):
        display.setdefault(obj.instance_id, []).extend(cells)
        cls = state.registry[obj.class_id]
        bits = (obj.openness is Openness.OPEN, obj.power is Power.ON,
                obj.cleanliness is W.Cleanliness.DIRTY, obj.sliced)
        for cx, cy in cells:
            rows.append((cx, cy, CLASS_BASE + obj.class_id, obj.instance_id, bits,
                         cls.occludes and obj.openness is not Openness.OPEN))

    for obj in state.objects:
        if obj.anchor is None:
            continue
        cells = list(footprint_cells(obj.anchor, obj.size))
        blocked[[c[1] for c in cells], [c[0] for c in cells]] = True
        if state.registry[obj.class_id].enclosed and obj.openness is Openness.CLOSED:
            paint(obj, cells)
            continue
        contents = sorted(children.get(obj.instance_id, ()), key=lambda o: o.instance_id)
        slots, used = cells[1:], set()
        for k, item in enumerate(contents):
            if k < len(slots):
                paint(item, [slots[k]])
                used.add(slots[k])
        paint(obj, [cells[0]] + [c for c in slots if c not in used])
    if rows:
        xs, ys = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        class_grid[ys, xs] = [r[2] for r in rows]
        inst_grid[ys, xs] = [r[3] for r in rows]
        state_grid[:, ys, xs] = np.array([r[4] for r in rows], dtype=np.uint8).T
        opaque[ys, xs] |= np.array([r[5] for r in rows], dtype=bool)
    return W.SceneGeometry(class_grid, inst_grid, state_grid, opaque, blocked, display)


def assert_memos_fresh(state):
    assert_fields_equal(state.geometry, build_geometry(state))
    geom = reference_build_geometry(state)
    assert_fields_equal(state.geometry, geom)
    assert list(state.geometry.display_cells) == list(geom.display_cells)
    # a copy holds no memos, so its render builds the geometry afresh
    assert_fields_equal(state.observation, render(replace(state)))
    assert state_hash(state) == reference_state_hash(state)
    assert state.effects == W._propagation_effects(state)
    assert state.by_id == {o.instance_id: o for o in state.objects}


WALK_TEMPLATES = builtin_templates()
EXPERT = "expert"   # walk move: the skill expert's action and point


@settings(max_examples=100)
@given(scene=st.integers(0, len(WALK_TEMPLATES) - 1), seed=st.integers(0, 2 ** 16),
       walk=st.lists(st.tuples(st.one_of(st.just(EXPERT),
                                         st.sampled_from(list(PrimitiveAction))),
                               st.integers(0, 63), st.booleans()),
                     min_size=1, max_size=40))
def test_step_memos_match_fresh_rebuilds(scene, seed, walk):
    # start next to a skill target; the skill expert's interactions hit,
    # and other interactions aim at expert points on nearby instances
    base = randomize_scene(WALK_TEMPLATES[scene], seed)
    ep = sample_skill_episode(base, np.random.default_rng(seed))
    state = ep.initial_state
    stream = single_subgoal_stream(ep.subgoal, state)
    assert_memos_fresh(state)
    for move, pick, hard in walk:
        mode = InteractionMode.HARD if hard else InteractionMode.STANDARD
        obs = state.observation
        action, point = move, None
        if move == EXPERT:
            try:
                ex = ExpertController(stream, mode).expert_action(state)
                action, point = ex.action, ex.point
            except (InfeasibleSubgoal, Unreachable):
                action = PrimitiveAction.Done
        elif action in W.INTERACTIVE_ACTIONS:
            near = sorted(shown_ids(obs),
                          key=lambda i: (W.instance_distance(state, i), i))[:3]
            point = (expert_point(state, near[pick % len(near)], mode)
                     if near else (pick % 32 + .5, 16.5))
        state, res = step(state, action, point, mode)
        event(f"{'interaction' if point else 'navigation'} "
              f"{'success' if res.success else 'failure'}")
        assert_memos_fresh(state)


def test_expert_replays_build_a_fixed_number_of_memos(monkeypatch):
    # a carry that is lost shows as more builds; one that is too eager
    # shows in the golden digests and the memo tests above
    from gridhouse.episodes import run_expert_episode
    from gridhouse.tasks import (build_splits, desk_split_counts, remaining_fn,
                                 task_initial_state)

    splits = build_splits(builtin_templates(), desk_split_counts(3000), seed=0, n_unseen=2)
    calls = dict.fromkeys(("build_geometry", "render", "_propagation_effects"), 0)
    for name in calls:
        real = getattr(W, name)

        def counted(state, _name=name, _real=real):
            calls[_name] += 1
            return _real(state)

        monkeypatch.setattr(W, name, counted)
    episodes = steps = 0
    for split in splits:
        for task in split.episodes:
            state = task_initial_state(task, TEMPLATES_BY_ID[task.scene_template_id])
            traj = run_expert_episode(state, remaining_fn(task), InteractionMode.HARD,
                                      max_steps=task.max_steps, expected_answer=task.answer)
            episodes += 1
            steps += len(traj.steps)
    assert (episodes, steps) == (28, 343)
    assert calls == {"build_geometry": 101, "render": 50, "_propagation_effects": 112}


def test_step_shares_memos_only_while_scene_and_pose_hold():
    state = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    geom, index = state.geometry, state.by_id
    state.observation
    moved, res = step(state, PrimitiveAction.MoveAhead)
    assert res.success and moved.agent.cell == (5, 7)
    assert moved.geometry is geom and moved.by_id is index
    assert moved.observation is not state.observation

    done, res = step(moved, PrimitiveAction.Done)
    assert res.success and done is moved   # a settled state is its own successor
    assert done.geometry is geom
    assert done.observation is moved.observation

    cell = moved.observation.visible_instance_cells()[0][0]
    picked, res = step(moved, PrimitiveAction.Pickup,
                       point=(cell[0] + .5, cell[1] + .5), mode=InteractionMode.HARD)
    assert res.success and picked.agent.held == 0
    assert picked.geometry is not geom and picked.by_id is not index
    assert picked.observation is not moved.observation
    assert 0 not in picked.geometry.display_cells


# --------------------------------------------------------------------------
# resolve_target


def _scene_apple_orange(agent_cell=(5, 8)):
    return make_state([
        {"class": "Apple", "pos": (5, 7)},
        {"class": "Orange", "pos": (6, 7)},
    ], agent_cell=agent_cell)


def test_hard_resolve_direct_hit_in_range():
    state = _scene_apple_orange()
    obs = render(state)
    cell = obs.visible_instance_cells()[0][0]
    got = resolve_target(state, (cell[0] + 0.5, cell[1] + 0.5), InteractionMode.HARD)
    assert got == 0


def test_hard_resolve_out_of_range_returns_none():
    state = make_state([{"class": "Apple", "pos": (5, 3)}], agent_cell=(5, 8))
    obs = render(state)
    cell = obs.visible_instance_cells()[0][0]
    got = resolve_target(state, (cell[0] + 0.5, cell[1] + 0.5), InteractionMode.HARD)
    assert got is None
    _, res = step(state, PrimitiveAction.Pickup,
                  point=(cell[0] + 0.5, cell[1] + 0.5), mode=InteractionMode.HARD)
    assert res.reason is FailureReason.OUT_OF_RANGE


def test_standard_resolve_majority_overlap():
    state = _scene_apple_orange()
    # box centered one pixel left of the apple/orange boundary: apple covers
    # more of the 3x3 box than the orange
    got = resolve_target(state, (17.5, 28.5), InteractionMode.STANDARD)
    assert got == 0


def test_standard_ties_break_by_distance_then_id():
    # 1x1 observation cells (upsample=1) make exact overlap ties easy to build
    cfg = WorldConfig(upsample=1)
    state = make_state([
        {"class": "Apple", "pos": (5, 7)},
        {"class": "Orange", "pos": (6, 7)},
    ], agent_cell=(5, 8), config=cfg)
    obs = render(state)
    # box centered on the apple covers one cell of each; counts tie, the
    # nearer apple (dist 1 vs sqrt(2)) wins
    cells = obs.visible_instance_cells()
    acell = cells[0][0]
    got = resolve_target(state, (acell[0] + 0.5, acell[1] + 0.5),
                         InteractionMode.STANDARD)
    assert got == 0

    state2 = make_state([
        {"class": "Apple", "pos": (4, 7)},
        {"class": "Apple", "pos": (6, 7)},
    ], agent_cell=(5, 8), config=cfg)
    obs2 = render(state2)
    # box centered straight ahead sees both apples at equal count and equal
    # distance: lower instance id wins
    mid_col = (obs2.visible_instance_cells()[0][0][0] + obs2.visible_instance_cells()[1][0][0]) / 2
    row = obs2.visible_instance_cells()[0][0][1]
    got2 = resolve_target(state2, (mid_col + 0.5, row + 0.5),
                          InteractionMode.STANDARD)
    assert got2 == 0


def test_hard_subset_of_standard_with_degenerate_box():
    template = TEMPLATES_BY_ID["kitchen_d"]
    rng = np.random.default_rng(0)
    for seed in range(4):
        state = randomize_scene(template, seed)
        state = replace(state, config=WorldConfig(standard_box=1))
        for _ in range(40):
            pt = (float(rng.uniform(0, 32)), float(rng.uniform(0, 32)))
            hard = resolve_target(state, pt, InteractionMode.HARD)
            if hard is not None:
                std = resolve_target(state, pt, InteractionMode.STANDARD)
                assert std == hard


# --------------------------------------------------------------------------
# randomize_scene


def test_randomize_deterministic_bit_for_bit():
    t = TEMPLATES_BY_ID["kitchen_a"]
    assert state_hash(randomize_scene(t, 42)) == state_hash(randomize_scene(t, 42))


def test_randomize_seed_diversity_against_enumeration():
    # two movables over a template with >= 2 slots each: enumerate every
    # legal (slot, slot) assignment and check both seeds land in the set
    # and differ
    t = {
        "template_id": "tiny",
        "width": 8, "height": 8,
        "interior_walls": [],
        "fixtures": [
            {"class": "CounterTop", "pos": [1, 1]},
            {"class": "DiningTable", "pos": [1, 4]},
        ],
        "movables": [{"class": "Apple", "count": 1}, {"class": "Book", "count": 1}],
        "randomize_states": False,
    }
    legal_apple = {"CounterTop", "DiningTable"} & set(REG[REG.id_of("Apple")].placements)
    legal_book = {"CounterTop", "DiningTable"} & set(REG[REG.id_of("Book")].placements)
    assert legal_apple and legal_book

    def assignment(state):
        out = {}
        for o in state.objects:
            if o.container is not None:
                out[REG[o.class_id].name] = REG[state.obj(o.container).class_id].name
        return out

    s0 = randomize_scene(t, 0)
    found = {frozenset(assignment(randomize_scene(t, s)).items()) for s in range(12)}
    assert len(found) > 1, "seed diversity"
    for combo in found:
        d = dict(combo)
        assert d["Apple"] in legal_apple
        assert d["Book"] in legal_book
    assert assignment(s0)["Apple"] in legal_apple


def reference_randomize_scene(template, seed):
    """randomize_scene as one per-call body: checks and lays out the
    template on every call."""
    rng = np.random.default_rng(np.uint64(seed))
    width, height = template["width"], template["height"]
    walls = W._border_walls(width, height)
    for (x, y) in template.get("interior_walls", []):
        walls[y, x] = True
    randomize = template.get("randomize_states", True)
    objects, occupied = [], set()
    for fx in template["fixtures"]:
        cls_id = REG.id_of(fx["class"])
        cls = REG[cls_id]
        size = fx.get("size", cls.size)
        for c in footprint_cells(tuple(fx["pos"]), size):
            if not (0 < c[0] < width - 1 and 0 < c[1] < height - 1) or walls[c[1], c[0]]:
                raise PlacementInfeasible(f"fixture {fx['class']} at {fx['pos']} off-floor")
            if c in occupied:
                raise PlacementInfeasible(f"fixture overlap at {c}")
            occupied.add(c)
        openness, power, clean = W.initial_states(cls, rng, randomize)
        objects.append(W.ObjectInstance(
            instance_id=len(objects), class_id=cls_id, anchor=tuple(fx["pos"]),
            container=None, size=size, openness=openness, power=power,
            cleanliness=clean))
    recs = [o for o in objects if REG[o.class_id].receptacle]
    wanted = []
    for spec in template.get("movables", []):
        wanted += [REG.id_of(spec["class"])] * spec.get("count", 1)
    wanted.sort(key=lambda cid: (len(REG[cid].placements), REG[cid].name))
    assignment = None
    for _attempt in range(20):
        load = {o.instance_id: 0 for o in recs}
        trial = []
        for cls_id in wanted:
            slots = [r for r in recs if REG[r.class_id].name in REG[cls_id].placements
                     and load[r.instance_id] < W.capacity(r)]
            if not slots:
                trial = None
                break
            pick = slots[int(rng.integers(len(slots)))]
            load[pick.instance_id] += 1
            trial.append((cls_id, pick.instance_id))
        if trial is not None:
            assignment = trial
            break
    if assignment is None and wanted:
        raise PlacementInfeasible("movable placement unsatisfiable for template "
                                  f"{template.get('template_id')}")
    for cls_id, container in assignment or []:
        cls = REG[cls_id]
        openness, power, clean = W.initial_states(cls, rng, randomize)
        objects.append(W.ObjectInstance(
            instance_id=len(objects), class_id=cls_id, anchor=None,
            container=container, size=1, openness=openness, power=power,
            cleanliness=clean))
    free = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1)
            if not walls[y, x] and (x, y) not in occupied]
    if not free:
        raise PlacementInfeasible("no traversable cell for the agent")
    cell = free[int(rng.integers(len(free)))]
    heading = Heading(int(rng.integers(4)))
    return W.WorldState(width=width, height=height, walls=walls, objects=tuple(objects),
                        agent=W.AgentPose(cell=cell, heading=heading), registry=REG)


def assert_same_scene(got, want):
    assert state_hash(got) == state_hash(want)
    assert got.walls.dtype == want.walls.dtype and np.array_equal(got.walls, want.walls)
    assert got.agent == want.agent


@pytest.mark.parametrize("template", builtin_templates(), ids=lambda t: t["template_id"])
def test_randomize_scene_is_the_per_call_reference(template):
    for seed in range(50):
        assert_same_scene(randomize_scene(template, seed),
                          reference_randomize_scene(template, seed))


def test_scenes_of_one_template_share_one_read_only_walls_array():
    t = TEMPLATES_BY_ID["kitchen_d"]
    a, b = randomize_scene(t, 1), randomize_scene(t, 2)
    assert a.walls is b.walls
    with pytest.raises(ValueError):
        a.walls[1, 1] = True
    assert not a.walls[1, 1]


def test_an_edited_template_under_the_same_id_compiles_afresh():
    t = TEMPLATES_BY_ID["kitchen_a"]
    before = randomize_scene(t, 5)
    edited = {**t, "interior_walls": [[6, 5]],
              "fixtures": [dict(fx, pos=[1, 7]) if fx["class"] == "GarbageCan" else fx
                           for fx in t["fixtures"]]}
    assert edited["template_id"] == t["template_id"]
    after = randomize_scene(edited, 5)
    assert_same_scene(after, reference_randomize_scene(edited, 5))
    assert after.walls[5, 6] and not before.walls[5, 6]
    assert state_hash(after) != state_hash(before)
    # and the original still gets its own compile
    assert_same_scene(randomize_scene(t, 5), before)
    # an edit in place is a new content too
    t2 = {**t, "movables": [dict(m) for m in t["movables"]]}
    randomize_scene(t2, 5)
    t2["movables"][0]["count"] = 2
    assert_same_scene(randomize_scene(t2, 5), reference_randomize_scene(t2, 5))


BAD_TEMPLATES = {
    "off-floor": {"fixtures": [{"class": "Fridge", "pos": [6, 6]}]},
    "on a wall": {"interior_walls": [[2, 2]], "fixtures": [{"class": "Sink", "pos": [1, 2]}]},
    "overlap": {"fixtures": [{"class": "Shelf", "pos": [1, 1]},
                             {"class": "Drawer", "pos": [2, 1]}]},
    "no receptacle": {"fixtures": [{"class": "Shelf", "pos": [1, 1]}],
                      "movables": [{"class": "Apple", "count": 1}]},
    "too many": {"fixtures": [{"class": "Sink", "pos": [1, 1]}],
                 "movables": [{"class": "Egg", "count": 2}]},
    "no free cell": {"width": 3, "height": 3, "interior_walls": [[1, 1]], "fixtures": []},
}


@pytest.mark.parametrize("name", sorted(BAD_TEMPLATES))
def test_a_bad_template_raises_what_the_reference_raises(name):
    t = {"template_id": name, "width": 7, "height": 7, "randomize_states": False,
         "movables": [], **BAD_TEMPLATES[name]}
    for seed in (0, 1):
        with pytest.raises(PlacementInfeasible) as want:
            reference_randomize_scene(t, seed)
        with pytest.raises(PlacementInfeasible) as got:
            randomize_scene(t, seed)
        assert str(got.value) == str(want.value)


def test_the_desk_registry_is_built_once_and_cannot_grow():
    from gridhouse.classes import desk_registry
    reg = desk_registry()
    assert desk_registry() is reg
    assert randomize_scene(TEMPLATES_BY_ID["kitchen_b"], 0).registry is reg
    assert make_state().registry is reg
    with pytest.raises(AttributeError):
        reg.defs.append(reg.defs[0])
    assert len(reg) == 34


def test_randomize_infeasible_template():
    t = {
        "template_id": "nofood",
        "width": 8, "height": 8,
        "interior_walls": [],
        "fixtures": [{"class": "Shelf", "pos": [1, 1]}],
        "movables": [{"class": "Apple", "count": 1}],  # apples never go on shelves
        "randomize_states": False,
    }
    with pytest.raises(PlacementInfeasible):
        randomize_scene(t, 0)


def test_builtin_templates_all_load_and_randomize():
    for t in builtin_templates():
        s = randomize_scene(t, 7)
        geom = build_geometry(s)
        assert not geom.blocked[s.agent.cell[1], s.agent.cell[0]]
        for o in s.objects:
            if o.container is not None:
                assert s.cls(s.obj(o.container)).receptacle
