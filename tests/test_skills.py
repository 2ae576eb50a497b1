"""Skill vocabulary, success predicates, episode sampler."""

from __future__ import annotations

import numpy as np
import pytest

from gridhouse import skills as S
from gridhouse.planner import ExpertController, single_subgoal_stream
from gridhouse.scenes import builtin_templates
from gridhouse.skills import (NoFeasibleSkill, SceneSession, Skill, SubGoal,
                              periodic_reset, sample_skill_episode, skill_success)
from gridhouse.world import (InteractionMode, Openness, Power, PrimitiveAction,
                             randomize_scene, state_hash, step)

from conftest import REG, TEMPLATES_BY_ID, make_state


def test_subgoal_validation():
    assert len(Skill) == 10
    SubGoal(Skill.Answer)
    SubGoal(Skill.End)
    SubGoal(Skill.Pickup, 3)
    with pytest.raises(ValueError):
        SubGoal(Skill.Answer, 3)
    with pytest.raises(ValueError):
        SubGoal(Skill.End, 0)
    with pytest.raises(ValueError):
        SubGoal(Skill.Pickup)


def test_skill_success_open_fridge():
    before = make_state([{"class": "Fridge", "pos": (4, 6),
                          "openness": Openness.CLOSED}], agent_cell=(5, 8))
    after = before.with_object(
        __import__("dataclasses").replace(before.obj(0), openness=Openness.OPEN))
    sub = SubGoal(Skill.Open, REG.id_of("Fridge"))
    assert skill_success(sub, before, after)
    assert not skill_success(sub, after, after)  # no change -> no success


def test_feasible_pairs_keep_the_state_change_order():
    # sample_skill_episode draws pairs by index, so this order is part of
    # every fixed-seed skill episode; a closed, switched-off microwave has
    # two state-change pairs
    state = make_state([{"class": "Microwave", "pos": (4, 6)}], agent_cell=(5, 8))
    on = state.with_object(__import__("dataclasses").replace(
        state.obj(0), power=Power.ON, openness=Openness.OPEN))
    for s, want in ((state, [Skill.GoTo, Skill.ToggleOn, Skill.Open]),
                    (on, [Skill.GoTo, Skill.ToggleOff, Skill.Close])):
        assert [p[0] for p in S._feasible_pairs(s)] == want


def test_skill_success_goto_visible_in_range():
    state = make_state([{"class": "Apple", "pos": (5, 6)}], agent_cell=(5, 8))
    sub = SubGoal(Skill.GoTo, REG.id_of("Apple"))
    assert skill_success(sub, state, state)  # distance 2 <= R, visible
    far = make_state([{"class": "Apple", "pos": (5, 2)}], agent_cell=(5, 8))
    assert not skill_success(sub, far, far)


def test_pickup_wrong_class_is_not_success():
    # picking an orange does not satisfy Pickup Apple
    state = make_state([
        {"class": "Apple", "pos": (5, 7)},
        {"class": "Orange", "pos": (6, 7)},
    ], agent_cell=(5, 8))
    ocell = state.observation.visible_instance_cells()[1][0]
    after, res = step(state, PrimitiveAction.Pickup,
                      (ocell[0] + .5, ocell[1] + .5), InteractionMode.HARD)
    assert res.success
    assert not skill_success(SubGoal(Skill.Pickup, REG.id_of("Apple")), state, after)
    assert skill_success(SubGoal(Skill.Pickup, REG.id_of("Orange")), state, after)


def test_answer_and_end_have_no_success_predicate():
    # an answer is judged by tasks.task_success, never by a state pair
    state = make_state([])
    for skill in (Skill.Answer, Skill.End):
        with pytest.raises(ValueError, match=skill.name):
            skill_success(SubGoal(skill), state, state)


def test_feasible_pairs_lamp_only_scene():
    # independent enumeration: a single off lamp admits exactly GoTo and
    # ToggleOn
    state = make_state([{"class": "DeskLamp", "pos": (5, 5), "power": Power.OFF}],
                       agent_cell=(5, 8))
    pairs = {(p[0], p[1]) for p in S._feasible_pairs(state)}
    lamp = REG.id_of("DeskLamp")
    assert pairs == {(Skill.GoTo, lamp), (Skill.ToggleOn, lamp)}


def test_sampled_slice_episode_has_knife_in_hand():
    state = randomize_scene(TEMPLATES_BY_ID["kitchen_a"], 3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ep = sample_skill_episode(state, rng, skills=(Skill.Slice,))
        held = ep.initial_state.held_object()
        assert held is not None and ep.initial_state.cls(held).slicer
        break


def test_sampled_open_episode_starts_closed():
    state = randomize_scene(TEMPLATES_BY_ID["kitchen_b"], 5)
    rng = np.random.default_rng(1)
    ep = sample_skill_episode(state, rng, skills=(Skill.Open,))
    target_cls = ep.subgoal.object_class
    closed = [o for o in ep.initial_state.instances_of(target_cls)
              if o.openness is Openness.CLOSED]
    assert closed


def test_sampler_no_feasible_raises():
    state = make_state([], agent_cell=(5, 8))
    with pytest.raises(NoFeasibleSkill):
        sample_skill_episode(state, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expert_solvability_of_sampled_episodes(seed):
    # every sampled episode must be solvable by the expert
    state = randomize_scene(builtin_templates()[seed % 4], 100 + seed)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        ep = sample_skill_episode(state, rng)
        controller = ExpertController(
            single_subgoal_stream(ep.subgoal, ep.initial_state), InteractionMode.HARD)
        cur = ep.initial_state
        done = False
        for _t in range(ep.max_steps):
            ex = controller.expert_action(cur)
            new, res = step(cur, ex.action, ex.point, InteractionMode.HARD)
            assert res.success, (ep.subgoal, ex.action, res.reason)
            controller.observe(cur, ex.action, res, new, ex)
            cur = new
            if skill_success(ep.subgoal, ep.initial_state, cur):
                done = True
                break
            if ex.action is PrimitiveAction.Done and ex.subgoal.skill is Skill.End:
                break
        assert done, f"expert failed {ep.subgoal}"


def test_a_sampled_start_state_holds_its_geometry(monkeypatch):
    # the sampler places the agent without dropping the scene's geometry,
    # so the expert's first step on the episode builds none
    from gridhouse import world as W

    built = []
    real = W.build_geometry

    def build_geometry(state):
        built.append(state)
        return real(state)

    monkeypatch.setattr(W, "build_geometry", build_geometry)
    rng = np.random.default_rng(5)
    for template in builtin_templates()[:4]:
        base = randomize_scene(template, 3)
        for _ in range(15):
            ep = sample_skill_episode(base, rng)
            start = ep.initial_state
            assert "geometry" in start.__dict__, ep.subgoal
            del built[:]
            controller = ExpertController(single_subgoal_stream(ep.subgoal, start),
                                          InteractionMode.HARD)
            controller.expert_action(start)
            assert built == [], ep.subgoal


def test_periodic_reset_cadence():
    session = SceneSession([TEMPLATES_BY_ID["kitchen_a"]], 9)
    h0 = state_hash(session.state)
    periodic_reset(session, 7, 10)          # not a multiple: unchanged
    assert state_hash(session.state) == h0
    periodic_reset(session, 10, 10)         # multiple: re-randomized
    assert state_hash(session.state) != h0
    h1 = state_hash(session.state)
    periodic_reset(session, 1, 1)           # period 1: every episode
    assert state_hash(session.state) != h1
    with pytest.raises(ValueError):
        periodic_reset(session, 3, 0)
