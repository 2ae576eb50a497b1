"""Policy networks: masking, routing, pointing arithmetic, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridhouse import tensor as T
from gridhouse.agents import (ANSWER_SPACE, INTERACT_ACTION_SPACE,
                              NAV_ACTION_SPACE, SKILL_FAMILY, ForwardMemo,
                              HierarchicalAgent, ModelConfig, high_level_step,
                              obs_planes, point_from_grid, qa_answer,
                              qa_logits, sample_logits, sub_policy_step)
from gridhouse.classes import desk_registry
from gridhouse.harness import act_episode
from gridhouse.scenes import builtin_templates
from gridhouse.skills import NO_OBJECT_SKILLS, Skill, SubGoal
from gridhouse.tasks import build_vocab, generate_task, task_initial_state
from gridhouse.trainer import expert_cell_delta
from gridhouse.verification import micro_model_config
from gridhouse.world import InteractionMode, randomize_scene

REG = desk_registry()
VOCAB = build_vocab(REG)
CFG = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB))
TEMPLATES = builtin_templates()


@pytest.fixture(scope="module")
def agent():
    return HierarchicalAgent(np.random.default_rng(0), CFG)


@pytest.fixture(scope="module")
def scene_obs():
    state = randomize_scene(TEMPLATES[0], 2)
    return state, state.observation


def test_encoder_output_shape(agent, scene_obs):
    _, obs = scene_obs
    cmap, planes = obs_planes([obs])
    z = agent.hl_encoder(cmap, planes, 1)
    assert z.shape == (1, CFG.d, CFG.grid, CFG.grid)


def test_high_level_masks_answer_and_end(agent, scene_obs):
    state, obs = scene_obs
    z = agent.task_enc([[2, 5, 9]])
    h = agent.high.initial_hidden()
    rng = np.random.default_rng(0)
    last = None
    memo = ForwardMemo()
    for i in range(60):
        sub, h = high_level_step(agent, z, obs, None, last, h, rng, memo=memo)
        if sub.skill in NO_OBJECT_SKILLS:
            assert sub.object_class is None
        else:
            assert 0 <= sub.object_class < CFG.num_classes
        last = sub


def test_uniform_logits_give_uniform_skill_distribution(agent):
    # zeroed skill head: every skill is drawn with probability exactly 1/10
    n = len(Skill)
    rng, uniform = np.random.default_rng(0), np.random.default_rng(0)
    draws = [sample_logits(np.zeros(n, dtype=np.float32), rng, False) for _ in range(200)]
    assert draws == [int(uniform.choice(n, p=np.full(n, 1.0 / n))) for _ in range(200)]


def test_greedy_decoding_takes_the_largest_logit():
    # exp rounds both top logits to 1.0 in float32, so the argmax of the
    # softmax would take the first of them; greedy takes the larger one
    logits = np.array([0.0, 1e-8, -3.0], dtype=np.float32)
    p = np.exp(logits - logits.max())
    assert p[0] == p[1]
    assert sample_logits(logits, None, True) == 1


def test_hidden_state_changes_every_step(agent, scene_obs):
    state, obs = scene_obs
    z = agent.task_enc([[2, 5]])
    h = agent.high.initial_hidden()
    rng = np.random.default_rng(1)
    seen = [h.copy()]
    last = None
    memo = ForwardMemo()
    for _ in range(4):
        sub, h = high_level_step(agent, z, obs, None, last, h, rng, memo=memo)
        last = sub
        seen.append(h.copy())
    for a, b in zip(seen, seen[1:]):
        assert not np.allclose(a, b)


def test_routing_table_total():
    assert set(SKILL_FAMILY) == set(Skill)
    assert SKILL_FAMILY[Skill.GoTo] == "nav"
    assert SKILL_FAMILY[Skill.Answer] == "qa"
    for s in (Skill.Pickup, Skill.Put, Skill.Open, Skill.Close,
              Skill.ToggleOn, Skill.ToggleOff, Skill.Slice):
        assert SKILL_FAMILY[s] == "interact"


def test_point_from_grid_arithmetic():
    # cell (3, 5) with offset (0.5, -1.0): centers at 4*i + 2
    cell = 5 * CFG.grid + 3
    assert point_from_grid(CFG, cell, (0.5, -1.0)) == (14.5, 21.0)
    assert point_from_grid(CFG, cell, (0.0, 0.0)) == (14.0, 22.0)
    # offsets clamp at half a cell width
    assert point_from_grid(CFG, cell, (5.0, -9.0)) == (16.0, 20.0)


# fractions of half a cell width, strictly inside the cell
INSIDE = st.floats(min_value=-0.999, max_value=0.999)


@given(fx=INSIDE, fy=INSIDE)
def test_expert_cell_delta_inverts_point_from_grid(fx, fy):
    for cfg in (CFG, micro_model_config()):
        d = (fx * cfg.cell_px / 2, fy * cfg.cell_px / 2)
        for cell in range(cfg.grid * cfg.grid):
            got_cell, got_d = expert_cell_delta(point_from_grid(cfg, cell, d), cfg)
            assert got_cell == cell
            assert abs(got_d[0] - d[0]) <= 1e-9 and abs(got_d[1] - d[1]) <= 1e-9


def test_nav_sub_policy_never_emits_interactions(agent, scene_obs):
    state, obs = scene_obs
    rng = np.random.default_rng(0)
    memo = ForwardMemo()
    for _ in range(40):
        action, point, _ = sub_policy_step(
            agent, SubGoal(Skill.GoTo, REG.id_of("Fridge")), obs, None, rng, memo=memo)
        assert action in NAV_ACTION_SPACE
        assert point is None


def test_interact_sub_policy_points_only_with_interactive_actions(agent, scene_obs):
    state, obs = scene_obs
    rng = np.random.default_rng(0)
    saw_point = False
    memo = ForwardMemo()
    for _ in range(60):
        action, point, extras = sub_policy_step(
            agent, SubGoal(Skill.Pickup, REG.id_of("Apple")), obs, None, rng, memo=memo)
        assert action in INTERACT_ACTION_SPACE
        if point is not None:
            saw_point = True
            assert 0 <= point[0] < CFG.obs_size and 0 <= point[1] < CFG.obs_size
            cell = extras["cell"]
            cx = CFG.cell_px * (cell % CFG.grid) + CFG.cell_px / 2
            cy = CFG.cell_px * (cell // CFG.grid) + CFG.cell_px / 2
            assert abs(point[0] - cx) <= CFG.cell_px / 2 + 1e-9
            assert abs(point[1] - cy) <= CFG.cell_px / 2 + 1e-9
    assert saw_point


@pytest.mark.usefixtures("float64")
def test_qa_attention_sums_to_one_and_uniform_head(agent, scene_obs):
    _, obs = scene_obs
    tokens = [2, 3, 4]
    probs = qa_answer(agent, tokens, obs)
    with T.no_grad():
        att = qa_logits(agent, [tokens], [obs])[1].data[0]
    assert abs(att.sum() - 1.0) < 1e-9
    assert abs(probs.sum() - 1.0) < 1e-9
    # zero the output head: exactly uniform 1/6
    a2 = HierarchicalAgent(np.random.default_rng(5), CFG)
    a2.qa.out2.w.data[:] = 0.0
    a2.qa.out2.b.data[:] = 0.0
    p2 = qa_answer(a2, tokens, obs)
    assert np.allclose(p2, 1.0 / len(ANSWER_SPACE))


def test_qa_attention_and_answer_sum_to_one_in_float32(agent, scene_obs):
    # each of the n softmax terms carries a few eps of relative error, and
    # summing them adds up to (n - 1) eps: bound 3 * n * eps, eps the float32
    # machine epsilon (n = 64 attention cells, 6 answers)
    _, obs = scene_obs
    probs = qa_answer(agent, [2, 3, 4], obs)
    with T.no_grad():
        att = qa_logits(agent, [[2, 3, 4]], [obs])[1].data[0]
    eps = np.finfo(np.float32).eps
    assert probs.dtype == att.dtype == np.float32
    assert abs(float(att.sum()) - 1.0) <= 3 * att.size * eps
    assert abs(float(probs.sum()) - 1.0) <= 3 * probs.size * eps


def _counting_unrolls(monkeypatch):
    """A list that gains the step count of every nn.gru_sequence unroll."""
    from gridhouse import nn

    unrolls, unroll = [], nn.gru_sequence

    def counted(cell, xs, h0):
        unrolls.append(T.as_tensor(xs).shape[0])
        return unroll(cell, xs, h0)

    monkeypatch.setattr(nn, "gru_sequence", counted)
    return unrolls


def test_a_qa_batch_sharing_one_question_runs_one_unroll(monkeypatch, scene_obs):
    from gridhouse.trainer import StepSample, _qa_loss

    _, obs = scene_obs
    qa_agent = HierarchicalAgent(np.random.default_rng(1), CFG)
    samples = [StepSample(obs=obs, family="qa", skill=int(Skill.Answer),
                          obj=CFG.num_classes, last_action=0, expert_action=0,
                          answer_tokens=[2, 3, 4, 5], answer_label=k % 6)
               for k in range(7)]
    unrolls = _counting_unrolls(monkeypatch)
    _qa_loss(qa_agent, samples).backward()
    assert unrolls == [4]
    assert qa_agent.qa.tok.table.grad is not None


def test_the_task_encoder_runs_each_distinct_row_once(monkeypatch, agent):
    enc = agent.task_enc
    a, b = [2, 3, 4], [5, 6]
    unrolls = _counting_unrolls(monkeypatch)
    codes = enc([a, b, a]).data
    assert unrolls == [3, 2]
    assert codes.shape == (3, CFG.task_dim)
    assert codes[0].tobytes() == codes[2].tobytes() != codes[1].tobytes()
    assert codes[1].tobytes() == enc([b]).data[0].tobytes()


def test_a_row_of_no_tokens_is_refused(agent):
    from gridhouse.nn import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        agent.task_enc([[2, 3], []])


def test_act_episode_deterministic_and_end_agent(agent):
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9,
                         np.random.default_rng(1))
    state = task_initial_state(task, TEMPLATES[0])
    t1 = act_episode(agent, task, state, InteractionMode.HARD,
                     np.random.default_rng(3), greedy=False, vocab=VOCAB)
    t2 = act_episode(agent, task, state, InteractionMode.HARD,
                     np.random.default_rng(3), greedy=False, vocab=VOCAB)
    assert [s.state_hash for s in t1.steps] == [s.state_hash for s in t2.steps]
    assert [s.action for s in t1.steps] == [s.action for s in t2.steps]

    # an agent that always chooses End fails with an empty interaction record
    ender = HierarchicalAgent(np.random.default_rng(7), CFG)
    ender.high.skill_head.b.data[:] = -1e9
    ender.high.skill_head.b.data[int(Skill.End)] = 1e9
    t3 = act_episode(ender, task, state, InteractionMode.HARD,
                     np.random.default_rng(0), greedy=True, vocab=VOCAB)
    assert t3.terminated == "end" and len(t3.steps) == 1
    from gridhouse.tasks import task_success
    assert not task_success(task, t3)


def test_act_episode_asks_the_qa_head_once_per_iqa_episode(monkeypatch):
    # an agent that always picks Answer: the first Answer of an IQA episode
    # gives the answer, and an episode of another family never asks
    answerer = HierarchicalAgent(np.random.default_rng(7), CFG)
    answerer.high.skill_head.b.data[:] = -1e9
    answerer.high.skill_head.b.data[int(Skill.Answer)] = 1e9
    forward, calls = answerer.qa.forward, []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(answerer.qa, "forward", counted)
    for family, qtype, template, seed in (("IQA", "existence", TEMPLATES[2], 77),
                                          ("EXIN", "pickup", TEMPLATES[0], 9)):
        task = generate_task(family, qtype, 0, template, seed, np.random.default_rng(1))
        calls.clear()
        traj = act_episode(answerer, task, task_initial_state(task, template),
                           InteractionMode.HARD, np.random.default_rng(0),
                           greedy=False, vocab=VOCAB)
        assert len(traj.steps) == task.max_steps
        assert len(calls) == (family == "IQA")
        assert (traj.answer is not None) == (family == "IQA")


def test_pointing_heatmap_channels_cover_classes(agent, scene_obs):
    _, obs = scene_obs
    cmap, planes = obs_planes([obs])
    with T.no_grad():
        z = agent.sub_encoder(cmap, planes, 1)
        cond = agent.interact.conditioning([13], [int(Skill.Pickup)], [0])
        _logits, _value, (grid_logits, mu, nu, heat) = agent.interact.forward(cond, z, heat=True)
    assert heat.shape == (1, CFG.num_classes, CFG.grid, CFG.grid)
    assert grid_logits.shape == (1, CFG.grid * CFG.grid)
    assert mu.shape == (1, 2, CFG.grid * CFG.grid)
    assert np.all(nu.data > 0)
    assert np.all((heat.data > 0) & (heat.data < 1))


def test_qa_trains_on_toy_state_questions():
    # small supervised run: is-the-fridge-open questions must exceed 90%
    # held-out accuracy
    from gridhouse import nn
    from gridhouse.agents import obs_planes as planes_of
    from gridhouse.world import Openness
    from dataclasses import replace as dc_replace

    cfg = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB))
    agent = HierarchicalAgent(np.random.default_rng(11), cfg)
    tokens = [VOCAB.get(t, 1) for t in ["is", "the", "fridge", "open"]]
    rng = np.random.default_rng(0)
    frames = []
    for seed in range(40):
        state = randomize_scene(TEMPLATES[seed % 2], 500 + seed)
        fridge = [o for o in state.objects
                  if REG[o.class_id].name == "Fridge"][0]
        want_open = bool(rng.integers(2))
        state = state.with_object(dc_replace(
            fridge, openness=Openness.OPEN if want_open else Openness.CLOSED))
        # stand right in front of the fridge so the state bit is in view
        from gridhouse.skills import _teleport_poses
        pose = _teleport_poses(state, fridge.instance_id)[0]
        state = dc_replace(state, agent=pose)
        frames.append((state.observation, "Yes" if want_open else "No"))
    train, test = frames[:30], frames[30:]
    opt = nn.Adam(agent.parameters(), lr=3e-3, clip_norm=0.0)
    for epoch in range(60):
        q = agent.qa.encode_question([tokens] * len(train))
        cmap, planes = planes_of([f for f, _ in train])
        z = agent.sub_encoder(cmap, planes, 1)
        logits, _att = agent.qa.forward(q, z)
        loss = nn.cross_entropy_rows(logits, [ANSWER_SPACE.index(a) for _, a in train])
        opt.zero_grad()
        loss.backward()
        opt.step()
    hits = 0
    for f, a in test:
        p = qa_answer(agent, tokens, f)
        hits += ANSWER_SPACE[int(np.argmax(p))] == a
    assert hits / len(test) > 0.9
