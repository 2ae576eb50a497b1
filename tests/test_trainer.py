"""Rewards, schedules, supervised and PPO updates, samplers."""

from __future__ import annotations

import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from gridhouse import nn, tensor as T
from gridhouse import trainer as TR
from gridhouse.agents import HierarchicalAgent, ModelConfig, PointingHead, encode
from gridhouse.classes import desk_registry
from gridhouse.episodes import run_expert_episode
from gridhouse.planner import ExpertStep
from gridhouse.scenes import builtin_templates
from gridhouse.skills import (SceneSession, SkillEpisode, Skill, SubGoal,
                              sample_skill_episode)
from gridhouse.tasks import (DatasetSplit, build_vocab, generate_task, remaining_fn,
                             task_initial_state)
from gridhouse.trainer import (EpisodeBatch, LossWeights, MultitaskSchedule, PPOConfig,
                               PretrainProgress, PretrainSchedule, RewardConfig,
                               compute_gae, compute_reward, epsilon_at,
                               group_by_family, multi_task_sample,
                               ppo_update, pretrain,
                               run_skill_episode, teacher_forcing_update)
from gridhouse.world import InteractionMode, PrimitiveAction, WorldConfig

from conftest import make_state

REG = desk_registry()
VOCAB = build_vocab(REG)
CFG = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB), obs_size=32)
# small: for tests where the expert acts and the model only labels
SMALL = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB), obs_size=32, d=8,
                    hidden=16, task_dim=8, token_dim=4, ctx_dim=4, cond_dim=8,
                    trunk_dim=16, point_dim=8, enc_mid=6)
TEMPLATES = builtin_templates()


# --------------------------------------------------------------------------
# rewards and schedules


APPLE = REG.id_of("Apple")


def _apple_scene(visible, config=None):
    """An Apple two cells ahead of the agent (in view) or two behind it."""
    return make_state([{"class": "Apple", "pos": (5, 6 if visible else 10)}],
                      agent_cell=(5, 8), config=config)


def _expert(action, point):
    return ExpertStep(SubGoal(Skill.Pickup, APPLE), action, point, 0)


def test_reward_all_correct_interactive_is_22_5():
    state = _apple_scene(visible=True)
    ex = _expert(PrimitiveAction.Pickup, (10.0, 20.0))
    r = compute_reward(state, PrimitiveAction.Pickup, (10.0, 20.0),
                       SubGoal(Skill.Pickup, APPLE), ex, success=True)
    assert r == 22.5


def test_reward_goto_contributes_no_point_term():
    state = _apple_scene(visible=True)
    ex = ExpertStep(SubGoal(Skill.GoTo, APPLE), PrimitiveAction.MoveAhead, None, 0)
    r = compute_reward(state, PrimitiveAction.MoveAhead, (1.0, 1.0),
                       SubGoal(Skill.GoTo, APPLE), ex, success=True)
    assert r == 22.0  # success + visible + act, no point share


def test_reward_all_zero():
    state = _apple_scene(visible=False)
    ex = _expert(PrimitiveAction.Pickup, None)
    r = compute_reward(state, PrimitiveAction.MoveAhead, None,
                       SubGoal(Skill.Pickup, APPLE), ex, success=False)
    assert r == 0.0


def test_reward_point_kernel_decays():
    # the matching Pickup earns the act term too, so only the point term
    # above w_act decays with distance, and it is at most w_point
    w_act, w_point = RewardConfig().w_act, RewardConfig().w_point
    state = _apple_scene(visible=False)
    ex = _expert(PrimitiveAction.Pickup, (10.0, 20.0))

    def reward_at(point):
        return compute_reward(state, PrimitiveAction.Pickup, point,
                              SubGoal(Skill.Pickup, APPLE), ex, success=False)

    exact = reward_at((10.0, 20.0))
    near = reward_at((10.5, 20.0))
    far = reward_at((20.0, 20.0))
    assert exact == w_act + w_point
    assert w_act < far < near < exact


def test_reward_point_kernel_is_one_world_cell_wide():
    # sigma_point is in world cells, `upsample` observation px each, at any
    # frame size: an offset of one cell at sigma_point 1 is one sigma
    state = _apple_scene(visible=False, config=WorldConfig(obs_size=48, upsample=2))
    ex = _expert(PrimitiveAction.Pickup, (10.0, 20.0))
    cfg = RewardConfig(sigma_point=1.0)
    r = compute_reward(state, PrimitiveAction.MoveAhead, (12.0, 20.0),
                       SubGoal(Skill.Pickup, APPLE), ex, success=False, cfg=cfg)
    assert r == cfg.w_point * math.exp(-0.5)


def test_epsilon_linear_exact():
    assert epsilon_at(0.0, 1.0, 0.0) == 1.0
    assert epsilon_at(0.5, 1.0, 0.0) == 0.5
    assert epsilon_at(1.0, 1.0, 0.0) == 0.0
    assert epsilon_at(1.0, 1.0, 0.6) == 0.6
    assert epsilon_at(0.25, 1.0, 0.6) == 1.0 + 0.25 * (0.6 - 1.0)


def _convention_fold(cell, xs, h0):
    """The hidden states of the GRUCell convention as written, [x, h] gates,
    folded over xs's rows in float64 numpy: the unroll without
    `nn.gru_recurrence`."""
    w = {name: p.data.astype(np.float64) for name, p in cell.named_parameters()}
    h, hs = np.asarray(h0, dtype=np.float64), []
    for x in np.asarray(xs, dtype=np.float64):
        xh = np.concatenate([x, h])
        z = 1.0 / (1.0 + np.exp(-(w["w_z"] @ xh + w["b_z"])))
        r = 1.0 / (1.0 + np.exp(-(w["w_r"] @ xh + w["b_r"])))
        cand = np.tanh(w["w_h"] @ np.concatenate([x, r * h]) + w["b_h"])
        h = (1.0 - z) * h + z * cand
        hs.append(h)
    return np.stack(hs)


@pytest.mark.usefixtures("float64")
def test_gru_sequence_matches_step_composition():
    cell = nn.GRUCell(np.random.default_rng(0), 5, 4)
    xs = np.random.default_rng(1).normal(size=(6, 5))
    h = np.zeros(4)
    seq = nn.gru_sequence(cell, xs, h).data
    np.testing.assert_allclose(seq, _convention_fold(cell, xs, h), rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# GAE and PPO invariants


def test_gae_matches_hand_reference():
    rewards = [1.0, 0.0, 2.0]
    values = [0.5, 0.4, 0.3]
    dones = [False, False, True]
    gamma, lam = 0.9, 0.8
    adv, ret = compute_gae(rewards, values, dones, gamma, lam)
    # hand rollout from the back
    d2 = 2.0 - 0.3
    a2 = d2
    d1 = 0.0 + gamma * 0.3 - 0.4
    a1 = d1 + gamma * lam * a2
    d0 = 1.0 + gamma * 0.4 - 0.5
    a0 = d0 + gamma * lam * a1
    np.testing.assert_allclose(adv, [a0, a1, a2], atol=1e-12)
    np.testing.assert_allclose(ret, np.array([a0, a1, a2]) + values, atol=1e-12)


def test_ppo_clip_formulas():
    adv = T.Tensor(np.array([2.0, -1.0]))
    ratio_big = T.Tensor(np.array([1.4, 1.4]))  # 1 + 2*clip at clip=0.2
    un = T.mul(ratio_big, adv)
    cl = T.mul(T.clip(ratio_big, 0.8, 1.2), adv)
    got = TR._elementwise_min(un, cl).data
    np.testing.assert_allclose(got, [1.2 * 2.0, 1.4 * -1.0])
    # ratio exactly 1: surrogate equals the advantage itself
    ratio_one = T.Tensor(np.ones(2))
    same = TR._elementwise_min(T.mul(ratio_one, adv), T.mul(ratio_one, adv)).data
    np.testing.assert_allclose(same, adv.data)
    # zero advantages: no policy gradient through the surrogate
    logits = T.Tensor(np.zeros((2, 3)), requires_grad=True)
    logp = nn.log_prob_rows(logits, [0, 1])
    surr = T.mean(T.mul(T.exp(logp - logp.data), np.zeros(2)))
    surr.backward()
    np.testing.assert_allclose(logits.grad, np.zeros((2, 3)))


def _collect_buffer(agent, n_steps=40, seed=0, eps=0.5):
    rng = np.random.default_rng(seed)
    session = SceneSession(TEMPLATES[:2], seed)
    buffer = []
    while len(buffer) < n_steps:
        try:
            ep = sample_skill_episode(session.state, rng)
        except Exception:
            session.reset_scene()
            continue
        samples, _, _ = run_skill_episode(agent, ep, InteractionMode.HARD, rng,
                                          eps, CFG, RewardConfig(),
                                          collect_ppo=True)
        if samples:
            TR.snapshot_behaviour(agent, samples)
            buffer.extend(samples)
        session.reset_scene()
    return buffer[:n_steps]


# tracemalloc peaks (MiB) above entry of one teacher-forcing update on 64
# expert steps, its first, which allocates the sub-policies' Adam moments,
# and of one 64-step PPO minibatch of the default model (50 nav rows, 10
# interact rows without a point and 4 with one): 34.7 and 20.4, the PPO
# minibatch 22.1 when its log-prob ran the pointing head on every interact
# row; each bound is 5% over its value.  Constructing Adam over every
# parameter allocates no moments (22.0 MiB when it allocated them all at
# once).
TF_PEAK_MIB, PPO_PEAK_MIB, NEW_ADAM_MIB = 34.7 * 1.05, 20.4 * 1.05, 1.0


def test_an_update_stays_under_its_traced_memory_peak():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    tf = _collect_buffer(agent, 64, seed=1, eps=1.0)
    ppo = _collect_buffer(agent, 64, seed=2)
    opts = []

    def peak_mib(update):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            update()
            return (tracemalloc.get_traced_memory()[1] - entry) / 2 ** 20
        finally:
            tracemalloc.stop()

    assert peak_mib(lambda: opts.append(nn.Adam(agent.parameters()))) < NEW_ADAM_MIB
    opt, = opts
    assert peak_mib(lambda: teacher_forcing_update(agent, tf, opt, CFG)) < TF_PEAK_MIB
    opt.zero_grad()
    assert peak_mib(lambda: ppo_update(agent, ppo, opt, PPOConfig(epochs=1, minibatch=64),
                                       np.random.default_rng(3))) < PPO_PEAK_MIB


@pytest.mark.usefixtures("float64")
def test_ppo_ratio_is_one_at_behavior_snapshot():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 24)
    with T.no_grad():
        logp, _, _ = TR._policy_logp_value(agent, buffer)
    old = np.array([s.logp for s in buffer])
    np.testing.assert_allclose(np.exp(logp.data - old), np.ones(len(buffer)),
                               atol=1e-12)


def test_ppo_ratio_is_one_at_behavior_snapshot_in_float32():
    # behaviour and update recompute each log-prob in float32 over different
    # batches, so they may differ by a few ulps of |logp|; allowed: 16 ulps,
    # |ratio - 1| <= 16 * eps * max(1, |logp|) with eps = finfo(float32).eps.
    # The pointing head runs on each batch's pointed interact rows only, so
    # the snapshot (one episode's rows) and the update (the whole buffer)
    # run it over different row subsets: the buffer holds interact rows
    # with a point and without one.
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 24)
    interact = [s for s in buffer if s.family == "interact"]
    assert any(s.cell >= 0 for s in interact) and any(s.cell < 0 for s in interact)
    with T.no_grad():
        logp, _, _ = TR._policy_logp_value(agent, buffer)
    assert logp.data.dtype == np.float32
    old = np.array([s.logp for s in buffer])
    bound = 16 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(old))
    assert np.all(np.abs(np.exp(logp.data - old) - 1.0) <= bound)


def _log_softmax(z):
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


@pytest.mark.usefixtures("float64")
def test_policy_logp_value_puts_each_row_in_its_sample_order():
    """Nav rows, interact rows with an executed point and interact rows
    without one, interleaved: each row's log-prob and value, and the summed
    entropy, equal a one-sample forward per row."""
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 24) + _collect_buffer(agent, 8, seed=2)
    interact = [s for s in buffer if s.family == "interact"]
    nav = [s for s in buffer if s.family == "nav"]
    assert len(interact) >= 4 and len(nav) >= 2
    for k, s in enumerate(interact[:4]):   # odd k: an executed point
        s.cell = k % CFG.grid ** 2 if k % 2 else -1
        s.delta = (0.3 - 0.2 * k, 0.1 * k)
    samples = [interact[0], nav[0], interact[1], interact[2], nav[1], interact[3]]
    with T.no_grad():
        logp, value, entropy = TR._policy_logp_value(agent, samples)
        want_logp, want_value, want_ent = [], [], 0.0
        for s in samples:
            logits, v, point_maps = TR._forward(agent, s.family, [s])
            row = _log_softmax(logits.data[0])
            lp, ent = row[s.action], -np.sum(np.exp(row) * row)
            if s.cell >= 0 and point_maps is not None:
                grid_logits, mu, nu, _ = point_maps
                grow = _log_softmax(grid_logits.data[0])
                m, var = mu.data[0, :, s.cell], nu.data[0, :, s.cell]
                lp += grow[s.cell] + np.sum(-0.5 * np.log(2 * np.pi * var)
                                            - (np.array(s.delta) - m) ** 2 / (2 * var))
                ent += -np.sum(np.exp(grow) * grow)
            want_logp.append(lp)
            want_value.append(v.data[0])
            want_ent += ent
    assert logp.data.dtype == np.float64
    np.testing.assert_allclose(logp.data, want_logp, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(value.data, want_value, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(entropy.item(), want_ent, rtol=1e-9)


def test_ppo_runs_the_pointing_head_on_the_pointed_rows_only(monkeypatch):
    # the PPO log-prob reads the pointing head only at interact rows whose
    # executed action took a point: one call, on exactly those rows in
    # sample order; an interact batch with no point and a nav batch make
    # none
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 24)
    pointed = [s for s in buffer if s.family == "interact" and s.cell >= 0]
    unpointed = [s for s in buffer if s.family == "interact" and s.cell < 0]
    nav = [s for s in buffer if s.family == "nav"]
    assert pointed and unpointed and nav
    calls, head = [], PointingHead.__call__

    def spy(self, cond, z_img, heat):
        calls.append((z_img.data.copy(), heat))
        return head(self, cond, z_img, heat)

    monkeypatch.setattr(PointingHead, "__call__", spy)
    TR._policy_logp_value(agent, buffer)
    (z_img, heat), = calls
    assert z_img.shape[0] == len(pointed) and not heat
    want = encode(agent.sub_encoder, [s.obs for s in pointed]).data
    np.testing.assert_allclose(z_img, want, rtol=1e-5, atol=1e-6)
    calls.clear()
    for batch in (unpointed, nav):
        TR._policy_logp_value(agent, batch)
    assert calls == []


def test_ppo_update_runs_and_changes_params():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 32)
    before = agent.interact.action_head.w.data.copy()
    opt = nn.Adam(agent.parameters(), lr=1e-3)
    ppo_update(agent, buffer, opt, PPOConfig(epochs=1, minibatch=16),
               np.random.default_rng(0))
    assert not np.allclose(before, agent.interact.action_head.w.data)
    with pytest.raises(TR.EmptyBuffer):
        ppo_update(agent, [], opt, PPOConfig(), np.random.default_rng(0))


# --------------------------------------------------------------------------
# supervised updates


def _expert_batch(agent, n=24, seed=3):
    rng = np.random.default_rng(seed)
    session = SceneSession(TEMPLATES[:2], seed)
    batch = []
    while len(batch) < n:
        try:
            ep = sample_skill_episode(session.state, rng)
        except Exception:
            session.reset_scene()
            continue
        samples, _, _ = run_skill_episode(agent, ep, InteractionMode.HARD,
                                          rng, 1.0, CFG)
        batch.extend(samples)
        session.reset_scene()
    return batch[:n]


def test_tf_loss_finite_and_decreases_on_fixed_batch():
    agent = HierarchicalAgent(np.random.default_rng(1), CFG)
    batch = _expert_batch(agent)
    opt = nn.Adam(agent.parameters(), lr=1e-3)
    losses = [teacher_forcing_update(agent, batch, opt, CFG) for _ in range(100)]
    assert np.isfinite(losses).all()
    assert losses[-1] < losses[0]
    assert min(losses[-10:]) < min(losses[:10])


def test_tf_update_rejects_empty_batch():
    agent = HierarchicalAgent(np.random.default_rng(1), CFG)
    opt = nn.Adam(agent.parameters())
    with pytest.raises(TR.MissingLabels):
        teacher_forcing_update(agent, [], opt, CFG)


def test_recovery_label_stream_contains_reversal_before_resume():
    # inject one wrong reversible interaction into an expert task episode;
    # the sub-goal label stream must insert the reversal before resuming
    rng = np.random.default_rng(5)
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[1], 77, rng)
    state = task_initial_state(task, TEMPLATES[1])
    from gridhouse.world import INTERACTIVE_ACTIONS, resolve_target

    injected = {}

    def intervene(t, cur, ex):
        if injected or ex.action not in INTERACTIVE_ACTIONS:
            return None
        # pick any visible wrong target for a reversible wrong action
        for iid, cells in cur.observation.visible_instance_cells().items():
            if iid == ex.target:
                continue
            o = cur.obj(iid)
            if cur.cls(o).pickupable and cur.agent.held is None:
                pt = (cells[0][0] + .5, cells[0][1] + .5)
                if resolve_target(cur, pt, InteractionMode.HARD) == iid:
                    injected["target"] = iid
                    return (PrimitiveAction.Pickup, pt)
        return None

    traj = run_expert_episode(state, remaining_fn(task), InteractionMode.HARD,
                              max_steps=task.max_steps, intervene=intervene)
    if not injected:
        pytest.skip("no injectable wrong pickup surfaced")
    subs = traj.subgoal_sequence
    put_idx = [i for i, s in enumerate(subs) if s.skill is Skill.Put]
    assert put_idx, subs
    from gridhouse.tasks import task_success
    assert task_success(task, traj)


def test_multi_task_sample_proportions_within_3_sigma():
    class Fake:
        def __init__(self, family):
            self.family = family

    counts = {"SHIF": 2739, "LHIF": 8763, "IQA": 19728, "EXIN": 2257}
    scale = 30
    episodes = []
    for fam, n in counts.items():
        episodes.extend(Fake(fam) for _ in range(max(1, round(n / scale))))
    by_family = group_by_family(episodes)
    rng = np.random.default_rng(123)
    draws = 100_000
    got = {f: 0 for f in counts}
    for _ in range(draws):
        got[multi_task_sample(by_family, rng).family] += 1
    total_paper = sum(counts.values())
    for fam, n in counts.items():
        p = n / total_paper
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(got[fam] / draws - p) < 3 * sigma, fam


def test_single_family_config_restricts_sampling():
    class Fake:
        def __init__(self, family):
            self.family = family

    episodes = [Fake("IQA")] * 5
    by_family = group_by_family(episodes)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert multi_task_sample(by_family, rng).family == "IQA"


def test_answer_skill_draws_cover_every_iqa_task_type(monkeypatch):
    from gridhouse import harness
    from gridhouse.agents import ANSWER_SPACE
    from gridhouse.tasks import TASK_TYPES, UnsatisfiableTemplate

    iqa = [t.name for t in TASK_TYPES.values() if t.family == "IQA"]
    drawn = []

    def record(family, qtype, *args, **kwargs):
        drawn.append(qtype)
        return generate_task(family, qtype, *args, **kwargs)

    # the evaluation cycles the types in their table order
    monkeypatch.setattr(harness, "generate_task", record)
    monkeypatch.setattr(harness, "qa_answer",
                        lambda *_: np.ones(len(ANSWER_SPACE)) / len(ANSWER_SPACE))
    harness.eval_answer_skill(None, TEMPLATES, VOCAB, n=len(iqa), seed=0,
                              mode=InteractionMode.HARD, registry=None, config=None)
    assert drawn == iqa

    # pre-training draws them uniformly
    def unsatisfiable(family, qtype, *args, **kwargs):
        drawn.append(qtype)
        raise UnsatisfiableTemplate(qtype)

    drawn.clear()
    monkeypatch.setattr(TR, "generate_task", unsatisfiable)
    session, rng = SceneSession(TEMPLATES[:2], 0), np.random.default_rng(0)
    for _ in range(20 * len(iqa)):
        assert TR._qa_episode_samples(session, rng, CFG, VOCAB,
                                      InteractionMode.HARD) == []
    assert set(drawn) == set(iqa)


def test_sf_rollouts_never_ask_the_qa_head(monkeypatch):
    # multi-task training reads the expert's answer label, never the agent's
    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    agent.high.skill_head.b.data[:] = -1e9
    agent.high.skill_head.b.data[int(Skill.Answer)] = 1e9
    forward, calls = agent.qa.forward, []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(agent.qa, "forward", counted)
    task = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    steps, traj = TR.run_task_episode_sf(
        agent, task, task_initial_state(task, TEMPLATES[2]), InteractionMode.HARD,
        np.random.default_rng(3), 0.0, SMALL, VOCAB)
    assert len(steps) == task.max_steps and calls == []
    assert {r.subgoal.skill for r in traj.steps} == {Skill.Answer}


def test_every_end_step_reaches_the_multitask_loss(monkeypatch):
    # the high level learns to stop only if an episode's End step is one of
    # the skill labels multitask_episode_loss trains on
    from gridhouse.tasks import build_splits, desk_split_counts, instruction_tokens

    cfg = SMALL
    agent = HierarchicalAgent(np.random.default_rng(0), cfg)
    train = {sp.name: sp for sp in build_splits(TEMPLATES, desk_split_counts(1000),
                                                seed=0, n_unseen=2)}["train"]
    by_id = {t["template_id"]: t for t in TEMPLATES}
    labels = []
    cross_entropy_rows = nn.cross_entropy_rows

    def record(logits, targets):
        labels.append(list(targets))
        return cross_entropy_rows(logits, targets)

    monkeypatch.setattr(nn, "cross_entropy_rows", record)
    rng = np.random.default_rng(0)
    tasks = [task for task in train.episodes if task.family != "IQA"]
    assert tasks
    for task in tasks:
        state = task_initial_state(task, by_id[task.scene_template_id])
        steps, traj = TR.run_task_episode_sf(agent, task, state, InteractionMode.HARD,
                                             rng, 1.0, cfg, VOCAB)
        assert traj.terminated == "end" and traj.steps[-1].subgoal.skill is Skill.End
        labels.clear()
        with T.no_grad():
            TR.multitask_episode_loss(
                agent, EpisodeBatch(instruction_tokens(task, VOCAB), steps), cfg,
                LossWeights())
        # the first cross-entropy is the high level's skill term
        assert len(labels[0]) == len(traj.steps)
        assert labels[0][-1] == int(Skill.End)


def test_rollout_and_training_feed_the_high_level_the_same_ids(monkeypatch):
    # the high level must be trained on the last-action and last-sub-goal ids
    # it is conditioned on when it rolls out: per step in an SF rollout, for
    # the whole episode in multitask_episode_loss
    from gridhouse.tasks import instruction_tokens

    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    project, gru_input = TR.ForwardMemo.context_projection, agent.high.gru_input
    by_id = {t["template_id"]: t for t in TEMPLATES}
    exin = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1))
    iqa = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    for task in (exin, iqa):
        rolled, trained = [], []

        def record_ids(memo, agent, ids):
            rolled.append(ids)
            return project(memo, agent, ids)

        def record_gru_input(z_task, z_img, *ids):
            trained.append(ids)
            return gru_input(z_task, z_img, *ids)

        with monkeypatch.context() as m:
            m.setattr(TR.ForwardMemo, "context_projection", record_ids)
            # below eps 1 the high level steps on every step, whoever acts
            steps, _traj = TR.run_task_episode_sf(
                agent, task, task_initial_state(task, by_id[task.scene_template_id]),
                InteractionMode.HARD, np.random.default_rng(3), 0.5, SMALL, VOCAB)
        with monkeypatch.context() as m:
            m.setattr(agent.high, "gru_input", record_gru_input)
            with T.no_grad():
                TR.multitask_episode_loss(
                    agent, EpisodeBatch(instruction_tokens(task, VOCAB), steps), SMALL,
                    LossWeights())
        assert len(rolled) == len(steps) and len(trained) == 1
        assert [[ids[k] for ids in rolled] for k in range(3)] == \
            [list(column) for column in trained[0]]
        # the episode starts with no previous object and later has one
        objects = trained[0][2]
        assert objects[0] == SMALL.num_classes and min(objects) < SMALL.num_classes


def test_rollout_high_level_logits_agree_with_teacher_forcing(monkeypatch):
    # the rollout projects the image block once per observation and the
    # context block once per context, and adds the two, the bias and the
    # recurrent terms each step; the teacher-forced unroll
    # takes each gate as one dot product over [context; image; h].  Only the
    # summation order differs: a gate sums K = in_dim + hidden float32
    # products, and reordering them moves it by about sqrt(K) ulps of its
    # scale.  The unroll is also read through a float64 fold of the GRUCell
    # convention, so a fault in the recurrence that rollout and
    # gru_sequence share shows too.
    from gridhouse.tasks import instruction_tokens

    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    cell, step = agent.high.gru, agent.high.rollout_step
    tol = math.sqrt(cell.in_dim + cell.hidden_dim) * np.finfo(np.float32).eps
    by_id = {t["template_id"]: t for t in TEMPLATES}
    exin = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1))
    iqa = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    for task in (exin, iqa):
        rolled = []

        def record_step(*args):
            skill_logits, obj_logits, h = step(*args)
            rolled.append((skill_logits[0], obj_logits[0]))
            return skill_logits, obj_logits, h

        with monkeypatch.context() as m:
            m.setattr(agent.high, "rollout_step", record_step)
            steps, _traj = TR.run_task_episode_sf(
                agent, task, task_initial_state(task, by_id[task.scene_template_id]),
                InteractionMode.HARD, np.random.default_rng(3), 0.5, SMALL, VOCAB)
        batch = EpisodeBatch(instruction_tokens(task, VOCAB), steps)
        with T.no_grad():
            forced = [TR.high_level_logits(agent, batch, SMALL)]
            with monkeypatch.context() as m:
                m.setattr(nn, "gru_sequence", lambda cell, xs, h0: T.Tensor(
                    _convention_fold(cell, T.as_tensor(xs).data, T.as_tensor(h0).data)))
                forced.append(TR.high_level_logits(agent, batch, SMALL))
        assert len(rolled) == len(steps) > 1
        for k in range(2):
            got = np.stack([r[k] for r in rolled])
            for want in forced:
                scale = max(1.0, float(np.abs(want[k].data).max()))
                np.testing.assert_allclose(got, want[k].data, rtol=0, atol=tol * scale)


def test_an_expert_only_rollout_runs_no_high_level_forward(monkeypatch):
    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    calls = []
    monkeypatch.setattr(TR, "high_level_step", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(type(agent.task_enc), "__call__", lambda *args: calls.append(args))
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1))
    steps, traj = TR.run_task_episode_sf(agent, task, task_initial_state(task, TEMPLATES[0]),
                                         InteractionMode.HARD, np.random.default_rng(3),
                                         1.0, SMALL, VOCAB)
    assert calls == []
    assert traj.terminated == "end" and len(steps) == len(traj.steps)
    assert [s.skill for s in steps] == [int(r.expert.subgoal.skill) for r in traj.steps]


def _expert_labelled_episodes(agent, tasks):
    """(task family, EpisodeBatch) of an eps-1 multi-task rollout per task."""
    from gridhouse.tasks import instruction_tokens

    by_id = {t["template_id"]: t for t in TEMPLATES}
    episodes = []
    for task in tasks:
        steps, _traj = TR.run_task_episode_sf(
            agent, task, task_initial_state(task, by_id[task.scene_template_id]),
            InteractionMode.HARD, np.random.default_rng(3), 1.0, SMALL, VOCAB)
        episodes.append((task.family, EpisodeBatch(instruction_tokens(task, VOCAB), steps)))
    return episodes


def test_subgoal_accuracy_groups_every_expert_step(monkeypatch):
    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    episodes = _expert_labelled_episodes(agent, (
        generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1)),
        generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))))
    labels = [s for _, ep in episodes for s in ep.steps]
    expected = {"End": sum(s.skill == Skill.End for s in labels),
                "Answer": sum(s.skill == Skill.Answer for s in labels)}
    for family, ep in episodes:
        expected[family] = sum(s.skill not in (Skill.End, Skill.Answer) for s in ep.steps)
    assert min(expected.values()) > 0
    expected["all"] = len(labels)

    acc = TR.subgoal_accuracy(agent, episodes, SMALL)
    assert {g: a["steps"] for g, a in acc.items()} == expected
    assert all(0.0 <= a["skill"] <= 1.0 for a in acc.values())
    # End and Answer carry no object; every GoTo and interaction does
    assert acc["End"]["object"] is acc["Answer"]["object"] is None
    for family, _ep in episodes:
        assert acc[family]["object_steps"] == expected[family]

    def oracle(shift):
        # one-hot logits on each step's labels, moved `shift` classes on
        def logits(agent, episode, cfg):
            skills = np.eye(len(Skill))[[(s.skill + shift) % len(Skill)
                                         for s in episode.steps]]
            objs = np.eye(cfg.num_classes)[[(s.obj + shift) % cfg.num_classes
                                            for s in episode.steps]]
            return T.Tensor(skills), T.Tensor(objs)
        return logits

    for shift, share in ((0, 1.0), (1, 0.0)):
        monkeypatch.setattr(TR, "high_level_logits", oracle(shift))
        acc = TR.subgoal_accuracy(agent, episodes, SMALL)
        for family, _ep in episodes:
            assert acc[family]["skill"] == acc[family]["object"] == share
        assert acc["End"]["skill"] == acc["Answer"]["skill"] == share
        for a in acc.values():
            assert a["full"] == a["balanced_skill"] == share
            assert a["boundary"] in (share, None)


def _one_hot_logits(skills, objs):
    """A monkeypatched `high_level_logits` whose argmax is skills(step) and
    objs(step); one column past each space holds a "no sub-goal" id."""
    def logits(agent, episode, cfg):
        return (T.Tensor(np.eye(len(Skill) + 1)[[skills(s) for s in episode.steps]]),
                T.Tensor(np.eye(cfg.num_classes + 1)[[objs(s) for s in episode.steps]]))
    return logits


def test_trivial_predictors_read_exactly_their_subgoal_floors(monkeypatch):
    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    episodes = _expert_labelled_episodes(agent, (
        generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1)),
        generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2)),
        generate_task("SHIF", "heat", 0, TEMPLATES[0], 5, np.random.default_rng(5))))
    skill_only = ("steps", "skill", "full", "balanced_skill", "boundary_steps", "boundary")

    # the skill head always picks GoTo, the object head is right
    monkeypatch.setattr(TR, "high_level_logits",
                        _one_hot_logits(lambda s: int(Skill.GoTo), lambda s: s.obj))
    acc = TR.subgoal_accuracy(agent, episodes, SMALL)
    for a in acc.values():
        floor = a["floors"]["always_goto"]
        assert {k: a[k] for k in skill_only} == {k: floor[k] for k in skill_only}
    overall = acc["all"]["floors"]
    assert 0 < overall["always_goto"]["skill"] < 1
    assert overall["always_goto"]["balanced_skill"] == \
        1 / len({s.skill for _, ep in episodes for s in ep.steps})

    # both heads copy the previous sub-goal
    monkeypatch.setattr(TR, "high_level_logits",
                        _one_hot_logits(lambda s: s.hl_last_skill, lambda s: s.hl_last_obj))
    acc = TR.subgoal_accuracy(agent, episodes, SMALL)
    for a in acc.values():
        floors = a.pop("floors")
        assert a == floors["copy_previous"]
    assert acc["all"]["boundary_steps"] > 0 and acc["all"]["boundary"] == 0.0
    assert 0 < acc["all"]["full"] < 1


# --------------------------------------------------------------------------
# pretrain driver


def test_pretrain_stage_order_and_zero_skip():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    sched = PretrainSchedule(tf_steps=40, sf_steps=0, ppo_steps=0)
    _, prog = pretrain(agent, TEMPLATES[:2], sched, CFG, seed=2, vocab=VOCAB,
                       grouping="joint", qa_fraction=0.0)
    assert prog.stage == "done"
    assert prog.steps_done["tf"] >= 40
    assert prog.steps_done["sf"] == 0 and prog.steps_done["ppo"] == 0


class _Stop(Exception):
    """Raised from on_round to stop a pretrain call, as a Ctrl-C would."""


def _assert_resume_is_exact(sched, stage, stop_at, **kw):
    """A run stopped from on_round once steps_done[stage] >= stop_at, then
    resumed with the same (progress, opt, rng, session), ends as the
    uninterrupted run on the same schedule does, bit for bit."""
    a1 = HierarchicalAgent(np.random.default_rng(0), CFG)
    _, p1 = pretrain(a1, TEMPLATES[:2], sched, CFG, seed=4, vocab=VOCAB,
                     grouping="joint", qa_fraction=0.0, **kw)

    a2 = HierarchicalAgent(np.random.default_rng(0), CFG)
    rng = np.random.default_rng(np.random.SeedSequence([4, 77]))
    session = SceneSession(TEMPLATES[:2], 4)
    opt = nn.Adam(a2.parameters(), lr=sched.lr, clip_norm=sched.grad_clip)
    p2 = PretrainProgress()

    def stop(p):
        if p.stage == stage and p.steps_done[stage] >= stop_at:
            raise _Stop

    with pytest.raises(_Stop):
        pretrain(a2, TEMPLATES[:2], sched, CFG, seed=4, vocab=VOCAB,
                 grouping="joint", qa_fraction=0.0, on_round=stop, progress=p2,
                 opt=opt, rng=rng, session=session, **kw)
    assert p2.stage == stage
    assert p2.pending   # the stop fell between two updates
    pretrain(a2, TEMPLATES[:2], sched, CFG, seed=4, vocab=VOCAB,
             grouping="joint", qa_fraction=0.0, progress=p2, opt=opt, rng=rng,
             session=session, **kw)

    assert p2.stage == p1.stage == "done"
    assert p2.steps_done == p1.steps_done and p2.episodes == p1.episodes
    for p in (p1, p2):
        assert p.pending == []
    for (n1, q1), (n2, q2) in zip(a1.named_parameters(), a2.named_parameters()):
        assert n1 == n2
        np.testing.assert_array_equal(q1.data, q2.data, err_msg=n1)


def test_pretrain_mid_stage_resume_is_exact():
    sched = PretrainSchedule(tf_steps=120, sf_steps=0, ppo_steps=0,
                           update_every=32)
    _assert_resume_is_exact(sched, "tf", 60)


def test_pretrain_resume_keeps_pending_sf_and_ppo_samples():
    sf = PretrainSchedule(tf_steps=0, sf_steps=120, ppo_steps=0, update_every=32)
    _assert_resume_is_exact(sf, "sf", 40)
    # the stop lands at 60 steps with the buffer part-filled, and the stage
    # ends at 180 steps with 80 samples, fewer than a horizon, to flush
    ppo = PretrainSchedule(tf_steps=0, sf_steps=0, ppo_steps=150)
    _assert_resume_is_exact(ppo, "ppo", 20,
                            ppo_cfg=PPOConfig(horizon=96, minibatch=16, epochs=1))


def test_train_multitask_decays_epsilon_toward_the_schedule_end(monkeypatch):
    class _Stop(Exception):
        pass

    ends = []

    def record(progress, start, end):
        ends.append(end)
        raise _Stop

    monkeypatch.setattr(TR, "epsilon_at", record)
    rng = np.random.default_rng(5)
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[1], 77, rng)
    agent = HierarchicalAgent(np.random.default_rng(1), CFG)
    by_id = {t["template_id"]: t for t in TEMPLATES}
    with pytest.raises(_Stop):
        TR.train_multitask(agent, DatasetSplit("train", [task], []), by_id,
                           MultitaskSchedule(tf_steps=0, sf_steps=10, eps_end=0.25),
                           CFG, VOCAB, episodes_per_update=2)
    assert ends == [0.25]


def test_train_multitask_trains_every_step_it_counts(monkeypatch):
    # episodes still pending when a stage ends, fewer than
    # episodes_per_update, go into one last update of that stage
    trained, counted = [], {}
    episode_loss = TR.multitask_episode_loss

    def record(agent, episode, cfg, weights):
        trained.append(len(episode.steps))
        return episode_loss(agent, episode, cfg, weights)

    monkeypatch.setattr(TR, "multitask_episode_loss", record)
    rng = np.random.default_rng(3)   # TF runs two episodes, SF three
    tasks = [generate_task("EXIN", "pickup", 0, TEMPLATES[k], 77, rng) for k in range(3)]
    by_id = {t["template_id"]: t for t in TEMPLATES}
    TR.train_multitask(HierarchicalAgent(np.random.default_rng(1), SMALL),
                       DatasetSplit("train", tasks, []), by_id,
                       MultitaskSchedule(tf_steps=15, sf_steps=40, eps_end=0.0), SMALL,
                       VOCAB, episodes_per_update=2,
                       on_round=lambda stage, steps_done: counted.update(steps_done))
    assert sum(trained) == sum(counted.values())


def test_train_multitask_computes_no_gradient_for_the_frozen_block(monkeypatch):
    class _Stop(Exception):
        pass

    agent = HierarchicalAgent(np.random.default_rng(1), SMALL)
    frozen = agent.frozen_after_pretrain()
    block = [p.data.tobytes() for p in frozen]
    trained = agent.sub_encoder.conv2.w.data.copy()
    seen = []
    adam_step = nn.Adam.step

    def step(opt):
        seen.extend((p.grad, p.requires_grad) for p in frozen)
        adam_step(opt)

    def stop(stage, steps_done):
        raise _Stop

    monkeypatch.setattr(nn.Adam, "step", step)
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[1], 77, np.random.default_rng(5))
    by_id = {t["template_id"]: t for t in TEMPLATES}
    for on_round, sf_steps in ((None, 8), (stop, 0)):
        try:
            TR.train_multitask(agent, DatasetSplit("train", [task], []), by_id,
                               MultitaskSchedule(tf_steps=8, sf_steps=sf_steps,
                                                 eps_end=0.0), SMALL, VOCAB, episodes_per_update=1, on_round=on_round)
        except _Stop:
            pass
        # restored afterwards, also when the call raises
        assert all(p.requires_grad for p in frozen)
    assert seen and all(g is None and not req for g, req in seen)
    assert [p.data.tobytes() for p in frozen] == block
    assert not np.array_equal(agent.sub_encoder.conv2.w.data, trained)


def test_pretrain_trains_every_step_it_counts(monkeypatch):
    # samples still pending when a stage ends, fewer than its update size,
    # go into one last update of that stage, PPO's included
    trained = []
    tf_update, ppo_update = TR.teacher_forcing_update, TR.ppo_update

    def record_tf(agent, samples, *args):
        trained.append(len(samples))
        return tf_update(agent, samples, *args)

    def record_ppo(agent, buffer, *args):
        trained.append(len(buffer))
        return ppo_update(agent, buffer, *args)

    monkeypatch.setattr(TR, "teacher_forcing_update", record_tf)
    monkeypatch.setattr(TR, "ppo_update", record_ppo)
    for sched, ppo_cfg in (
            (PretrainSchedule(tf_steps=40, sf_steps=40, ppo_steps=0, update_every=32),
             None),
            (PretrainSchedule(tf_steps=0, sf_steps=0, ppo_steps=150),
             PPOConfig(horizon=96, minibatch=16, epochs=1))):
        trained.clear()
        _, progress = pretrain(HierarchicalAgent(np.random.default_rng(0), CFG),
                               TEMPLATES[:2], sched, CFG, seed=4, vocab=VOCAB,
                               grouping="joint", qa_fraction=0.0, ppo_cfg=ppo_cfg)
        assert sum(trained) == sum(progress.steps_done.values())


def test_qa_fraction_leaves_the_ppo_stage_alone():
    # PPO never trains the QA head, so it draws no QA coin either
    sched = PretrainSchedule(tf_steps=0, sf_steps=0, ppo_steps=96)
    digests = set()
    for qa_fraction in (0.0, 0.5):
        agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
        pretrain(agent, TEMPLATES[:2], sched, SMALL, seed=4, vocab=VOCAB,
                 grouping="joint", qa_fraction=qa_fraction,
                 ppo_cfg=PPOConfig(horizon=96, minibatch=16, epochs=1))
        digests.add(_parameter_sha256(agent))
    assert len(digests) == 1


def test_training_keeps_parameters_gradients_and_moments_float32(monkeypatch):
    # one np.float64 scalar or array on the training path (NEP 50) would
    # turn every gradient, moment and parameter it touches into float64;
    # the run covers a clipped Adam step, a PPO update and fine-tuning
    clipped, ppo_updates = [], []
    adam_step, ppo = nn.Adam.step, TR.ppo_update

    def step(opt):
        grads = [p.grad for p in opt.params if p.grad is not None]
        clipped.append(sum(float((g * g).sum()) for g in grads) > opt.clip_norm ** 2)
        adam_step(opt)

    def counted_ppo(*a, **k):
        ppo_updates.append(1)
        return ppo(*a, **k)

    monkeypatch.setattr(nn.Adam, "step", step)
    monkeypatch.setattr(TR, "ppo_update", counted_ppo)

    def assert_float32(agent, opts):
        for name, p in agent.named_parameters():
            assert p.data.dtype == np.float32, name
            assert p.grad is None or p.grad.dtype == np.float32, name
        for opt in opts:
            assert any(m is not None for m in opt.m)
            for m, v in zip(opt.m, opt.v):
                assert (m is None) == (v is None)
                assert m is None or m.dtype == v.dtype == np.float32
            assert {a.dtype for name, a in opt.state_arrays().items()
                    if name != "_t"} == {np.dtype(np.float32)}

    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    opt, prog = _micro_pretrain(agent)
    assert prog.stage == "done" and any(clipped) and ppo_updates
    assert_float32(agent, [opt])

    n_before = len(clipped)
    opts = _micro_finetune(agent)
    assert len(clipped) > n_before
    assert_float32(agent, opts)


def _micro_pretrain(agent):
    sched = PretrainSchedule(tf_steps=32, sf_steps=32, ppo_steps=48, update_every=32)
    return pretrain(agent, TEMPLATES[:2], sched, CFG, seed=4, vocab=VOCAB,
                    grouping="joint", qa_fraction=0.0,
                    ppo_cfg=PPOConfig(horizon=48, minibatch=16, epochs=1))


def _micro_finetune(agent):
    task = generate_task("EXIN", "pickup", 0, TEMPLATES[1], 77,
                         np.random.default_rng(5))
    by_id = {t["template_id"]: t for t in TEMPLATES}
    return TR.train_multitask(agent, DatasetSplit("train", [task], []), by_id,
                              MultitaskSchedule(tf_steps=8, sf_steps=8, eps_end=0.0),
                              CFG, VOCAB,
                              episodes_per_update=1)


def _parameter_sha256(agent):
    h = hashlib.sha256()
    for name, p in agent.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


# Golden values of the micro run above.  A change that moves fixed-seed
# numerics on purpose updates them and says so in CHANGES.md.  float32
# BLAS sums can differ between BLAS builds and CPUs; these were computed
# with numpy 2.4 and scipy-openblas 0.3.31 on x86-64.
MICRO_PRETRAIN_SHA256 = "ed40b4591d8bbf8bd623046c007e7c09b9b713934055c23cb2872898c63fb1f3"
MICRO_FINETUNE_SHA256 = "cbfbe5f26b8d9dabdaf12448feaf59fcf1cc5b3ce66a5ed7574f9871663dab63"


def test_fixed_seed_training_is_bit_reproducible():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    _micro_pretrain(agent)
    assert _parameter_sha256(agent) == MICRO_PRETRAIN_SHA256
    _micro_finetune(agent)
    assert _parameter_sha256(agent) == MICRO_FINETUNE_SHA256


# The micro run's one PPO update sees nav rows only; this golden is one
# float32 update over a buffer of nav rows, interact rows with an executed
# point and interact rows without one, 2 epochs of minibatch 16.
PPO_UPDATE_SHA256 = "e6bf42c4b5cc17f7f501d1061e5885fb35c25cae5a9e1379b131597cdeda21b6"


def test_a_ppo_update_over_every_kind_of_row_is_bit_reproducible():
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    buffer = _collect_buffer(agent, 24)
    kinds = [(s.family, s.cell >= 0) for s in buffer]
    assert [kinds.count(k) for k in (("nav", False), ("interact", False),
                                     ("interact", True))] == [10, 8, 6]
    ppo_update(agent, buffer, nn.Adam(agent.parameters()), PPOConfig(epochs=2, minibatch=16),
               np.random.default_rng(0))
    assert _parameter_sha256(agent) == PPO_UPDATE_SHA256


def _qa_sample_digest():
    """SHA-256 over the Answer-skill samples of pre-training on fixed seeds:
    each sample's observation key, answer label and question tokens."""
    h = hashlib.sha256()
    session, rng = SceneSession(TEMPLATES, 3), np.random.default_rng(13)
    for _ in range(16):
        samples = TR._qa_episode_samples(session, rng, CFG, VOCAB, InteractionMode.HARD)
        h.update(repr(len(samples)).encode())
        for s in samples:
            h.update(s.obs.key)
            h.update(repr((s.answer_label, list(s.answer_tokens))).encode())
        session.reset_scene()
    return h.hexdigest()


# The QA samples read the expert replay's final frame and answer; any
# change to either moves this digest.
QA_SAMPLES_SHA256 = "3bec0aa8cdf3cec387ab99a5905445a4de14068a2896141f4fea79b13bbfa001"


def test_qa_samples_are_bit_identical_to_the_golden_digest():
    assert _qa_sample_digest() == QA_SAMPLES_SHA256


# --------------------------------------------------------------------------
# skill episodes under wrong interactions the expert cannot undo


def test_an_on_policy_ppo_collection_builds_no_heatmap_labels(monkeypatch):
    # PPO reads none; the steps it does read come out the same
    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    episode = sample_skill_episode(SceneSession(TEMPLATES[:2], 3).state,
                                   np.random.default_rng(3))
    built, heat_centers = [], TR.heat_centers
    monkeypatch.setattr(TR, "heat_centers",
                        lambda obs, cfg: built.append(obs) or heat_centers(obs, cfg))

    def steps(collect_ppo):
        samples, _, _ = run_skill_episode(agent, episode, InteractionMode.HARD,
                                          np.random.default_rng(4), 0.0, SMALL,
                                          collect_ppo=collect_ppo)
        return [(s.action, s.cell, s.delta, s.done, s.expert_action) for s in samples]

    ppo = steps(True)
    assert ppo and not built
    assert steps(False) == ppo and len(built) == len(ppo)


def _scripted_skill_episode(monkeypatch, objects, subgoal, action, wrong_iid):
    """Roll a fully on-policy skill episode whose sub-policy always applies
    `action` to instance `wrong_iid` while holding object 2."""
    state = make_state(objects, agent_cell=(5, 8), held=2)
    col, row = state.observation.visible_instance_cells()[wrong_iid][0]
    monkeypatch.setattr(TR, "sub_policy_step",
                        lambda *a, **k: (action, (col + .5, row + .5), {}))
    return run_skill_episode(None, SkillEpisode(state, subgoal, 20),
                             InteractionMode.HARD, np.random.default_rng(0),
                             0.0, CFG, collect_ppo=True)


def test_skill_episode_put_into_another_plate_succeeds(monkeypatch):
    # the expert pins plate 0; a Put into plate 1 hides the apple, which
    # no Pickup can undo, yet it completes Put(Plate): success, not a raise
    objects = [{"class": "Plate", "pos": (4, 7)}, {"class": "Plate", "pos": (6, 7)},
               {"class": "Apple", "pos": None}]
    samples, success, final = _scripted_skill_episode(
        monkeypatch, objects, SubGoal(Skill.Put, REG.id_of("Plate")),
        PrimitiveAction.Put, 1)
    assert success and len(samples) == 1 and samples[0].done
    assert samples[0].expert_action == TR.INTERACT_INDEX[PrimitiveAction.Put]
    assert final.obj(2).container == 1


def test_skill_episode_ends_after_a_wrong_interaction_it_cannot_undo(monkeypatch):
    # a Put into a Plate under Put(Bowl), and a Slice of a Tomato under
    # Slice(Bread), end the episode unsuccessfully after that one step
    put = [{"class": "Bowl", "pos": (4, 7)}, {"class": "Plate", "pos": (6, 7)},
           {"class": "Apple", "pos": None}]
    sliced = [{"class": "Bread", "pos": (4, 7)}, {"class": "Tomato", "pos": (6, 7)},
              {"class": "Knife", "pos": None}]
    for objects, subgoal, action, happened in (
            (put, SubGoal(Skill.Put, REG.id_of("Bowl")), PrimitiveAction.Put,
             lambda s: s.obj(2).container == 1),
            (sliced, SubGoal(Skill.Slice, REG.id_of("Bread")), PrimitiveAction.Slice,
             lambda s: s.obj(1).sliced)):
        samples, success, final = _scripted_skill_episode(
            monkeypatch, objects, subgoal, action, 1)
        assert not success and len(samples) == 1 and samples[0].done
        assert happened(final)


# --------------------------------------------------------------------------
# each distinct observation is encoded once per batch


def _spy_encoders(monkeypatch):
    """(encoder, batch size, output) of every GridEncoder forward from now on."""
    from gridhouse.agents import GridEncoder

    calls, forward = [], GridEncoder.__call__

    def spy(self, class_maps, planes, block):
        out = forward(self, class_maps, planes, block)
        calls.append((self, len(class_maps), out))
        return out

    monkeypatch.setattr(GridEncoder, "__call__", spy)
    return calls


def _distinct(samples):
    return len({s.obs.key for s in samples})


def _with_repeats(batch):
    """The batch and a copy of every third step, each with another last
    action: rows that share their observation and differ in their ids."""
    repeats = [copy.copy(s) for s in batch[::3]]
    for s in repeats:
        s.last_action = (s.last_action + 1) % TR.NONE_ACTION
    return batch + repeats


def _iqa_episode(agent, cfg):
    """An expert IQA episode, which repeats its Answer step to the budget."""
    from gridhouse.tasks import instruction_tokens

    task = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    state = task_initial_state(task, TEMPLATES[2])
    steps, _traj = TR.run_task_episode_sf(agent, task, state, InteractionMode.HARD,
                                          np.random.default_rng(3), 1.0, cfg, VOCAB)
    return EpisodeBatch(instruction_tokens(task, VOCAB), steps)


class _KeepGradients:
    """An optimizer that moves nothing: each step keeps a copy of every
    parameter's gradient (None where it has none)."""

    def __init__(self, params):
        self.params, self.grads = params, []

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.grads.append([None if p.grad is None else p.grad.copy() for p in self.params])


def test_each_batch_encodes_its_distinct_observations_once(monkeypatch):
    from gridhouse.agents import qa_logits

    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    opt = _KeepGradients(agent.parameters())
    tf = _with_repeats(_expert_batch(agent, n=24))
    ppo = _collect_buffer(agent, 48, seed=2, eps=0.0)
    small = HierarchicalAgent(np.random.default_rng(0), SMALL)
    episode = _iqa_episode(small, SMALL)
    families = [[s for s in batch if s.family == f] for batch in (tf, ppo)
                for f in ("interact", "nav")]
    assert all(_distinct(b) < len(b) for b in (tf, ppo, episode.steps))
    calls = _spy_encoders(monkeypatch)

    teacher_forcing_update(agent, tf, opt, CFG)
    ppo_update(agent, ppo, opt, PPOConfig(epochs=1, minibatch=len(ppo)),
               np.random.default_rng(0))
    assert [n for _, n, _ in calls] == [_distinct(b) for b in families if b]
    assert all(enc is agent.sub_encoder for enc, _, _ in calls)

    calls.clear()
    TR.multitask_episode_loss(small, episode, SMALL, LossWeights())
    by_family = [[s for s in episode.steps if s.family == f] for f in ("interact", "nav", "qa")]
    assert [(enc, n) for enc, n, _ in calls] == \
        [(small.hl_encoder, _distinct(episode.steps))] + \
        [(small.sub_encoder, _distinct(b)) for b in by_family if b]

    calls.clear()
    frames = [s.obs for s in tf[:3]]
    qa_logits(agent, [[1, 2]] * 5, frames + frames[:2])
    assert [n for _, n, _ in calls] == [len({o.key for o in frames})]


def test_encode_gathers_only_a_batch_with_repeats(monkeypatch):
    # every row is its observation's encoding; a batch of distinct
    # observations is the encoder's output itself, no gather node
    from dataclasses import replace

    from gridhouse.agents import encode

    agent = HierarchicalAgent(np.random.default_rng(0), SMALL)
    enc = agent.sub_encoder
    a = make_state([{"class": "Apple", "pos": (5, 6)}]).observation
    # b differs from a in its state bits alone
    b = replace(a, state_bits=a.state_bits ^ np.uint8(1))
    c = _apple_scene(False).observation
    alone = {o.key: encode(enc, [o]).data for o in (a, b, c)}
    assert len(alone) == 3
    calls = _spy_encoders(monkeypatch)

    z = encode(enc, [a, b, c])
    assert [n for _, n, _ in calls] == [3] and z is calls[0][2]

    calls.clear()
    batch = [b, a, b, c, a, b]
    firsts = [b.key, a.key, c.key]
    z = encode(enc, batch)
    assert [n for _, n, _ in calls] == [3] and z._parents == (calls[0][2],)
    assert z.shape == (6, SMALL.d, SMALL.grid, SMALL.grid)
    # the gather copies rows; the distinct batch's rows match each
    # observation encoded alone up to BLAS row blocking
    for row, obs in zip(z.data, batch):
        np.testing.assert_array_equal(row, calls[0][2].data[firsts.index(obs.key)])
        np.testing.assert_allclose(row, alone[obs.key][0], rtol=0,
                                   atol=4 * np.finfo(np.float32).eps * np.abs(row).max())


def test_only_the_supervised_loss_runs_the_heatmap_head(monkeypatch):
    # rollouts, the behaviour snapshot and the PPO log-probabilities read no
    # heatmap; the supervised sub-policy loss runs the head on every row
    agent = HierarchicalAgent(np.random.default_rng(0), CFG)
    pointing, rows = agent.interact.pointing, []
    head = pointing.heat_head
    monkeypatch.setattr(pointing, "heat_head", lambda x: rows.append(x.shape[0]) or head(x))
    buffer = _collect_buffer(agent, 24)
    assert any(s.family == "interact" for s in buffer)
    TR._policy_logp_value(agent, buffer)
    assert rows == []
    batch = [s for s in _expert_batch(agent) if s.family == "interact"]
    TR._sub_loss(agent, "interact", batch, CFG, LossWeights())
    assert rows == [len(batch)]


def test_encode_refuses_a_batch_of_mixed_block_sizes():
    # a rendered observation is read at its 2x2 squares, a hand-built one
    # at every pixel: one batch cannot hold both
    from dataclasses import replace

    from gridhouse.agents import encode

    enc = HierarchicalAgent(np.random.default_rng(0), SMALL).sub_encoder
    a = make_state([{"class": "Apple", "pos": (5, 6)}]).observation
    b = _apple_scene(False).observation
    assert a.block == b.block == 2
    encode(enc, [a, b])
    with pytest.raises(ValueError, match="one block size"):
        encode(enc, [a, replace(b, block=1)])


def _encode_every_row(encoder, obs_batch):
    """The undeduplicated encode: the encoder over every row of the batch,
    at the block `encode` reads it at."""
    from gridhouse.agents import obs_planes

    block = math.gcd(obs_batch[0].block, encoder.conv1.stride)
    return encoder(*obs_planes(obs_batch, block), block)


@pytest.mark.parametrize("update", ["tf", "ppo", "multitask"])
def test_deduplicated_updates_match_the_every_row_composition(monkeypatch, update):
    # the encoders' weight gradients sum the repeated rows' gradients first
    # and then the distinct rows, where encoding every row sums every row in
    # one GEMM; each loss and parameter gradient agrees within sqrt(terms) *
    # eps of the largest magnitude among them, terms the rows the first
    # layer's weight gradient sums (batch * 16 * 16 output cells)
    from gridhouse import agents

    if update == "multitask":
        cfg = SMALL
        agent = HierarchicalAgent(np.random.default_rng(0), cfg)
        episode = _iqa_episode(agent, cfg)
        rows = len(episode.steps)

        def run(opt):
            loss = TR.multitask_episode_loss(agent, episode, cfg, LossWeights())
            opt.zero_grad()
            loss.backward()
            opt.step()
            return loss.item()
    else:
        agent = HierarchicalAgent(np.random.default_rng(0), CFG)
        if update == "tf":
            batch = _with_repeats(_expert_batch(agent, n=24))

            def run(opt):
                return teacher_forcing_update(agent, batch, opt, CFG)
        else:
            batch = _collect_buffer(agent, 48, seed=2, eps=0.0)

            def run(opt):
                return ppo_update(agent, batch, opt, PPOConfig(epochs=1, minibatch=len(batch)),
                                  np.random.default_rng(0))
        assert _distinct(batch) < len(batch)
        rows = len(batch)

    def grads():
        opt = _KeepGradients(agent.parameters())
        loss = run(opt)
        assert len(opt.grads) == 1
        return loss, opt.grads[0]

    got_loss, got = grads()
    with monkeypatch.context() as m:
        m.setattr(agents, "encode", _encode_every_row)
        m.setattr(TR, "encode", _encode_every_row)
        want_loss, want = grads()
    assert [g is None for g in got] == [w is None for w in want]
    scale = max([abs(want_loss)] + [float(np.abs(w).max()) for w in want if w is not None])
    atol = math.sqrt(rows * 16 * 16) * np.finfo(np.float32).eps * scale
    assert abs(got_loss - want_loss) <= atol
    for g, w in zip(got, want):
        if w is not None:
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, w, rtol=0, atol=atol)
