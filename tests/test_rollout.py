"""The one step loop and the rollouts built on it."""

from __future__ import annotations

import hashlib

import numpy as np

from gridhouse import agents, episodes, harness, trainer as TR, world as W
from gridhouse.agents import ForwardMemo, HierarchicalAgent, ModelConfig
from gridhouse.episodes import rollout, run_expert_episode
from gridhouse.harness import act_episode, run_skill_episode_policy
from gridhouse.planner import (ExpertController, ExpertStep, Irrecoverable,
                               single_subgoal_stream)
from gridhouse.scenes import builtin_templates
from gridhouse.skills import (PRETRAIN_SKILLS, SceneSession, Skill, SubGoal,
                              sample_skill_episode, skill_success)
from gridhouse.tasks import build_vocab, generate_task, remaining_fn, task_initial_state
from gridhouse.world import (INTERACTIVE_ACTIONS, InteractionMode, PrimitiveAction,
                             state_hash)

from conftest import REG, make_state

VOCAB = build_vocab(REG)
TEMPLATES = builtin_templates()
HARD = InteractionMode.HARD
# full-size observations and pointing grid, narrow layers: every head runs
SMALL = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB), obs_size=32, d=8,
                    hidden=16, task_dim=8, token_dim=4, ctx_dim=4, cond_dim=8,
                    trunk_dim=16, point_dim=8, enc_mid=6)


# --------------------------------------------------------------------------
# the step loop, scripted


A = PrimitiveAction
GOTO = SubGoal(Skill.GoTo, REG.id_of("Plate"))
SLICE_BREAD = SubGoal(Skill.Slice, REG.id_of("Bread"))
END = SubGoal(Skill.End)


def _plates():
    """Plates 0 and 1 in view, apple 2 in hand."""
    return make_state([{"class": "Plate", "pos": (4, 7)}, {"class": "Plate", "pos": (6, 7)},
                       {"class": "Apple", "pos": None}], agent_cell=(5, 8), held=2)


def _script(moves):
    """decide() playing (subgoal, action, point, ends) moves in order."""
    def decide(traj, state, ex):
        return moves[len(traj.steps)]
    return decide


class _Expert:
    """Controller stand-in labelling RotateLeft under End; expert_action
    raises Irrecoverable once `fail_at` steps have been observed."""

    def __init__(self, fail_at):
        self.fail_at, self.observed = fail_at, 0

    def expert_action(self, state):
        if self.observed == self.fail_at:
            raise Irrecoverable("scripted")
        return ExpertStep(END, A.RotateLeft, None, None)

    def observe(self, state, action, res, new_state, ex):
        self.observed += 1


def test_rollout_runs_to_the_budget_and_records_every_successor():
    state = _plates()
    turns = [(GOTO, A.RotateLeft, None, False), (GOTO, A.RotateLeft, None, False),
             (END, A.RotateRight, None, False), (GOTO, A.MoveAhead, None, False)]
    traj = rollout(state, _script(turns), HARD, 4)
    assert traj.terminated == "budget" and len(traj.steps) == 4
    assert [r.t for r in traj.steps] == [0, 1, 2, 3]
    assert [r.action for r in traj.steps] == [m[1] for m in turns]
    assert traj.steps[0].after.agent.heading != state.agent.heading
    assert traj.final_state is traj.steps[-1].after
    for r in traj.steps:
        assert r.expert is None and r.success
        assert r.state_hash == state_hash(r.after)
    assert traj.subgoal_sequence == [GOTO, END, GOTO]


def test_rollout_ends_where_decide_says():
    moves = [(GOTO, A.RotateLeft, None, False), (END, A.Done, None, True),
             (GOTO, A.RotateLeft, None, False)]
    traj = rollout(_plates(), _script(moves), HARD, 10)
    assert traj.terminated == "end" and len(traj.steps) == 2
    assert traj.final_state is traj.steps[-1].after


def test_rollout_success_is_not_observed():
    # success also outranks the `ends` the script sets
    state = _plates()
    expert = _Expert(fail_at=None)
    traj = rollout(state, _script([(END, A.RotateLeft, None, True)] * 3), HARD, 3, expert,
                   succeeded=lambda s: s.agent.heading != state.agent.heading)
    assert traj.terminated == "success" and len(traj.steps) == 1
    assert expert.observed == 0
    assert traj.steps[0].expert == ExpertStep(END, A.RotateLeft, None, None)
    assert traj.final_state is traj.steps[0].after


def test_rollout_irrecoverable_label_keeps_the_current_state():
    state = _plates()
    moves = [(GOTO, A.RotateLeft, None, False)] * 5
    traj = rollout(state, _script(moves), HARD, 5, _Expert(fail_at=0))
    assert traj.terminated == "irrecoverable" and traj.steps == []
    assert traj.final_state is state
    traj = rollout(state, _script(moves), HARD, 5, _Expert(fail_at=2))
    assert traj.terminated == "irrecoverable" and len(traj.steps) == 2
    assert traj.final_state is traj.steps[-1].after


def _slice_bread_1(check_success):
    """Slice bread 1 with the knife in hand while a real controller serves
    Slice(Bread) and pins bread 0."""
    state = make_state([{"class": "Bread", "pos": (4, 7)}, {"class": "Bread", "pos": (6, 7)},
                        {"class": "Knife", "pos": None}], agent_cell=(5, 8), held=2)
    col, row = state.observation.visible_instance_cells()[1][0]
    controller = ExpertController(single_subgoal_stream(SLICE_BREAD, state), HARD)
    succeeded = (lambda s: skill_success(SLICE_BREAD, state, s)) if check_success else None
    moves = [(SLICE_BREAD, A.Slice, (col + .5, row + .5), False)]
    traj = rollout(state, _script(moves), HARD, 5, controller, succeeded)
    assert traj.steps[0].expert.target == 0 and traj.steps[0].target == 1
    assert traj.final_state is traj.steps[0].after and traj.final_state.obj(1).sliced
    return traj


def test_a_wrong_interaction_that_completes_the_skill_ends_as_success():
    # no slice can be undone, yet this one completes Slice(Bread): the
    # controller never sees it, so it cannot raise
    traj = _slice_bread_1(check_success=True)
    assert traj.terminated == "success" and len(traj.steps) == 1


def test_a_rejected_step_ends_irrecoverable_on_its_successor():
    traj = _slice_bread_1(check_success=False)
    assert traj.terminated == "irrecoverable" and len(traj.steps) == 1


def test_both_skill_runners_end_on_the_step_that_completes_the_skill(monkeypatch):
    # evaluation ends a skill episode as pre-training does: Done is an
    # ordinary step, and the step that completes the skill ends the episode
    session, rng = SceneSession(TEMPLATES[:2], 5), np.random.default_rng(6)
    for skill in (Skill.GoTo, Skill.Pickup):
        episode = sample_skill_episode(session.state, rng, skills=(skill,))
        sub, start = episode.subgoal, episode.initial_state
        expert = run_expert_episode(start, single_subgoal_stream(sub, start), HARD,
                                    max_steps=episode.max_steps)
        done_at = next(k for k, r in enumerate(expert.steps)
                       if skill_success(sub, start, r.after))
        plays = [(A.Done, None)] + [(r.action, r.point) for r in expert.steps[:done_at + 1]]
        calls = []

        def play(agent, subgoal, obs, last_action, rng, greedy=False, *, memo):
            calls.append(subgoal)
            action, point = plays[min(len(calls), len(plays)) - 1]
            return action, point, {}

        monkeypatch.setattr(harness, "sub_policy_step", play)
        assert run_skill_episode_policy(None, episode, HARD, rng)
        assert len(calls) == len(plays)
        samples, success, _ = TR.run_skill_episode(None, episode, HARD, rng, 1.0, SMALL)
        assert success and len(samples) == done_at + 1


# --------------------------------------------------------------------------
# renders


def _count_renders(monkeypatch):
    """The states `world.render` is called on, in call order."""
    rendered = []
    real = W.render

    def render(state):
        rendered.append(state)
        return real(state)

    monkeypatch.setattr(W, "render", render)
    return rendered


def _golden_tasks():
    exin = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1))
    iqa = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    return [(exin, TEMPLATES[0]), (iqa, TEMPLATES[2])]


def test_the_expert_renders_only_to_interact(monkeypatch):
    # the expert reads the observation only to aim an interaction, and the
    # step it labels reuses that render
    rendered = _count_renders(monkeypatch)
    for task, template in _golden_tasks():
        del rendered[:]
        traj = run_expert_episode(task_initial_state(task, template), remaining_fn(task),
                                  HARD, max_steps=task.max_steps,
                                  expected_answer=task.answer)
        interactive = sum(r.action in INTERACTIVE_ACTIONS for r in traj.steps)
        assert len(rendered) <= interactive < len(traj.steps)


def test_an_agent_rollout_renders_every_state_it_decides_on(monkeypatch):
    rendered = _count_renders(monkeypatch)
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    for task, template in _golden_tasks():
        state = task_initial_state(task, template)
        for traj in (act_episode(agent, task, state, HARD, np.random.default_rng(3),
                                 greedy=False, vocab=VOCAB),
                     TR.run_task_episode_sf(agent, task, state, HARD,
                                            np.random.default_rng(4), 0.5, SMALL,
                                            VOCAB)[1]):
            decided = [state] + [r.after for r in traj.steps[:-1]]
            # a Done step hands its successor the observation it keeps
            assert all("observation" in s.__dict__ for s in decided)
    assert rendered


# --------------------------------------------------------------------------
# golden rollouts


def _num(v):
    if v is None:
        return None
    if isinstance(v, (tuple, list)):
        return tuple(_num(x) for x in v)
    return float(v)


def _digest(feed):
    """SHA-256 over the repr of every argument tuple `feed(put)` puts."""
    h = hashlib.sha256()
    feed(lambda *xs: h.update(repr(xs).encode()))
    return h.hexdigest()


def _put_traj(put, traj):
    for r in traj.steps:
        put(r.t, r.subgoal, r.action.name, _num(r.point), r.success, r.reason,
            r.target, r.state_hash)
    put(traj.terminated, traj.answer, state_hash(traj.final_state))


def _put_samples(put, samples):
    for s in samples:
        put(s.family, s.skill, s.obj, s.last_action, s.expert_action,
            s.expert_cell >= 0, s.expert_cell, _num(s.expert_delta),
            [(c, _num(xy), _num(r)) for c, xy, r in s.centers],
            s.action, s.cell, _num(s.delta), _num(s.reward), s.done,
            s.hl_last_skill, SMALL.num_classes if s.hl_last_obj < 0 else s.hl_last_obj,
            s.answer_tokens, s.answer_label)


def _skill_episodes():
    """Eight sampled skill episodes, GoTo every fourth, on fixed seeds."""
    session = SceneSession(TEMPLATES[:2], 5)
    rng = np.random.default_rng(6)
    interact = tuple(s for s in PRETRAIN_SKILLS if s is not Skill.GoTo)
    episodes = []
    for k in range(8):
        episodes.append(sample_skill_episode(session.state, rng,
                                             skills=interact if k % 4 else (Skill.GoTo,)))
        session.reset_scene()
    return episodes


def _rollout_digests():
    """{runner: SHA-256 over what it records on fixed seeds}: actions,
    points, step results, state hashes, training labels, rewards, answers
    and endings.  Each runner draws from an rng of its own, so a change to
    one runner moves only its digest."""
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    tasks = _golden_tasks()
    skill_episodes = _skill_episodes()

    def act(put):
        for task, template in tasks:
            state = task_initial_state(task, template)
            for greedy in (True, False):
                _put_traj(put, act_episode(agent, task, state, HARD,
                                           np.random.default_rng(3), greedy=greedy,
                                           vocab=VOCAB))

    def task_sf(put):
        for task, template in tasks:
            state = task_initial_state(task, template)
            rng = np.random.default_rng(4)
            for eps in (0.5, 0.5, 0.5, 1.0):
                samples, traj = TR.run_task_episode_sf(agent, task, state, HARD, rng,
                                                       eps, SMALL, VOCAB)
                _put_samples(put, samples)
                put(traj.answer, state_hash(traj.final_state))

    def skill(put):
        rng = np.random.default_rng(8)
        for episode in skill_episodes:
            samples, success, final = TR.run_skill_episode(
                agent, episode, HARD, rng, 0.5, SMALL, collect_ppo=True)
            _put_samples(put, samples)
            put(success, state_hash(final))

    def skill_policy(put):
        rng = np.random.default_rng(9)
        for episode in skill_episodes:
            for greedy in (True, False):
                put(run_skill_episode_policy(agent, episode, HARD, rng, greedy=greedy))

    def expert(put, intervened):
        actions = sorted(INTERACTIVE_ACTIONS)
        for task, template in tasks:
            rng = np.random.default_rng(7)

            def intervene(t, cur, ex):
                visible = sorted(cur.observation.visible_instance_cells().items())
                if rng.random() >= 0.3 or not visible:
                    return None
                _iid, cells = visible[int(rng.integers(len(visible)))]
                col, row = cells[int(rng.integers(len(cells)))]
                return actions[int(rng.integers(len(actions)))], (col + .5, row + .5)

            _put_traj(put, run_expert_episode(task_initial_state(task, template),
                                              remaining_fn(task), HARD,
                                              max_steps=task.max_steps,
                                              expected_answer=task.answer,
                                              intervene=intervene if intervened else None))

    return {name: _digest(feed) for name, feed in (
        ("act_episode", act), ("run_task_episode_sf", task_sf),
        ("run_skill_episode", skill), ("run_skill_episode_policy", skill_policy),
        ("run_expert_episode", lambda put: expert(put, False)),
        ("run_expert_episode+intervene", lambda put: expert(put, True)))}


# One digest per rollout runner; a change that moves a runner's numerics or
# rng draws on purpose updates that runner's digest and says so in
# CHANGES.md.  Same BLAS caveat as the training goldens in test_trainer.py.
ROLLOUT_SHA256 = {
    "act_episode": "dd90c374dcd3034d73736b59c8c4e2c59fe8c42aa7db867f459907747110e9c7",
    "run_task_episode_sf": "a07868c40c0dfc8b21ebbd206de7d44bb08588da59ca22e04725c1015f2b1be6",
    "run_skill_episode": "d3faabd2c38572854f147b038ea381602ac2e2d95cf76d46383cf09c13a13498",
    "run_skill_episode_policy":
        "8b585683aeeeaab64dcc85221585f6ab7679d8760ec7922867c36c84d2d1fab5",
    "run_expert_episode": "a7f2021f51db822b3a8c352d8ad1c14c8ce2e91bbe0e9317ac52df7f0cb8ca09",
    "run_expert_episode+intervene":
        "2215cc2108486e8eda408e946f5c518c66e25d29b10798e10a5dc677aad871d0",
}


def test_rollouts_are_bit_identical_to_the_golden_digest():
    assert _rollout_digests() == ROLLOUT_SHA256


# --------------------------------------------------------------------------
# the per-episode forward memo


class _NeverHits(ForwardMemo):
    """A memo that forgets before every lookup, so every step runs its
    forwards."""

    def image_projection(self, agent, obs):
        self.images.clear()
        return super().image_projection(agent, obs)

    def context_projection(self, agent, key):
        self.contexts.clear()
        return super().context_projection(agent, key)

    def sub_policy(self, agent, *args):
        self.subs.clear()
        return super().sub_policy(agent, *args)


def _never_hit(monkeypatch):
    monkeypatch.setattr(harness, "ForwardMemo", _NeverHits)
    monkeypatch.setattr(TR, "ForwardMemo", _NeverHits)


def _leave_states_unchanged(monkeypatch):
    """Every step leaves the state, and so its observation, as it was."""
    real_step = episodes.step
    monkeypatch.setattr(episodes, "step", lambda state, *a: (state, real_step(state, *a)[1]))


def _forward_keys(state, traj):
    """The memo keys of a greedy `act_episode` from `state`: the key of the
    observation each step decided on, the ids of each step's last action
    and previous sub-goal, and for the steps that run a sub-policy its
    family and ids."""
    decided = [state] + [r.after for r in traj.steps[:-1]]
    obs = [s.observation.key for s in decided]
    context, sub = [], []
    for t, (o, r) in enumerate(zip(obs, traj.steps)):
        prev = traj.steps[t - 1] if t else None
        last = None if prev is None else prev.action
        context.append((agents.action_id(last),
                        *agents.subgoal_ids(SMALL, None if prev is None else prev.subgoal)))
        family = agents.SKILL_FAMILY[r.subgoal.skill]
        if family in ("nav", "interact"):
            sub.append((o, family, agents.action_id(last),
                        *agents.subgoal_ids(SMALL, r.subgoal)))
    return obs, context, sub


def test_act_episode_runs_each_forward_once_per_distinct_input(monkeypatch):
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    # zeroed action heads: the greedy sub-policies repeat their first action
    for sub in (agent.nav, agent.interact):
        sub.action_head.w.data[...] = 0
        sub.action_head.b.data[...] = 0
    encodes, projections, contexts, forwards = [], [], [], []
    encode, forward = type(agent.hl_encoder).__call__, agents.sub_policy_forward
    project, context = type(agent.high).image_projection, type(agent.high).context

    def counted_encode(self, *planes):
        encodes.append(self is agent.hl_encoder)
        return encode(self, *planes)

    def counted_projection(self, z_img):
        projections.append(1)
        return project(self, z_img)

    def counted_context(self, *args):
        contexts.append(1)
        return context(self, *args)

    def counted_forward(*args):
        forwards.append(1)
        return forward(*args)

    monkeypatch.setattr(type(agent.hl_encoder), "__call__", counted_encode)
    monkeypatch.setattr(type(agent.high), "image_projection", counted_projection)
    monkeypatch.setattr(type(agent.high), "context", counted_context)
    monkeypatch.setattr(agents, "sub_policy_forward", counted_forward)
    for unchanged in (False, True):
        if unchanged:
            _leave_states_unchanged(monkeypatch)
        for task, template in _golden_tasks():
            del encodes[:], projections[:], contexts[:], forwards[:]
            state = task_initial_state(task, template)
            traj = act_episode(agent, task, state, HARD, np.random.default_rng(3),
                               greedy=True, vocab=VOCAB)
            hl_keys, context_keys, sub_keys = _forward_keys(state, traj)
            # the image feature and its gate projections: once per distinct
            # observation in the episode
            assert sum(encodes) == len(projections) == len(set(hl_keys))
            # the context and its gate projections: once per distinct last
            # action and previous sub-goal in the episode
            assert len(contexts) == len(set(context_keys)) < len(traj.steps)
            assert sum(forwards) == len(set(sub_keys))
            if unchanged:
                assert sum(encodes) == len(projections) == 1 < len(traj.steps)
                assert 0 < sum(forwards) < len(sub_keys)


def test_a_memo_reuses_the_forwards_of_an_observation_rendered_again():
    # four turns come back to the maps they started from, in another
    # observation object
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    start = turned = _plates()
    for _ in range(4):
        turned = W.step(turned, A.RotateRight, None, HARD)[0]
    again = turned.observation
    assert again is not start.observation and again.key == start.observation.key
    memo = ForwardMemo()
    image = memo.image_projection(agent, start.observation)
    nav = memo.sub_policy(agent, "nav", start.observation, agents.NONE_ACTION, 0, 0)
    assert memo.image_projection(agent, again) is image
    assert memo.sub_policy(agent, "nav", again, agents.NONE_ACTION, 0, 0) is nav
    assert memo.sub_policy(agent, "nav", again, 0, 0, 0) is not nav


def test_a_memo_projects_the_context_of_its_own_task_encoding():
    # the context projections read the task encoding the memo was built
    # with, so each episode's memo holds only its own
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    ids = (agents.NONE_ACTION, *agents.subgoal_ids(SMALL, None))
    projections = []
    for tokens in ([2, 5], [7, 3, 4]):
        z_task = agent.task_enc([tokens])
        memo = ForwardMemo(z_task)
        first = memo.context_projection(agent, ids)
        assert memo.context_projection(agent, ids) is first
        want = agent.high.context_projection(z_task, *([i] for i in ids))
        for got, w in zip(first, want):
            np.testing.assert_array_equal(got, w)
        projections.append(first)
    assert not np.array_equal(projections[0][0], projections[1][0])


def test_memo_hits_leave_every_trajectory_as_it_was(monkeypatch):
    # the golden runs, greedy task episodes with and without state changes
    # and on-policy skill episodes that never change their state give the
    # same records, and every high-level step the same logits and hidden
    # state, when no step may reuse a forward
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    skill_episodes = _skill_episodes()
    step = agent.high.rollout_step

    def memo_digest(put):
        def put_step(*args):
            out = step(*args)
            put(*(x.tobytes() for x in out))
            return out

        with monkeypatch.context() as m:
            m.setattr(agent.high, "rollout_step", put_step)
            for unchanged in (False, True):
                if unchanged:
                    _leave_states_unchanged(m)
                for task, template in _golden_tasks():
                    _put_traj(put, act_episode(agent, task, task_initial_state(task, template),
                                               HARD, np.random.default_rng(3), greedy=True,
                                               vocab=VOCAB))
            rng = np.random.default_rng(8)
            for episode in skill_episodes:
                _put_samples(put, TR.run_skill_episode(agent, episode, HARD, rng, 0.0,
                                                       SMALL, collect_ppo=True)[0])

    with_memo = _digest(memo_digest)
    _never_hit(monkeypatch)
    assert _digest(memo_digest) == with_memo
    assert _rollout_digests() == ROLLOUT_SHA256


def test_evaluate_gives_a_failure_reason_for_every_failure_and_none_for_a_success(
        monkeypatch):
    from gridhouse.tasks import DatasetSplit, build_splits, desk_split_counts
    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    splits = build_splits(TEMPLATES, desk_split_counts(3000), seed=0, n_unseen=2)
    split = DatasetSplit("mixed", [t for s in splits[1:] for t in s.episodes], [])
    by_id = {t["template_id"]: t for t in TEMPLATES}
    trajs, real = [], harness.act_episode
    monkeypatch.setattr(harness, "act_episode",
                        lambda *a, **k: trajs.append(real(*a, **k)) or trajs[-1])
    reasons = set()
    for greedy in (False, True):
        del trajs[:]
        results = []
        table = harness.evaluate(agent, split, by_id, VOCAB, greedy=greedy, seed=5,
                                 results=results)
        assert len(results) == len(trajs) == len(split.episodes)
        for task, traj, r in zip(split.episodes, trajs, results):
            if r.success:
                assert r.failure_reason is None
                continue
            want = ("wrong_answer" if task.family == "IQA" and traj.answer is not None
                    else traj.terminated)
            assert r.failure_reason == want in ("wrong_answer", "end", "budget")
            reasons.add(want)
        # nothing evaluate counts depends on the reasons
        assert table.family_rates == harness.evaluate(
            agent, split, by_id, VOCAB, greedy=greedy, seed=5).family_rates
    assert reasons == {"wrong_answer", "end", "budget"}
