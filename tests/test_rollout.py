"""The one step loop and the rollouts built on it."""

from __future__ import annotations

import hashlib

import numpy as np

from gridhouse import trainer as TR
from gridhouse.agents import HierarchicalAgent, ModelConfig, act_episode
from gridhouse.episodes import rollout, run_expert_episode
from gridhouse.harness import run_skill_episode_policy
from gridhouse.planner import (ExpertController, ExpertStep, Irrecoverable,
                               single_subgoal_stream)
from gridhouse.scenes import builtin_templates
from gridhouse.skills import (PRETRAIN_SKILLS, SceneSession, Skill, SubGoal,
                              sample_skill_episode, skill_success)
from gridhouse.tasks import build_vocab, generate_task, remaining_fn, task_initial_state
from gridhouse.world import (INTERACTIVE_ACTIONS, InteractionMode, PrimitiveAction,
                             cached_render, state_hash)

from conftest import REG, make_state

VOCAB = build_vocab(REG)
TEMPLATES = builtin_templates()
HARD = InteractionMode.HARD
# full-size observations and pointing grid, narrow layers: every head runs
SMALL = ModelConfig(num_classes=len(REG), vocab_size=len(VOCAB), d=8, hidden=16,
                    task_dim=8, token_dim=4, ctx_dim=4, cond_dim=8, trunk_dim=16,
                    point_dim=8, enc_mid=6)


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
    """decide() playing (subgoal, action, point, ends) moves in order; it
    checks that the observation it is handed is the state's own."""
    def decide(traj, state, obs, ex):
        assert obs is cached_render(state)
        return moves[len(traj.steps)]
    return decide


class _Expert:
    """Controller stand-in labelling RotateLeft under End; expert_action
    raises Irrecoverable once `fail_at` steps have been observed."""

    def __init__(self, fail_at):
        self.fail_at, self.observed = fail_at, 0

    def expert_action(self, state, geom, obs):
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
    col, row = cached_render(state).visible_instance_cells()[1][0]
    controller = ExpertController(state, single_subgoal_stream(SLICE_BREAD, state), HARD)
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


# --------------------------------------------------------------------------
# golden rollouts


def _num(v):
    if v is None:
        return None
    if isinstance(v, (tuple, list)):
        return tuple(_num(x) for x in v)
    return float(v)


def _rollout_digest():
    """SHA-256 over what every rollout function records on fixed seeds:
    actions, points, step results, state hashes, training labels, rewards,
    answers and endings."""
    h = hashlib.sha256()

    def put(*xs):
        h.update(repr(xs).encode())

    def put_traj(traj):
        for r in traj.steps:
            put(r.t, r.subgoal, r.action.name, _num(r.point), r.success, r.reason,
                r.target, r.state_hash)
        put(traj.terminated, traj.answer, state_hash(traj.final_state))

    def put_samples(samples):
        for s in samples:
            put(s.family, s.skill, s.obj, s.last_action, s.expert_action,
                s.expert_interactive, s.expert_cell, _num(s.expert_delta),
                [(c, _num(xy), _num(r)) for c, xy, r in s.centers],
                s.action, s.cell, _num(s.delta), _num(s.reward), s.done,
                s.hl_skill_label, s.hl_obj_label, s.hl_last_action,
                s.hl_last_skill, s.hl_last_obj, s.answer_tokens, s.answer_label)

    agent = HierarchicalAgent(np.random.default_rng(np.random.SeedSequence([0, 12001])),
                              SMALL)
    exin = generate_task("EXIN", "pickup", 0, TEMPLATES[0], 9, np.random.default_rng(1))
    iqa = generate_task("IQA", "existence", 0, TEMPLATES[2], 77, np.random.default_rng(2))
    tasks = [(exin, TEMPLATES[0]), (iqa, TEMPLATES[2])]

    for task, template in tasks:
        state = task_initial_state(task, template)
        for greedy in (True, False):
            put_traj(act_episode(agent, task, state, HARD, np.random.default_rng(3),
                                 greedy=greedy, vocab=VOCAB))
        rng = np.random.default_rng(4)
        for eps in (0.5, 0.5, 0.5, 1.0):
            samples, traj = TR.run_task_episode_sf(agent, task, state, HARD, rng,
                                                   eps, SMALL, VOCAB)
            put_samples(samples)
            put(traj.answer, state_hash(traj.final_state))

    session = SceneSession(TEMPLATES[:2], 5)
    rng = np.random.default_rng(6)
    interact = tuple(s for s in PRETRAIN_SKILLS if s is not Skill.GoTo)
    for k in range(8):
        episode = sample_skill_episode(session.state, rng,
                                       skills=interact if k % 4 else (Skill.GoTo,))
        samples, success, final = TR.run_skill_episode(
            agent, episode, HARD, rng, 0.5, SMALL, collect_ppo=True)
        put_samples(samples)
        put(success, state_hash(final))
        for greedy in (True, False):
            ok = run_skill_episode_policy(agent, episode, HARD, rng, greedy=greedy)
            put(ok)
        session.reset_scene()

    for task, template in tasks:
        rng = np.random.default_rng(7)
        actions = sorted(INTERACTIVE_ACTIONS)

        def intervene(t, cur, geom, obs, ex):
            visible = sorted(obs.visible_instance_cells().items())
            if rng.random() >= 0.3 or not visible:
                return None
            _iid, cells = visible[int(rng.integers(len(visible)))]
            col, row = cells[int(rng.integers(len(cells)))]
            return actions[int(rng.integers(len(actions)))], (col + .5, row + .5)

        for hook in (None, intervene):
            put_traj(run_expert_episode(task_initial_state(task, template),
                                        remaining_fn(task), HARD,
                                        max_steps=task.max_steps,
                                        expected_answer=task.answer,
                                        intervene=hook))
    return h.hexdigest()


# Computed before the step loops were merged into `episodes.rollout`; a
# change that moves rollout numerics or rng draws on purpose updates it and
# says so in CHANGES.md.  Same BLAS caveat as the training goldens in
# test_trainer.py.
ROLLOUT_SHA256 = "94153d20d268108e8d52cb59fe572159bbcc34c58e72918328fbb1f4b09f6f91"


def test_rollouts_are_bit_identical_to_the_golden_digest():
    assert _rollout_digest() == ROLLOUT_SHA256
