"""Evaluation: per-family success tables, per-skill tables, plan checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .agents import (ANSWER_SPACE, ForwardMemo, high_level_step, qa_answer,
                     sub_policy_step)
from .episodes import rollout
from .skills import (PRETRAIN_SKILLS, SceneSession, Skill, periodic_reset,
                     sample_skill_episode, skill_success, NoFeasibleSkill)
from .tasks import (FAMILIES, TEMPLATES, UnsatisfiableTemplate, generate_task,
                    instruction_tokens, replay_expert, task_initial_state,
                    task_success)
# `env_step` stays bound: the benchmark's tracer finds `world.step` through
# this alias too (perfbench/tests/test_spans.py)
from .world import InteractionMode, step as env_step


class MissingCheckpoint(FileNotFoundError):
    pass


class EmptySplit(ValueError):
    pass


def round1(x: float) -> float:
    """One-decimal percentage rounding, half away from zero."""
    return math.floor(x * 10 + 0.5) / 10


@dataclass
class EpisodeResult:
    task_id: int
    family: str
    split: str
    success: bool
    steps: int
    failure_reason: str | None = None
    trajectory_path: str | None = None


@dataclass
class MetricsTable:
    split: str
    family_rates: dict        # family -> success percentage (unrounded)
    counts: dict              # family -> episode count

    @property
    def macro(self) -> float:
        vals = [self.family_rates[f] for f in sorted(self.family_rates)]
        return sum(vals) / len(vals) if vals else 0.0

    def to_csv(self) -> str:
        fams = [f for f in FAMILIES if f in self.family_rates]
        header = "split," + ",".join(fams) + ",macro\n"
        row = self.split + "," + ",".join(f"{round1(self.family_rates[f]):.1f}"
                                          for f in fams)
        row += f",{round1(self.macro):.1f}\n"
        return header + row


def act_episode(agent, task, initial_state, mode: InteractionMode, rng,
                greedy=True, *, vocab):
    """Roll the hierarchical agent on one task episode.  Every sub-goal the
    high level picks goes to `sub_policy_step`; End ends the episode, and
    on an IQA task the first Answer asks the QA head for the answer.  The
    episode's steps share one `ForwardMemo`."""
    tokens = instruction_tokens(task, vocab)
    with T.no_grad():
        z_task = agent.task_enc([tokens])
    hidden = agent.high.initial_hidden()
    memo = ForwardMemo()

    def decide(traj, state, ex):
        nonlocal hidden
        obs = state.observation
        prev = traj.steps[-1] if traj.steps else None
        last_action = None if prev is None else prev.action
        sub, hidden = high_level_step(
            agent, z_task, obs, last_action, None if prev is None else prev.subgoal,
            hidden, rng, greedy, memo=memo)
        if sub.skill is Skill.Answer and task.family == "IQA" and traj.answer is None:
            probs = qa_answer(agent, tokens, obs)
            pick = np.argmax(probs) if greedy else rng.choice(len(probs), p=probs)
            traj.answer = ANSWER_SPACE[int(pick)]
        action, point, _extras = sub_policy_step(agent, sub, obs, last_action, rng,
                                                 greedy, memo=memo)
        return sub, action, point, sub.skill is Skill.End

    return rollout(initial_state, decide, mode, task.max_steps)


def evaluate(agent, split, templates_by_id, vocab, mode=InteractionMode.HARD, *,
             greedy, registry=None, config=None, seed=0,
             results=None) -> MetricsTable:
    """Run every episode of a split, decoding greedily or by sampling."""
    if not split.episodes:
        raise EmptySplit("refusing to report rates over zero episodes")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
    hits = {}
    counts = {}
    for i, task in enumerate(split.episodes):
        template = templates_by_id[task.scene_template_id]
        state = task_initial_state(task, template, registry=registry,
                                   config=config)
        traj = act_episode(agent, task, state, mode, rng, greedy=greedy,
                           vocab=vocab)
        ok = task_success(task, traj)
        counts[task.family] = counts.get(task.family, 0) + 1
        hits[task.family] = hits.get(task.family, 0) + (1 if ok else 0)
        if results is not None:
            results.append(EpisodeResult(
                task_id=i, family=task.family,
                split=split.name, success=ok,
                steps=len(traj.steps)))
    rates = {f: 100.0 * hits[f] / counts[f] for f in counts}
    return MetricsTable(split=split.name, family_rates=rates, counts=counts)


# --------------------------------------------------------------------------
# skill-level evaluation (pre-training table)


def run_skill_episode_policy(agent, episode, mode, rng, greedy=True) -> bool:
    """Roll the sub-policy alone on one skill episode (no high level).  As
    in pre-training, the episode succeeds on the step that completes the
    skill and otherwise runs to the budget; Done is an ordinary step."""
    sub, start = episode.subgoal, episode.initial_state
    memo = ForwardMemo()

    def decide(traj, state, ex):
        obs = state.observation
        last = traj.steps[-1].action if traj.steps else None
        action, point, _ = sub_policy_step(agent, sub, obs, last, rng, greedy=greedy,
                                           memo=memo)
        return sub, action, point, False

    traj = rollout(start, decide, mode, episode.max_steps,
                   succeeded=lambda state: skill_success(sub, start, state))
    return traj.terminated == "success"


def eval_skills(agent, templates, *, n_per_skill, seed, mode, greedy, registry,
                config):
    """Success rate per pre-training skill over freshly sampled episodes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 555]))
    session = SceneSession(list(templates), seed + 1, registry=registry,
                           config=config)
    table = {}
    for skill in PRETRAIN_SKILLS:
        wins, tries, guard = 0, 0, 0
        while tries < n_per_skill and guard < n_per_skill * 30:
            guard += 1
            periodic_reset(session, tries + guard, 7)
            try:
                episode = sample_skill_episode(session.state, rng, skills=(skill,))
            except NoFeasibleSkill:
                session.reset_scene()
                continue
            ok = run_skill_episode_policy(agent, episode, mode, rng, greedy=greedy)
            wins += 1 if ok else 0
            tries += 1
        table[skill.name] = 100.0 * wins / tries if tries else float("nan")
    return table


def eval_answer_skill(agent, templates, vocab, *, n, seed, mode, registry, config):
    """Answer accuracy on expert final frames, cycling the IQA task types."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 161]))
    qtypes = list(TEMPLATES["IQA"])
    wins, tries, guard = 0, 0, 0
    while tries < n and guard < n * 20:
        guard += 1
        template = templates[int(rng.integers(len(templates)))]
        qtype = qtypes[tries % len(qtypes)]
        try:
            task = generate_task("IQA", qtype, int(rng.integers(2)), template,
                                 int(rng.integers(2 ** 61)), rng,
                                 registry=registry, config=config)
        except UnsatisfiableTemplate:
            continue
        traj = replay_expert(task, template, mode, registry, config)
        probs = qa_answer(agent, instruction_tokens(task, vocab),
                          traj.final_state.observation)
        wins += 1 if ANSWER_SPACE[int(np.argmax(probs))] == task.answer else 0
        tries += 1
    return 100.0 * wins / tries if tries else float("nan")


# --------------------------------------------------------------------------
# plan check


def plan_check(episodes, templates_by_id, mode=InteractionMode.HARD,
               registry=None, config=None):
    """Expert replay over a list of episodes; returns the success rate."""
    if not episodes:
        raise EmptySplit("refusing to report a rate over zero episodes")
    wins = 0
    for task in episodes:
        traj = replay_expert(task, templates_by_id[task.scene_template_id], mode,
                             registry, config)
        wins += 1 if task_success(task, traj) else 0
    return 100.0 * wins / len(episodes)
