"""Evaluation: per-family success tables, per-skill tables, plan checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import (ANSWER_SPACE, SKILL_FAMILY, act_episode, qa_answer,
                     sub_policy_step)
from .episodes import rollout, run_expert_episode
from .skills import (PRETRAIN_SKILLS, SceneSession, periodic_reset,
                     sample_skill_episode, skill_success, NoFeasibleSkill)
from .tasks import (FAMILIES, remaining_fn, task_initial_state, task_success,
                    tokenize)
# `env_step` stays bound: the benchmark's tracer finds `world.step` through
# this alias too (perfbench/tests/test_spans.py)
from .world import (InteractionMode, PrimitiveAction, cached_render,
                    step as env_step)


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


def evaluate(agent, split, templates_by_id, vocab, mode=InteractionMode.HARD,
             greedy=True, registry=None, config=None, seed=0,
             results=None) -> MetricsTable:
    """Run every episode of a split with greedy decoding by default."""
    episodes = split.episodes if hasattr(split, "episodes") else list(split)
    if not episodes:
        raise EmptySplit("refusing to report rates over zero episodes")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
    hits = {}
    counts = {}
    for i, task in enumerate(episodes):
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
                split=getattr(split, "name", "split"), success=ok,
                steps=len(traj.steps)))
    rates = {f: 100.0 * hits[f] / counts[f] for f in counts}
    return MetricsTable(split=getattr(split, "name", "split"),
                        family_rates=rates, counts=counts)


# --------------------------------------------------------------------------
# skill-level evaluation (pre-training table)


def run_skill_episode_policy(agent, episode, mode, rng, greedy=True) -> bool:
    """Roll the sub-policy alone on one skill episode (no high level);
    success per the skill predicate at termination."""
    sub, start = episode.subgoal, episode.initial_state

    def decide(traj, state, obs, ex):
        last = traj.steps[-1].action if traj.steps else None
        action, point, _ = sub_policy_step(agent, sub, obs, last, rng, greedy=greedy)
        return sub, action, point, action is PrimitiveAction.Done

    succeeded = (None if SKILL_FAMILY[sub.skill] == "nav"
                 else lambda state: skill_success(sub, start, state))
    traj = rollout(start, decide, mode, episode.max_steps, succeeded=succeeded)
    return skill_success(sub, start, traj.final_state)


def eval_skills(agent, templates, n_per_skill=30, seed=0,
                mode=InteractionMode.HARD, greedy=True,
                skills=PRETRAIN_SKILLS, registry=None, config=None):
    """Success rate per skill over freshly sampled episodes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 555]))
    session = SceneSession(list(templates), seed + 1, registry=registry,
                           config=config)
    table = {}
    for skill in skills:
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


def eval_answer_skill(agent, templates, vocab, n=40, seed=0,
                      mode=InteractionMode.HARD, registry=None, config=None):
    """Answer accuracy on expert final frames."""
    from .tasks import UnsatisfiableTemplate, generate_task
    from .tasks import remaining_fn as rfn

    rng = np.random.default_rng(np.random.SeedSequence([seed, 161]))
    wins, tries, guard = 0, 0, 0
    while tries < n and guard < n * 20:
        guard += 1
        template = templates[int(rng.integers(len(templates)))]
        qtype = ("state", "existence", "counting")[tries % 3]
        try:
            task = generate_task("IQA", qtype, int(rng.integers(2)), template,
                                 int(rng.integers(2 ** 61)), rng,
                                 registry=registry, config=config)
        except UnsatisfiableTemplate:
            continue
        state = task_initial_state(task, template, registry=registry, config=config)
        traj = run_expert_episode(state, rfn(task), mode, max_steps=task.max_steps,
                                  expected_answer=task.answer)
        if traj.final_state is None:
            continue
        tokens = [vocab.get(t, 1) for t in tokenize(task.instruction)]
        probs = qa_answer(agent, tokens, cached_render(traj.final_state))
        wins += 1 if ANSWER_SPACE[int(np.argmax(probs))] == task.answer else 0
        tries += 1
    return 100.0 * wins / tries if tries else float("nan")


# --------------------------------------------------------------------------
# plan check


def plan_check(split, templates_by_id, mode=InteractionMode.HARD,
               registry=None, config=None):
    """Expert replay over a dataset; returns the success rate."""
    episodes = split.episodes if hasattr(split, "episodes") else list(split)
    wins = 0
    for task in episodes:
        template = templates_by_id[task.scene_template_id]
        state = task_initial_state(task, template, registry=registry,
                                   config=config)
        traj = run_expert_episode(state, remaining_fn(task), mode,
                                  max_steps=task.max_steps,
                                  expected_answer=task.answer)
        wins += 1 if task_success(task, traj) else 0
    return 100.0 * wins / max(len(episodes), 1)
