"""The benchmark's workloads: set-up, one operation, and its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Operation k draws its inputs from a
seed derived from the workload seed and k.  Input sizes come from the
workload's INI file under `configs/`, read with
`gridhouse.config.load_config` as the CLI does.
"""

from __future__ import annotations

import contextlib
import copy
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import host
import gridhouse.harness
from gridhouse import tensor as T
from gridhouse.agents import HierarchicalAgent
from gridhouse.classes import desk_registry
from gridhouse.config import load_config
from gridhouse.harness import evaluate, plan_check
from gridhouse.nn import Adam
from gridhouse.scenes import builtin_templates
from gridhouse.skills import (PRETRAIN_SKILLS, NoFeasibleSkill, SceneSession,
                              periodic_reset, sample_skill_episode)
from gridhouse.tasks import (build_splits, build_vocab, desk_split_counts,
                             split_content_hash, task_initial_state, tokenize)
from gridhouse.trainer import (EpisodeBatch, PretrainProgress,
                               multitask_episode_loss, pretrain,
                               run_skill_episode, run_task_episode_sf,
                               teacher_forcing_update, train_multitask)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
HELDOUT_STREAM = 4242     # seed-stream tag of the fixed held-out inputs


def sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Tally:
    """Work and wall time per stage, summed over a loop's operations."""

    def __init__(self):
        self.work: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def add(self, stage, seconds, work):
        self.work[stage] = self.work.get(stage, 0) + work
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds

    def rate(self, stage, kernel=None) -> float:
        """Work per second; per host-scaled second given the loop's mean
        calibration-kernel time (see host.py)."""
        t = self.seconds.get(stage, 0.0)
        if kernel is not None:
            t = host.scaled(t, kernel)
        return self.work.get(stage, 0) / t if t > 0 else 0.0


class Chunker:
    """Cuts one operation's wall time into chunks (an episode with the
    update it triggers, one plan_check call) and runs the calibration
    kernel between them, outside the timed chunks, so that its samples
    spread over the whole loop."""

    def __init__(self, tally, calibrator):
        self.tally, self.cal = tally, calibrator
        self.t = calibrator.clock()

    def restart(self):
        """Start the next chunk now, leaving out the time since the last cut."""
        self.t = self.cal.clock()

    def cut(self, stage, work=0):
        self.tally.add(stage, self.cal.clock() - self.t, work)
        self.cal.kernel()
        self.restart()


@dataclass
class Common:
    config: object
    registry: object
    vocab: dict
    templates: list
    by_id: dict
    train_templates: list
    world: object
    cfg: object

    @classmethod
    def load(cls, workload):
        config = load_config(os.path.join(CONFIG_DIR, f"{workload}.ini"))
        registry = desk_registry()
        vocab = build_vocab(registry)
        templates = builtin_templates()
        n_unseen = config.get("tasks", "n_unseen", int)
        return cls(config, registry, vocab, templates,
                   {t["template_id"]: t for t in templates},
                   templates[:-n_unseen], config.world(),
                   config.model(len(registry), len(vocab)))

    def fresh_agent(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 12001]))
        return HierarchicalAgent(rng, self.cfg)


def _params(agent):
    return [p.data.copy() for p in agent.parameters()]


@contextlib.contextmanager
def _watch_episodes(on_episode):
    """Call on_episode(task, trajectory) after each episode `evaluate` rolls
    out; `evaluate` itself keeps only the step count."""
    original = gridhouse.harness.act_episode

    def act(agent, task, *args, **kwargs):
        traj = original(agent, task, *args, **kwargs)
        on_episode(task, traj)
        return traj

    gridhouse.harness.act_episode = act
    try:
        yield
    finally:
        gridhouse.harness.act_episode = original


class StagedProgress(PretrainProgress):
    """PretrainProgress that calls on_stage_end(stage) when pretrain moves
    it on.  pretrain does that right after the stage-end flush update, so
    the flush counts toward the stage that collected its batch; `on_round`
    runs before the flush and cannot place that boundary."""

    def __init__(self, on_stage_end):
        self._on_stage_end = on_stage_end
        self._stage = "tf"
        super().__init__()

    @property
    def stage(self):
        return self._stage

    @stage.setter
    def stage(self, value):
        if value != self._stage:
            self._on_stage_end(self._stage)
        self._stage = value


class Workload:
    """name, the stages behind the three stage slots, and per-op logic."""
    name = ""
    # (stage key, issue metric name, unit of work) for stage1..stage3
    stages: tuple = ()
    quality = None            # (metric name, unit) of the held-out guard

    def __init__(self, calibrator):
        self.cal = calibrator

    def setup(self, seed):
        raise NotImplementedError

    def op(self, k, tally, out):
        """Run operation k; add stage time/work to `tally` and append to
        out.problems / out.fingerprints / out.quality."""
        raise NotImplementedError


@dataclass
class OpOutputs:
    problems: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)   # input key -> [outputs]
    quality: dict = field(default_factory=dict)        # input key -> value

    def record(self, key, fingerprint):
        self.fingerprints.setdefault(key, []).append(fingerprint)


class ExpertData(Workload):
    """build_splits on small per-call counts, then plan_check on every
    split it produced.  No model."""
    name = "expert_data"
    stages = (("datagen", "datagen_eps_per_s", "episodes"),
              ("replay_seen", "replay_eps_per_s", "episodes"),
              ("replay_unseen", "replay_unseen_eps_per_s", "episodes"))

    def setup(self, seed):
        c = Common.load(self.name)
        self.c, self.seed = c, seed
        self.counts = desk_split_counts(c.config.get("tasks", "scale", int))
        self.n_unseen = c.config.get("tasks", "n_unseen", int)

    def op(self, k, tally, out):
        c = self.c
        s = sub_seed(self.seed, k)
        chunks = Chunker(tally, self.cal)
        splits = []
        try:
            splits = build_splits(c.templates, counts=self.counts, seed=s,
                                  registry=c.registry, config=c.world,
                                  n_unseen=self.n_unseen)
        finally:
            # a failed call counts toward datagen time
            chunks.cut("datagen", sum(len(sp.episodes) for sp in splits))
        out.problems += checks.split_sizes(splits, self.counts)
        rates = {}
        for sp in splits:
            # one episode per call, so each chunk is short next to the host's
            # speed swings; the split's rate is the mean over its episodes
            stage = "replay_unseen" if sp.name.endswith("unseen") else "replay_seen"
            replays = []
            for task in sp.episodes:
                chunks.restart()
                replays.append(plan_check([task], c.by_id,
                                          mode=c.config.mode("multitask"),
                                          registry=c.registry, config=c.world))
                chunks.cut(stage, 1)
            rates[sp.name] = sum(replays) / max(len(replays), 1)
        out.problems += checks.plan_rates(rates)
        out.record(s, (tuple(split_content_hash(sp) for sp in splits),
                       tuple(sorted(rates.items()))))


class SkillPretrain(Workload):
    """pretrain TF -> SF -> PPO on the train templates from a fresh agent,
    then the loss on a fixed expert-labelled held-out batch."""
    name = "skill_pretrain"
    stages = (("tf", "tf_steps_per_s", "env steps"),
              ("sf", "sf_steps_per_s", "env steps"),
              ("ppo", "ppo_steps_per_s", "env steps"))
    quality = ("pretrain_heldout_loss", "nats")

    def setup(self, seed):
        c = Common.load(self.name)
        self.c, self.seed = c, seed
        self.schedule = c.config.pretrain_schedule()
        self.heldout = self._heldout_batch(seed)

    def _heldout_batch(self, seed):
        """Expert-labelled skill steps (eps = 1) from their own seed stream."""
        c = self.c
        rng = np.random.default_rng(np.random.SeedSequence([seed, HELDOUT_STREAM]))
        session = SceneSession(c.train_templates, sub_seed(seed, HELDOUT_STREAM),
                               registry=c.registry, config=c.world)
        agent = c.fresh_agent(seed)
        size = c.config.get("pretrain", "update_every", int)
        batch, episodes = [], 0
        while len(batch) < size:
            periodic_reset(session, episodes, self.schedule.reset_period)
            episodes += 1
            try:
                episode = sample_skill_episode(session.state, rng,
                                               skills=PRETRAIN_SKILLS)
            except NoFeasibleSkill:
                session.reset_scene()
                continue
            samples, _, _ = run_skill_episode(agent, episode,
                                              c.config.mode("pretrain"), rng,
                                              1.0, c.cfg, c.config.rewards())
            batch.extend(samples)
        return batch

    def op(self, k, tally, out):
        c, sched = self.c, self.schedule
        s = sub_seed(self.seed, k)
        agent = c.fresh_agent(s)
        before = _params(agent)
        chunks = Chunker(tally, self.cal)
        counted = {"tf": 0, "sf": 0, "ppo": 0}

        def cut(stage):
            chunks.cut(stage, progress.steps_done[stage] - counted[stage])
            counted[stage] = progress.steps_done[stage]

        progress = StagedProgress(cut)
        try:
            pretrain(agent, c.train_templates, sched, c.cfg, seed=s,
                     mode=c.config.mode("pretrain"),
                     grouping=c.config.get("pretrain", "grouping"),
                     qa_fraction=c.config.get("pretrain", "qa_fraction", float),
                     vocab=c.vocab, reward_cfg=c.config.rewards(),
                     ppo_cfg=c.config.ppo(), weights=c.config.loss_weights(),
                     registry=c.registry, world_config=c.world,
                     on_round=lambda p: cut(p.stage), progress=progress)
        finally:
            if progress.stage != "done":    # the chunk a failure broke off
                cut(progress.stage)
        out.problems += checks.pretrain_done(
            progress, {"tf": sched.tf_steps, "sf": sched.sf_steps,
                       "ppo": sched.ppo_steps})
        out.problems += checks.params_trained(before, _params(agent))
        # on a copy, so the trained agent is left as the run made it
        probe = copy.deepcopy(agent)
        opt = Adam(probe.parameters(), lr=sched.lr, clip_norm=sched.grad_clip)
        loss = teacher_forcing_update(probe, self.heldout, opt, c.cfg,
                                      c.config.loss_weights())
        out.problems += checks.finite(self.quality[0], loss)
        out.quality[s] = loss
        out.record(s, (repr(loss), tuple(sorted(progress.steps_done.items())),
                       progress.episodes))


class TaskFinetune(Workload):
    """Each operation builds its splits, trains train_multitask TF + SF from
    scratch on the train split, evaluates greedily on the unseen-scene
    splits, then takes the multi-task loss on fixed expert episodes from
    val_seen.  The splits are built per operation rather than once in
    set-up so that a build_splits failure counts as a failed operation."""
    name = "task_finetune"
    stages = (("mt_tf", "mt_tf_steps_per_s", "env steps"),
              ("mt_sf", "mt_sf_steps_per_s", "env steps"),
              ("eval", "eval_steps_per_s", "env steps"))
    quality = ("finetune_heldout_loss", "nats")
    eval_splits = ("val_unseen", "test_unseen")

    def setup(self, seed):
        c = Common.load(self.name)
        self.c, self.seed = c, seed
        self.counts = desk_split_counts(c.config.get("tasks", "scale", int))
        self.n_unseen = c.config.get("tasks", "n_unseen", int)
        self.schedule = c.config.multitask_schedule()

    def _heldout_episodes(self, val_seen, seed):
        """Expert-driven (eps = 1) multi-task episodes on val_seen."""
        c = self.c
        rng = np.random.default_rng(np.random.SeedSequence([seed, HELDOUT_STREAM]))
        agent = c.fresh_agent(seed)
        out = []
        for task in val_seen.episodes:
            state = task_initial_state(task, c.by_id[task.scene_template_id],
                                       registry=c.registry, config=c.world)
            steps, _ = run_task_episode_sf(agent, task, state,
                                           c.config.mode("multitask"), rng, 1.0,
                                           c.cfg, c.vocab)
            if steps:
                tokens = [c.vocab.get(t, 1) for t in tokenize(task.instruction)]
                out.append(EpisodeBatch(task_tokens=tokens, steps=steps))
        return out

    def op(self, k, tally, out):
        c, sched = self.c, self.schedule
        s = sub_seed(self.seed, k)
        splits = {sp.name: sp for sp in build_splits(
            c.templates, counts=self.counts, seed=s, registry=c.registry,
            config=c.world, n_unseen=self.n_unseen)}
        heldout = self._heldout_episodes(splits["val_seen"], s)
        agent = c.fresh_agent(s)
        before = _params(agent)
        chunks = Chunker(tally, self.cal)
        counted = {"tf": 0, "sf": 0}

        def on_round(stage, steps_done):
            # train_multitask has no stage-end flush: a stage ends at its
            # last round
            chunks.cut("mt_" + stage, steps_done[stage] - counted[stage])
            counted[stage] = steps_done[stage]

        failed = True
        try:
            train_multitask(agent, splits["train"], c.by_id, sched, c.cfg,
                            c.vocab, seed=s, mode=c.config.mode("multitask"),
                            weights=c.config.loss_weights(), registry=c.registry,
                            world_config=c.world,
                            single_family=c.config.get("multitask", "single_family") or None,
                            episodes_per_update=c.config.get(
                                "multitask", "episodes_per_update", int),
                            on_round=on_round)
            failed = False
        finally:
            if failed:      # the chunk a failure broke off
                chunks.cut("mt_sf" if counted["tf"] >= sched.tf_steps else "mt_tf")
        out.problems += checks.stage_budgets(
            {"mt_tf": counted["tf"], "mt_sf": counted["sf"]},
            {"mt_tf": sched.tf_steps, "mt_sf": sched.sf_steps})
        out.problems += checks.params_trained(before, _params(agent))
        endings, wins = [], []

        def on_episode(task, traj):
            chunks.cut("eval", len(traj.steps))
            endings.append((traj.terminated, len(traj.steps), task.max_steps))

        for name in self.eval_splits:
            results = []
            chunks.restart()
            with _watch_episodes(on_episode):
                evaluate(agent, splits[name], c.by_id, c.vocab,
                         mode=c.config.mode("multitask"),
                         greedy=c.config.get("eval", "greedy", bool),
                         registry=c.registry, config=c.world, seed=s,
                         results=results)
            wins.append((name, sum(r.success for r in results)))
        out.problems += checks.eval_episodes(endings)
        with T.no_grad():
            losses = [float(multitask_episode_loss(agent, ep, c.cfg,
                                                   c.config.loss_weights()).item())
                      for ep in heldout]
        loss = sum(losses) / len(losses)
        out.problems += checks.finite(self.quality[0], loss)
        out.quality[s] = loss
        out.record(s, (split_content_hash(splits["train"]), repr(loss), tuple(wins)))

