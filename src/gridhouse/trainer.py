"""Three-stage skill pre-training (teacher forcing -> student forcing ->
PPO with shaped auxiliary rewards) and joint multi-task fine-tuning with
the recovery planner and proportional episode sampling.

Rollouts and updates alternate in one process (collect -> update ->
continue), so with fixed seeds every run is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import nn, tensor as T
from .agents import (ANSWER_SPACE, INTERACT_ACTION_SPACE, INTERACT_INDEX,
                     NAV_ACTION_SPACE, NAV_INDEX, NONE_ACTION, NONE_SKILL,
                     SKILL_FAMILY, ForwardMemo, ModelConfig, action_id, cell_center,
                     encode, high_level_step, qa_logits,
                     sub_policy_forward, sub_policy_step, subgoal_ids)
from .episodes import rollout
from .planner import ExpertController, single_subgoal_stream
from .skills import (INTERACTION_SKILLS, NoFeasibleSkill, PRETRAIN_SKILLS,
                     SceneSession, Skill, periodic_reset, sample_skill_episode,
                     skill_success)
from .tasks import (TEMPLATES, UnsatisfiableTemplate, generate_task,
                    instruction_tokens, remaining_fn, replay_expert,
                    task_initial_state)
# `env_step` stays bound: the benchmark's tracer finds `world.step` through
# this alias too (perfbench/tests/test_spans.py)
from .world import (CLASS_BASE, INTERACTIVE_ACTIONS, InteractionMode,
                    is_visible, step as env_step)


class MissingLabels(ValueError):
    pass


class EmptyBuffer(ValueError):
    pass


# --------------------------------------------------------------------------
# configs


@dataclass
class RewardConfig:
    w_success: float = 20.0
    w_visible: float = 1.0
    w_act: float = 1.0
    w_point: float = 0.5
    sigma_point: float = 1.0    # world cells; point-reward kernel width


@dataclass
class PPOConfig:
    clip: float = 0.2
    gamma: float = 0.99
    lam: float = 0.95
    value_weight: float = 0.5
    entropy_weight: float = 0.01
    epochs: int = 4
    minibatch: int = 64
    horizon: int = 512                       # steps per collect->update round

    def __post_init__(self):
        if not 0 < self.clip < 1:
            raise ValueError("clip must be in (0,1)")
        if not (0 < self.gamma <= 1 and 0 < self.lam <= 1):
            raise ValueError("gamma and lam must be in (0,1]")


@dataclass
class LossWeights:
    action_ce: float = 1.0
    grid_ce: float = 1.0
    lambda_g: float = 0.1    # on the offset log-likelihood
    focal: float = 1.0
    l1: float = 1.0


@dataclass
class PretrainSchedule:
    tf_steps: int = 200_000
    sf_steps: int = 200_000
    ppo_steps: int = 400_000
    eps_start: float = 1.0
    eps_end: float = 0.0
    lr: float = 3e-4
    reset_period: int = 10
    update_every: int = 64
    grad_clip: ClassVar[float] = 0.5


@dataclass
class MultitaskSchedule:
    tf_steps: int = 50_000
    sf_steps: int = 50_000
    eps_start: float = 1.0
    eps_end: float = 0.6
    lr_high: float = 3e-4
    lr_sub: float = 3e-5
    grad_clip: ClassVar[float] = PretrainSchedule.grad_clip


def epsilon_at(progress: float, start: float, end: float) -> float:
    """Linear decay; exact at the endpoints."""
    progress = min(max(progress, 0.0), 1.0)
    return start + progress * (end - start)


# --------------------------------------------------------------------------
# rewards


def compute_reward(state_after, action, point, subgoal, expert_step,
                   success: bool, cfg: RewardConfig | None = None) -> float:
    """Weighted shaped reward w . [success, visible, act, point].

    The act term counts for any action equal to the expert's, navigation
    or interaction alike.  The point term applies only to interactive
    skills (not GoTo, Answer or End) when both points are given; it is a
    Gaussian kernel of the distance to the expert's point, 1 at that
    point, so it adds at most w_point.
    """
    cfg = cfg or RewardConfig()
    r_success = 1.0 if success else 0.0
    target_visible = subgoal.object_class is not None and any(
        is_visible(state_after, o.instance_id)
        for o in state_after.instances_of(subgoal.object_class))
    r_visible = 1.0 if target_visible else 0.0
    r_act = 1.0 if action == expert_step.action else 0.0
    r_point = 0.0
    if (subgoal.skill in INTERACTION_SKILLS and point is not None
            and expert_step.point is not None):
        d2 = ((point[0] - expert_step.point[0]) ** 2
              + (point[1] - expert_step.point[1]) ** 2)
        sigma = cfg.sigma_point * state_after.config.upsample  # world cells to px
        r_point = math.exp(-d2 / (2.0 * sigma * sigma))
    return (cfg.w_success * r_success + cfg.w_visible * r_visible
            + cfg.w_act * r_act + cfg.w_point * r_point)


# --------------------------------------------------------------------------
# step records


@dataclass
class StepSample:
    obs: object
    family: str                      # nav | interact | qa | end (multi-task only)
    skill: int
    obj: int                         # conditioning object id (or C = none)
    last_action: int                 # id in the 14-way embedding space
    expert_action: int               # index in the family's action space
    expert_cell: int = -1            # expert grid cell index; -1 = no point
    expert_delta: tuple = (0.0, 0.0)
    centers: list = field(default_factory=list)   # heatmap supervision
    # on-policy extras (student forcing / PPO)
    action: int = -1
    logp: float = 0.0
    value: float = 0.0
    reward: float = 0.0
    done: bool = False
    cell: int = -1
    delta: tuple = (0.0, 0.0)
    # multi-task extras: skill, obj and last_action are the high level's
    # labels and last action too; these are the `subgoal_ids` of its
    # previous sub-goal (-1 only on samples that never reach the high level)
    hl_last_skill: int = NONE_SKILL
    hl_last_obj: int = -1
    answer_tokens: list | None = None
    answer_label: int = -1


def heat_centers(obs, cfg: ModelConfig):
    """Per-visible-instance (class, center, radius) in pointing-grid units."""
    scale = cfg.cell_px
    out = []
    for iid, cells in obs.visible_instance_cells().items():
        xs = [c[0] + 0.5 for c in cells]
        ys = [c[1] + 0.5 for c in cells]
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        cls = int(obs.class_map[cells[0][1], cells[0][0]]) - CLASS_BASE
        radius = math.sqrt(len(cells) / math.pi) / scale
        out.append((cls, (cx / scale, cy / scale), radius))
    return out


def expert_cell_delta(point, cfg: ModelConfig):
    """(pointing-grid cell, offset from its centre) of a point in the
    observation."""
    px = cfg.cell_px
    cell = (min(int(point[1] // px), cfg.grid - 1) * cfg.grid
            + min(int(point[0] // px), cfg.grid - 1))
    cx, cy = cell_center(cfg, cell)
    return cell, (point[0] - cx, point[1] - cy)


def _fill_sub_policy_labels(sample, ex, cfg: ModelConfig, heat=True):
    """Set the expert's action and point labels of a nav or interact
    sample, and with `heat` its heatmap labels."""
    index = NAV_INDEX if sample.family == "nav" else INTERACT_INDEX
    sample.expert_action = index[ex.action]
    if (sample.family == "interact" and ex.action in INTERACTIVE_ACTIONS
            and ex.point is not None):
        sample.expert_cell, sample.expert_delta = expert_cell_delta(ex.point, cfg)
    if heat:
        sample.centers = heat_centers(sample.obs, cfg)
    return sample


# --------------------------------------------------------------------------
# supervised losses


def _forward(agent, family, samples, heat=False, point_rows=None):
    """`sub_policy_forward` of the family's sub-policy on the samples."""
    return sub_policy_forward(agent, family, [s.obs for s in samples],
                              [s.last_action for s in samples],
                              [s.skill for s in samples], [s.obj for s in samples], heat,
                              point_rows)


def _sub_loss(agent, family, samples, cfg: ModelConfig, weights: LossWeights):
    """Eq.-style sub-policy loss over a batch of steps: action CE; with a
    pointing head, also grid CE + weighted offset log-likelihood on
    expert-interactive steps and the focal/L1 auxiliary losses on every
    step."""
    logits, _value, point_maps = _forward(agent, family, samples, heat=True)
    n = len(samples)
    total = T.mul(nn.cross_entropy_rows(logits, [s.expert_action for s in samples]),
                  weights.action_ce)
    if point_maps is None:
        return T.mul(total, 1.0 / n)
    grid_logits, mu, nu, heat = point_maps
    rows = [i for i, s in enumerate(samples) if s.expert_cell >= 0]
    if rows:
        cells = np.array([samples[i].expert_cell for i in rows])
        picked = T.gather(grid_logits, (np.array(rows), slice(None)))
        total = total + T.mul(nn.cross_entropy_rows(picked, cells), weights.grid_ce)
        mu_sel = T.gather(mu, (np.array(rows), slice(None), cells))
        nu_sel = T.gather(nu, (np.array(rows), slice(None), cells))
        deltas = np.array([samples[i].expert_delta for i in rows])
        ll = nn.gaussian_log_likelihood(deltas, mu_sel, nu_sel)
        total = total + T.mul(ll, -weights.lambda_g)
    # auxiliary heatmap + offset losses over all visible object centers,
    # batched across the whole step batch
    tgt = nn.gaussian_kernel_targets([s.centers for s in samples],
                                     (cfg.num_classes, cfg.grid, cfg.grid))
    inv_m = np.array([1.0 / len(c) if c else 0.0 for c in tgt.centers],
                     dtype=T.DEFAULT_DTYPE)
    l1_rows, l1_cells, l1_offs = [], [], []
    for i, centers in enumerate(tgt.centers):
        for _cls, (ix, iy), (ox, oy) in centers:
            l1_rows.append(i)
            l1_cells.append(ix + iy * cfg.grid)
            l1_offs.append((ox * cfg.cell_px, oy * cfg.cell_px))
    if l1_rows:
        total = total + T.mul(nn.focal_loss_batched(heat, tgt.heat, inv_m), weights.focal)
        mu_sel = T.gather(mu, (np.array(l1_rows), slice(None), np.array(l1_cells)))
        l1 = T.sum_(T.abs_(mu_sel - np.array(l1_offs)), axis=1)
        total = total + T.mul(T.sum_(T.mul(l1, inv_m[l1_rows])), weights.l1)
    return T.mul(total, 1.0 / n)


def _qa_loss(agent, samples):
    logits, _att = qa_logits(agent, [s.answer_tokens for s in samples],
                             [s.obs for s in samples])
    ce = nn.cross_entropy_rows(logits, [s.answer_label for s in samples])
    return T.mul(ce, 1.0 / len(samples))


def _sub_policy_losses(agent, samples, cfg: ModelConfig, weights: LossWeights):
    """(mean loss, sample count) of each sub-policy family present among
    the samples, in the order interact, nav, QA."""
    out = []
    for family in ("interact", "nav", "qa"):
        batch = [s for s in samples if s.family == family]
        if batch:
            out.append((_qa_loss(agent, batch) if family == "qa"
                        else _sub_loss(agent, family, batch, cfg, weights), len(batch)))
    return out


def teacher_forcing_update(agent, samples, opt, cfg: ModelConfig,
                           weights: LossWeights | None = None):
    """One supervised optimizer step on a batch of recorded steps: the sum
    of the per-family sub-policy losses."""
    parts = _sub_policy_losses(agent, samples, cfg, weights or LossWeights())
    if not parts:
        raise MissingLabels("empty batch")
    loss = T.Tensor(0.0)
    for part, _n in parts:
        loss = loss + part
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.item())


# --------------------------------------------------------------------------
# multi-task episode loss (Eq.-5 shape)


@dataclass
class EpisodeBatch:
    task_tokens: list
    steps: list                       # StepSample with hl_last_* fields set


def high_level_logits(agent, episode: EpisodeBatch, cfg: ModelConfig):
    """(skill logits (N, |Skill|), object logits (N, C)) of the high level
    over an episode's N steps, teacher-forced on their recorded last
    actions and previous sub-goals.  `hl_encoder` runs once per distinct
    observation of the episode (`encode`), so its gradients sum each
    repeated observation's rows first; the GRU unrolls over all N steps."""
    steps = episode.steps
    n = len(steps)
    if n == 0:
        raise MissingLabels("empty episode")
    z_task = agent.task_enc([episode.task_tokens])
    z_img = encode(agent.hl_encoder, [s.obs for s in steps])
    flat = agent.high.gru_input(
        T.mul(z_task, np.ones((n, 1), dtype=T.DEFAULT_DTYPE)), z_img,
        [s.last_action for s in steps],
        [s.hl_last_skill for s in steps],
        [s.hl_last_obj for s in steps])
    hs = nn.gru_sequence(agent.high.gru, flat,
                         np.zeros(cfg.hidden, dtype=T.DEFAULT_DTYPE))
    return agent.high.skill_head(hs), agent.high.obj_head(hs)


def multitask_episode_loss(agent, episode: EpisodeBatch, cfg: ModelConfig,
                           weights: LossWeights):
    """High-level skill/object CE plus the indicator-gated sub-policy loss,
    averaged over the episode's steps."""
    steps = episode.steps
    n = len(steps)
    skill_logits, obj_logits = high_level_logits(agent, episode, cfg)
    loss = nn.cross_entropy_rows(skill_logits, [s.skill for s in steps])
    obj_rows = [i for i, s in enumerate(steps) if s.obj < cfg.num_classes]
    if obj_rows:
        picked = T.gather(obj_logits, (np.array(obj_rows), slice(None)))
        loss = loss + nn.cross_entropy_rows(picked, [steps[i].obj for i in obj_rows])
    # indicator-gated sub-policy terms, routed by the expert skill's family
    sub_loss = T.Tensor(0.0)
    for part, k in _sub_policy_losses(agent, steps, cfg, weights):
        sub_loss = sub_loss + T.mul(part, k)
    return T.mul(loss + sub_loss, 1.0 / n)


def _subgoal_scores(steps, skills, objs, cfg: ModelConfig):
    """Rung-1 metrics of the predicted skill ids (one per step, or one for
    all) and object ids (one per step); with `objs` None no object is
    judged, so a step counts on its skill alone."""
    label = np.array([(s.skill, s.obj) for s in steps])
    prev = np.array([(s.hl_last_skill, s.hl_last_obj) for s in steps])
    skill_ok = skills == label[:, 0]
    has_obj = label[:, 1] < cfg.num_classes
    obj_ok = np.ones(len(steps), bool) if objs is None else objs == label[:, 1]
    full_ok = skill_ok & (obj_ok | ~has_obj)
    boundary = (label != prev).any(axis=1)
    return {"steps": len(steps), "skill": float(skill_ok.mean()),
            "object_steps": int(has_obj.sum()),
            "object": float(obj_ok[has_obj].mean()) if objs is not None and has_obj.any()
            else None,
            "full": float(full_ok.mean()),
            "balanced_skill": float(np.mean([skill_ok[label[:, 0] == k].mean()
                                             for k in np.unique(label[:, 0])])),
            "boundary_steps": int(boundary.sum()),
            "boundary": float(full_ok[boundary].mean()) if boundary.any() else None}


@T.no_grad()
def subgoal_accuracy(agent, episodes, cfg: ModelConfig):
    """Teacher-forced sub-goal accuracy of the high level over (task
    family, EpisodeBatch) pairs of expert-labelled episodes
    (`run_task_episode_sf` at eps 1).

    Every step counts in the group "all" and in its task family's group,
    except that End and Answer steps count in the groups "End" and
    "Answer".  Per group, of the argmax skill and object: the share of
    steps whose skill is right; over the steps with an object label, their
    count and the share whose object is right (None when there are none);
    full sub-goal accuracy (the skill right, and the object too where
    labelled); class-balanced skill accuracy (mean recall over the skills
    present); and full accuracy over the boundary steps, whose label
    differs from the teacher-forced previous sub-goal, with their count.
    "floors" holds the same metrics of two trivial predictors on the same
    steps: always GoTo, judged on skill alone, and a copy of the previous
    sub-goal."""
    terminal = {int(Skill.End): "End", int(Skill.Answer): "Answer"}
    groups = {}
    for family, episode in episodes:
        skill_logits, obj_logits = high_level_logits(agent, episode, cfg)
        for row in zip(episode.steps, skill_logits.data.argmax(axis=1),
                       obj_logits.data.argmax(axis=1)):
            for group in ("all", terminal.get(row[0].skill, family)):
                groups.setdefault(group, []).append(row)
    report = {}
    for group, rows in groups.items():
        steps, skills, objs = zip(*rows)
        report[group] = _subgoal_scores(steps, np.array(skills), np.array(objs), cfg)
        report[group]["floors"] = {
            "always_goto": _subgoal_scores(steps, int(Skill.GoTo), None, cfg),
            "copy_previous": _subgoal_scores(
                steps, np.array([s.hl_last_skill for s in steps]),
                np.array([s.hl_last_obj for s in steps]), cfg)}
    return report


# --------------------------------------------------------------------------
# skill-episode rollouts (pre-training)


def _record_expert(sample_obs, subgoal, last_action, ex, cfg, family, heat):
    skill, obj = subgoal_ids(cfg, subgoal)
    return _fill_sub_policy_labels(StepSample(
        obs=sample_obs, family=family, skill=skill, obj=obj,
        last_action=action_id(last_action), expert_action=0), ex, cfg, heat)


def run_skill_episode(agent, episode, mode, rng, eps, cfg: ModelConfig,
                      reward_cfg: RewardConfig | None = None,
                      collect_ppo=False):
    """Roll one sampled skill episode with epsilon-mixed control.

    eps = 1 reproduces the expert; eps = 0 is fully on-policy.  Expert
    labels are recorded for every step either way, except the heatmap
    centres of a fully on-policy PPO collection (`collect_ppo` at eps 0):
    only PPO reads its samples, and PPO reads no label.  The episode
    succeeds on the step that completes the skill and otherwise runs to
    the budget; Done is an ordinary step.  A wrong interaction the expert
    cannot undo ends the episode without success.
    """
    sub = episode.subgoal
    family = SKILL_FAMILY[sub.skill]
    space = NAV_ACTION_SPACE if family == "nav" else INTERACT_ACTION_SPACE
    start = episode.initial_state
    samples = []
    memo = ForwardMemo()
    heat = not (collect_ppo and eps == 0)

    def decide(traj, state, ex):
        obs = state.observation
        last = traj.steps[-1].action if traj.steps else None
        sample = _record_expert(obs, sub, last, ex, cfg, family, heat)
        if rng.random() < eps:
            action, point = ex.action, ex.point
            sample.action = sample.expert_action
            sample.cell, sample.delta = sample.expert_cell, sample.expert_delta
        else:
            action, point, extras = sub_policy_step(agent, sub, obs, last, rng,
                                                    greedy=False, memo=memo)
            sample.action = space.index(action)
            if "cell" in extras:
                sample.cell, sample.delta = extras["cell"], extras["delta"]
        samples.append(sample)
        return sub, action, point, False

    # a step that completes the skill ends the episode, so it needs no
    # recovery even when it is not the interaction the expert labelled
    traj = rollout(start, decide, mode, episode.max_steps,
                   ExpertController(single_subgoal_stream(sub, start), mode),
                   lambda state: skill_success(sub, start, state))
    success = traj.terminated == "success"
    if collect_ppo:
        for k, (sample, rec) in enumerate(zip(samples, traj.steps)):
            sample.reward = compute_reward(rec.after, rec.action, rec.point, sub,
                                           rec.expert, success and k == len(samples) - 1,
                                           reward_cfg)
    if samples:
        samples[-1].done = True
    return samples, success, traj.final_state


# --------------------------------------------------------------------------
# PPO


def _policy_logp_value(agent, samples):
    """Joint log-prob of the stored actions (+ grid cell + offset for
    executed interactive actions) and the value estimates.

    The pointing head runs on the interact rows whose executed action
    took a point (`cell >= 0`) and on no other: the other rows' log-probs
    hold no pointing term, so the head's output there would go unread."""
    nav_rows = [i for i, s in enumerate(samples) if s.family == "nav"]
    int_rows = [i for i, s in enumerate(samples) if s.family == "interact"]
    logps, values, ents = [], [], []

    def fill(rows, family):
        subset = [samples[i] for i in rows]
        idx = np.array([j for j, s in enumerate(subset) if s.cell >= 0], dtype=np.intp)
        logits, value, point_maps = _forward(agent, family, subset, point_rows=idx)
        logp_rows = nn.log_prob_rows(logits, [s.action for s in subset])
        ents.append(nn.entropy_rows(logits))
        if point_maps is not None:
            # row k of the point maps is subset row idx[k]
            grid_logits, mu, nu, _ = point_maps
            k = np.arange(len(idx))
            cells = np.array([subset[j].cell for j in idx])
            glogp = nn.log_prob_rows(grid_logits, cells)
            ents.append(nn.entropy_rows(grid_logits))
            mu_sel = T.gather(mu, (k, slice(None), cells))
            nu_sel = T.gather(nu, (k, slice(None), cells))
            deltas = np.array([subset[j].delta for j in idx])
            ll_rows = T.sum_(nn.gaussian_log_terms(deltas, mu_sel, nu_sel), axis=1)
            # row j of point k reads slot 1 + k, every other row the zero slot
            slot = np.zeros(len(subset), dtype=np.intp)
            slot[idx] = k + 1
            zero = np.zeros(1, dtype=T.DEFAULT_DTYPE)
            logp_rows = logp_rows + T.gather(T.concat([zero, glogp + ll_rows]), slot)
        logps.append(logp_rows)
        values.append(value)

    if nav_rows:
        fill(nav_rows, "nav")
    if int_rows:
        fill(int_rows, "interact")
    # sample i sits at position order[i] of the nav-then-interact rows
    order = np.argsort(nav_rows + int_rows)
    logp = T.gather(T.concat(logps), order)
    value = T.gather(T.concat(values), order)
    entropy = ents[0]
    for e in ents[1:]:
        entropy = entropy + e
    return logp, value, entropy


@T.no_grad()
def snapshot_behaviour(agent, samples):
    """Store each sample's log-prob and value under the current policy:
    the behaviour side of the PPO ratio."""
    logp, value, _ = _policy_logp_value(agent, samples)
    for k, s in enumerate(samples):
        s.logp = float(logp.data[k])
        s.value = float(value.data[k])


def compute_gae(rewards, values, dones, gamma, lam):
    n = len(rewards)
    adv = np.zeros(n)
    last = 0.0
    for t in reversed(range(n)):
        next_v = 0.0 if (t == n - 1 or dones[t]) else values[t + 1]
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * (0.0 if dones[t] else last)
        adv[t] = last
    returns = adv + np.asarray(values)
    return adv, returns


def ppo_update(agent, buffer, opt, ppo: PPOConfig, rng):
    """Clipped-surrogate update over a rollout buffer of StepSamples."""
    if not buffer:
        raise EmptyBuffer("no rollout steps")
    adv, returns = compute_gae([s.reward for s in buffer],
                               [s.value for s in buffer],
                               [s.done for s in buffer], ppo.gamma, ppo.lam)
    if adv.std() > 1e-8:
        adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)
    else:
        adv_n = adv - adv.mean()
    old_logp = np.array([s.logp for s in buffer])
    idx_all = np.arange(len(buffer))
    last_loss = 0.0
    for _ in range(ppo.epochs):
        order = rng.permutation(idx_all)
        for start in range(0, len(order), ppo.minibatch):
            mb = order[start:start + ppo.minibatch]
            samples = [buffer[i] for i in mb]
            logp, value, entropy = _policy_logp_value(agent, samples)
            ratio = T.exp(logp - old_logp[mb])
            a = T.Tensor(adv_n[mb])
            un = T.mul(ratio, a)
            cl = T.mul(T.clip(ratio, 1.0 - ppo.clip, 1.0 + ppo.clip), a)
            surrogate = T.mean(_elementwise_min(un, cl))
            v_loss = T.mean(T.square(value - returns[mb]))
            loss = T.mul(surrogate, -1.0) + T.mul(v_loss, ppo.value_weight) \
                - T.mul(entropy, ppo.entropy_weight / max(len(mb), 1))
            opt.zero_grad()
            loss.backward()
            opt.step()
            last_loss = float(loss.item())
    return last_loss


def _elementwise_min(a, b):
    mask = (a.data <= b.data).astype(T.DEFAULT_DTYPE)
    return T.mul(a, mask) + T.mul(b, 1.0 - mask)


# --------------------------------------------------------------------------
# pre-training driver


@dataclass
class PretrainProgress:
    stage: str = "tf"
    steps_done: dict = field(default_factory=lambda: {"tf": 0, "sf": 0, "ppo": 0})
    episodes: int = 0
    # the current stage's samples not yet in an update (TF / SF steps or a
    # PPO rollout); pretrain mutates the list in place
    pending: list = field(default_factory=list, repr=False)


def stage_epsilon(stage, done, budget,
                  schedule: PretrainSchedule | MultitaskSchedule) -> float:
    """Probability of taking the expert's action: 1 in TF, decaying from
    `eps_start` to `eps_end` over the SF budget, 0 in PPO."""
    if stage == "tf":
        return 1.0
    if stage == "sf":
        return epsilon_at(done / max(budget, 1), schedule.eps_start, schedule.eps_end)
    return 0.0


# pretrain grouping -> the skills it samples
SKILL_GROUPS = {"joint": PRETRAIN_SKILLS,
                "interact": tuple(s for s in PRETRAIN_SKILLS if s is not Skill.GoTo),
                "navigate": (Skill.GoTo,)}


def pretrain(agent, templates, schedule: PretrainSchedule, cfg: ModelConfig,
             *, grouping, qa_fraction, vocab, seed=0, mode=InteractionMode.HARD,
             reward_cfg=None, ppo_cfg: PPOConfig | None = None,
             weights: LossWeights | None = None,
             registry=None, world_config=None, on_round=None,
             progress: PretrainProgress | None = None, opt=None,
             rng=None, session=None):
    """TF -> SF -> PPO over continuously sampled skill episodes.

    grouping: a key of SKILL_GROUPS, "joint" (one interact+nav regime),
    "interact" or "navigate", restricts which skills are sampled.  Stages
    with zero steps are skipped.  Returns (optimizer, progress).

    Every stage collects whole episodes into one pending list and updates
    on it once it holds `update_every` samples (TF, SF) or `horizon`
    samples (PPO).  What is left at the stage's end makes one shorter
    update of that stage, so every stage trains on every sample it counts.

    `progress` holds everything a run needs besides (opt, rng, session):
    the current stage, steps and episodes done, and the `pending` samples.
    `on_round(progress)` runs at the end of every round, after any update,
    when these are consistent; an exception raised from it (or a
    KeyboardInterrupt landing there) stops the call, and passing the same
    (progress, opt, rng, session) back in with the same schedule resumes
    the run mid-stage exactly.  The stage-end update runs only when
    `steps_done[stage]` reaches the budget of the schedule passed in.
    """
    rng = rng or np.random.default_rng(np.random.SeedSequence([seed, 77]))
    session = session or SceneSession(templates, seed, registry=registry,
                                      config=world_config)
    skills_pool = SKILL_GROUPS[grouping]
    weights = weights or LossWeights()
    reward_cfg = reward_cfg or RewardConfig()
    ppo_cfg = ppo_cfg or PPOConfig()
    opt = opt or nn.Adam(agent.parameters(), lr=schedule.lr,
                         clip_norm=schedule.grad_clip)
    progress = progress or PretrainProgress()
    pending = progress.pending

    def update(stage):
        if stage == "ppo":
            ppo_update(agent, pending, opt, ppo_cfg, rng)
        else:
            teacher_forcing_update(agent, pending, opt, cfg, weights)
        pending.clear()

    for stage, budget, size in (("tf", schedule.tf_steps, schedule.update_every),
                                ("sf", schedule.sf_steps, schedule.update_every),
                                ("ppo", schedule.ppo_steps, ppo_cfg.horizon)):
        if progress.stage != stage:
            continue
        while progress.steps_done[stage] < budget:
            periodic_reset(session, progress.episodes, schedule.reset_period)
            progress.episodes += 1
            if stage != "ppo" and qa_fraction > 0 and rng.random() < qa_fraction:
                samples = _qa_episode_samples(session, rng, cfg, vocab, mode)
            else:
                try:
                    episode = sample_skill_episode(session.state, rng,
                                                   skills=skills_pool)
                except NoFeasibleSkill:
                    session.reset_scene()
                    continue
                eps = stage_epsilon(stage, progress.steps_done[stage], budget, schedule)
                samples, _succ, _ = run_skill_episode(
                    agent, episode, mode, rng, eps, cfg, reward_cfg,
                    collect_ppo=(stage == "ppo"))
                if stage == "ppo" and samples:
                    snapshot_behaviour(agent, samples)
            pending.extend(samples)
            progress.steps_done[stage] += len(samples)
            if len(pending) >= size:
                update(stage)
            if on_round is not None:
                on_round(progress)
        if pending:
            update(stage)
        progress.stage = {"tf": "sf", "sf": "ppo", "ppo": "done"}[stage]
    return opt, progress


def _qa_episode_samples(session, rng, cfg, vocab, mode):
    """Answer-skill supervision on an IQA task of a uniformly drawn type:
    expert navigates, the QA head is trained on the final frame."""
    template = session.template_for_next()
    seed = int(rng.integers(2 ** 62))
    qtypes = list(TEMPLATES["IQA"])
    qtype = qtypes[int(rng.integers(len(qtypes)))]
    try:
        task = generate_task("IQA", qtype, int(rng.integers(2)), template, seed,
                             rng, registry=session.registry, config=session.config)
    except UnsatisfiableTemplate:
        return []
    traj = replay_expert(task, template, mode, session.registry, session.config)
    if traj.answer != task.answer:
        return []
    tokens = instruction_tokens(task, vocab)
    obs = traj.final_state.observation
    s = StepSample(obs=obs, family="qa", skill=int(Skill.Answer),
                   obj=cfg.num_classes, last_action=NONE_ACTION, expert_action=0,
                   answer_tokens=tokens, answer_label=ANSWER_SPACE.index(task.answer))
    return [s]


# --------------------------------------------------------------------------
# multi-task driver


def group_by_family(episodes) -> dict:
    """family -> its episodes in split order; the input of multi_task_sample."""
    by_family = {}
    for e in episodes:
        by_family.setdefault(e.family, []).append(e)
    return by_family


def multi_task_sample(by_family, rng):
    """Family ~ training counts, episode uniform within the family.
    `by_family` comes from `group_by_family`, built once per run."""
    families = sorted(by_family)
    counts = np.array([len(by_family[f]) for f in families], dtype=float)
    probs = counts / counts.sum()
    fam = families[int(rng.choice(len(families), p=probs))]
    pool = by_family[fam]
    return pool[int(rng.integers(len(pool)))]


def run_task_episode_sf(agent, task, state, mode, rng, eps, cfg, vocab):
    """Multi-task SF rollout: epsilon-mixed actions, recovery-planner
    supervision, per-step high-level labels.  Returns the labelled steps
    and the trajectory, which records no answer: training reads the
    expert's answer label, never the agent's.  At eps = 1 the expert acts
    on every step, so the high level runs no forward."""
    tokens = instruction_tokens(task, vocab)
    agent_acts = eps < 1
    if agent_acts:
        with T.no_grad():
            memo = ForwardMemo(agent.task_enc([tokens]))
        hidden = agent.high.initial_hidden()
    samples = []

    def decide(traj, state, ex):
        nonlocal hidden
        obs = state.observation
        prev = traj.steps[-1] if traj.steps else None
        last_action = None if prev is None else prev.action
        last_sub = None if prev is None else prev.subgoal
        if agent_acts:
            sub, hidden = high_level_step(
                agent, obs, last_action, last_sub, hidden, rng, greedy=False, memo=memo)
        samples.append(_task_sample(obs, ex, last_action, last_sub, task, tokens, cfg))
        if rng.random() < eps:
            sub, action, point = ex.subgoal, ex.action, ex.point
        else:
            action, point, _ = sub_policy_step(agent, sub, obs, last_action, rng,
                                               greedy=False, memo=memo)
        return sub, action, point, sub.skill is Skill.End

    traj = rollout(state, decide, mode, task.max_steps,
                   ExpertController(remaining_fn(task), mode))
    return samples, traj


def _task_sample(obs, ex, last_action, last_sub, task, tokens, cfg):
    """High-level labels of one multi-task step, plus the sub-policy labels
    of the expert skill's family (End has none).  The expert labels Answer
    only on IQA tasks, and every IQA task carries its answer."""
    family = SKILL_FAMILY[ex.subgoal.skill]
    skill, obj = subgoal_ids(cfg, ex.subgoal)
    last_skill, last_obj = subgoal_ids(cfg, last_sub)
    sample = StepSample(
        obs=obs, family=family, skill=skill, obj=obj,
        last_action=action_id(last_action), expert_action=0,
        hl_last_skill=last_skill, hl_last_obj=last_obj)
    if family == "qa":
        sample.answer_tokens = tokens
        sample.answer_label = ANSWER_SPACE.index(task.answer)
    elif family != "end":
        _fill_sub_policy_labels(sample, ex, cfg)
    return sample


def train_multitask(agent, split, templates_by_id, schedule: MultitaskSchedule,
                    cfg: ModelConfig, vocab, seed=0,
                    mode=InteractionMode.HARD, weights=None,
                    registry=None, world_config=None, single_family=None, *,
                    episodes_per_update, on_round=None):
    """Joint fine-tuning: TF then SF, high-level and gated sub-policy
    losses per step, recovery planner active during SF.  An update averages
    `episodes_per_update` episodes; the episodes left at a stage's end make
    one shorter update of that stage.  `agent.frozen_after_pretrain()`
    requires no gradient during the call, so backward computes none for it
    and Adam leaves it as it was."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 311]))
    weights = weights or LossWeights()
    opt_hl = nn.Adam(agent.level_params(high=True), lr=schedule.lr_high,
                     clip_norm=schedule.grad_clip)
    opt_sub = nn.Adam(agent.level_params(high=False), lr=schedule.lr_sub,
                      clip_norm=schedule.grad_clip)
    episodes = split.episodes
    if single_family:
        episodes = [e for e in episodes if e.family == single_family]
    by_family = group_by_family(episodes)
    steps_done = {"tf": 0, "sf": 0}
    pending: list[EpisodeBatch] = []

    def update():
        loss = T.Tensor(0.0)
        for ep in pending:
            loss = loss + multitask_episode_loss(agent, ep, cfg, weights)
        opt_hl.zero_grad()
        opt_sub.zero_grad()
        T.mul(loss, 1.0 / len(pending)).backward()
        opt_hl.step()
        opt_sub.step()
        pending.clear()

    frozen = agent.frozen_after_pretrain()
    for p in frozen:
        p.requires_grad = False
    try:
        for stage, budget in (("tf", schedule.tf_steps), ("sf", schedule.sf_steps)):
            while steps_done[stage] < budget:
                task = multi_task_sample(by_family, rng)
                template = templates_by_id[task.scene_template_id]
                state = task_initial_state(task, template, registry=registry,
                                           config=world_config)
                steps, _traj = run_task_episode_sf(
                    agent, task, state, mode, rng,
                    stage_epsilon(stage, steps_done[stage], budget, schedule), cfg, vocab)
                if not steps:
                    continue
                pending.append(EpisodeBatch(task_tokens=instruction_tokens(task, vocab),
                                            steps=steps))
                steps_done[stage] += len(steps)
                if len(pending) >= episodes_per_update:
                    update()
                if on_round is not None:
                    on_round(stage, steps_done)
            if pending:
                update()
    finally:
        for p in frozen:
            p.requires_grad = True
    return opt_hl, opt_sub