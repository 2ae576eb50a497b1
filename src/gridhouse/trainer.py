"""Three-stage skill pre-training (teacher forcing -> student forcing ->
PPO with shaped auxiliary rewards) and joint multi-task fine-tuning with
the recovery planner and proportional episode sampling.

Rollout workers are plain objects executed synchronously (collect ->
update -> continue); with one worker and fixed seeds every run is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn, tensor as T
from .agents import (ANSWER_SPACE, INTERACT_ACTION_SPACE, INTERACT_INDEX,
                     NAV_ACTION_SPACE, NAV_INDEX, NONE_ACTION, NONE_SKILL,
                     SKILL_FAMILY, ModelConfig, _replicate_concat,
                     high_level_step, obs_planes, qa_answer, sub_policy_step)
from .episodes import rollout, run_expert_episode
from .planner import ExpertController, single_subgoal_stream
from .skills import (NoFeasibleSkill, PRETRAIN_SKILLS, SceneSession, Skill,
                     periodic_reset, sample_skill_episode, skill_success)
from .tasks import remaining_fn as task_remaining_fn
from .tasks import task_initial_state, tokenize
# `env_step` stays bound: the benchmark's tracer finds `world.step` through
# this alias too (perfbench/tests/test_spans.py)
from .world import (CLASS_BASE, INTERACTIVE_ACTIONS, InteractionMode,
                    PrimitiveAction, cached_geometry, cached_render, is_visible,
                    step as env_step)


class MissingLabels(ValueError):
    pass


class EmptyBuffer(ValueError):
    pass


# --------------------------------------------------------------------------
# configs


@dataclass
class RewardConfig:
    weights: tuple = (20.0, 1.0, 1.0, 0.5)   # success, visible, act, point
    sigma_point: float = 1.0                 # cells; reward kernel width


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
    gaussian: float = 0.1    # lambda_g on the offset log-likelihood
    focal: float = 1.0
    l1: float = 1.0


@dataclass
class ScheduleConfig:
    tf_steps: int = 200_000
    sf_steps: int = 200_000
    ppo_steps: int = 400_000
    eps_start: float = 1.0
    eps_end: float = 0.0
    lr: float = 3e-4
    lr_sub: float = 3e-5
    reset_period: int = 10
    update_every: int = 64
    grad_clip: float = 0.5


def epsilon_at(progress: float, start: float, end: float) -> float:
    """Linear decay; exact at the endpoints."""
    progress = min(max(progress, 0.0), 1.0)
    return start + progress * (end - start)


# --------------------------------------------------------------------------
# rewards


def compute_reward(state_after, action, point, subgoal, expert_step,
                   success: bool, cfg: RewardConfig | None = None,
                   target_visible: bool | None = None) -> float:
    """Weighted shaped reward w . [success, visible, act, point].

    The act term counts for any action equal to the expert's, navigation
    or interaction alike.  The point term applies only to interactive
    skills (not GoTo, Answer or End) when both points are given; it is a
    Gaussian kernel of the distance to the expert's point, 1 at that
    point, so it adds at most w_point.
    """
    cfg = cfg or RewardConfig()
    w = cfg.weights
    r_success = 1.0 if success else 0.0
    if target_visible is None:
        target_visible = False
        if subgoal.object_class is not None:
            geom = cached_geometry(state_after)
            target_visible = any(
                o.instance_id in geom.display_cells and
                is_visible(state_after, o.instance_id, geom)
                for o in state_after.instances_of(subgoal.object_class))
    r_visible = 1.0 if target_visible else 0.0
    r_act = 1.0 if action == expert_step.action else 0.0
    r_point = 0.0
    interactive_skill = subgoal.skill not in (Skill.GoTo, Skill.Answer, Skill.End)
    if interactive_skill and point is not None and expert_step.point is not None:
        d2 = ((point[0] - expert_step.point[0]) ** 2
              + (point[1] - expert_step.point[1]) ** 2)
        cell_px = state_after.config.obs_size / 8.0
        sigma = cfg.sigma_point * cell_px / 2.0  # one world cell ~ upsample px
        r_point = math.exp(-d2 / (2.0 * sigma * sigma))
    return w[0] * r_success + w[1] * r_visible + w[2] * r_act + w[3] * r_point


# --------------------------------------------------------------------------
# step records


@dataclass
class StepSample:
    obs: object
    family: str                      # nav | interact | qa
    skill: int
    obj: int                         # conditioning object id (or C = none)
    last_action: int                 # id in the 14-way embedding space
    expert_action: int               # index in the family's action space
    expert_interactive: bool = False
    expert_cell: int = -1            # expert grid cell index
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
    # multi-task extras
    hl_skill_label: int = -1
    hl_obj_label: int = -1           # -1: no object term (Answer/End)
    hl_last_action: int = NONE_ACTION
    hl_last_skill: int = NONE_SKILL
    hl_last_obj: int = -1
    answer_tokens: list | None = None
    answer_label: int = -1


def heat_centers(obs, cfg: ModelConfig):
    """Per-visible-instance (class, center, radius) in pointing-grid units."""
    scale = cfg.obs_size / cfg.grid
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
    px = cfg.cell_px
    x_idx = min(int(point[0] // px), cfg.grid - 1)
    y_idx = min(int(point[1] // px), cfg.grid - 1)
    cell = y_idx * cfg.grid + x_idx
    cx = px * x_idx + px / 2.0
    cy = px * y_idx + px / 2.0
    return cell, (point[0] - cx, point[1] - cy)


def _expert_action_index(family, action):
    if family == "nav":
        return NAV_INDEX[action]
    return INTERACT_INDEX[action]


# --------------------------------------------------------------------------
# supervised losses


def _interact_loss(policy, samples, cfg: ModelConfig,
                   weights: LossWeights, focal_cfg=None):
    """Eq.-style interaction loss over a batch of steps: action CE, grid
    CE + weighted offset log-likelihood on expert-interactive steps, and
    the focal/L1 auxiliary losses on every step."""
    obs_batch = [s.obs for s in samples]
    cmap, planes = obs_planes(obs_batch, cfg.num_classes)
    sub = policy["sub"]
    z_img = policy["encoder"](cmap, planes)
    cond = sub.conditioning([s.last_action for s in samples],
                            [s.skill for s in samples], [s.obj for s in samples])
    logits, _value, point_maps = sub.forward(cond, z_img)
    n = len(samples)
    total = T.mul(nn.cross_entropy_rows(logits, [s.expert_action for s in samples]),
                  weights.action_ce)
    grid_logits, mu, nu, heat = point_maps
    rows = [i for i, s in enumerate(samples) if s.expert_interactive]
    if rows:
        cells = np.array([samples[i].expert_cell for i in rows])
        picked = T.gather(grid_logits, (np.array(rows), slice(None)))
        total = total + T.mul(nn.cross_entropy_rows(picked, cells), weights.grid_ce)
        mu_sel = T.gather(mu, (np.array(rows), slice(None), cells))
        nu_sel = T.gather(nu, (np.array(rows), slice(None), cells))
        deltas = np.array([samples[i].expert_delta for i in rows])
        ll = nn.gaussian_log_likelihood(deltas, mu_sel, nu_sel)
        total = total + T.mul(ll, -weights.gaussian)
    # auxiliary heatmap + offset losses over all visible object centers,
    # batched across the whole step batch
    heats = np.zeros((n, cfg.num_classes, cfg.grid, cfg.grid), dtype=T.DEFAULT_DTYPE)
    inv_m = np.zeros(n, dtype=T.DEFAULT_DTYPE)
    l1_rows, l1_cells, l1_offs, l1_w = [], [], [], []
    for i, s in enumerate(samples):
        if not s.centers:
            continue
        tgt = nn.gaussian_kernel_targets(s.centers, (cfg.num_classes, cfg.grid, cfg.grid),
                                         focal_cfg)
        heats[i] = tgt.heat
        inv_m[i] = 1.0 / max(tgt.num_centers, 1)
        for cls, (ix, iy), (ox, oy) in tgt.centers:
            l1_rows.append(i)
            l1_cells.append(ix + iy * cfg.grid)
            l1_offs.append((ox * cfg.cell_px, oy * cfg.cell_px))
            l1_w.append(inv_m[i])
    if inv_m.any():
        total = total + T.mul(nn.focal_loss_batched(heat, heats, inv_m), weights.focal)
        mu_sel = T.gather(mu, (np.array(l1_rows), slice(None), np.array(l1_cells)))
        l1 = T.sum_(T.abs_(mu_sel - np.array(l1_offs)), axis=1)
        total = total + T.mul(T.sum_(T.mul(l1, np.array(l1_w))), weights.l1)
    return T.mul(total, 1.0 / max(n, 1))


def _nav_loss(policy, samples, cfg, weights):
    obs_batch = [s.obs for s in samples]
    cmap, planes = obs_planes(obs_batch, cfg.num_classes)
    z_img = policy["encoder"](cmap, planes)
    sub = policy["sub"]
    cond = sub.conditioning([s.last_action for s in samples],
                            [s.skill for s in samples],
                            [s.obj for s in samples])
    logits, _value, _ = sub.forward(cond, z_img)
    ce = nn.cross_entropy_rows(logits, [s.expert_action for s in samples])
    return T.mul(T.mul(ce, weights.action_ce), 1.0 / len(samples))


def _qa_loss(agent, samples, cfg):
    qa = agent.qa
    q = qa.encode_question([s.answer_tokens for s in samples])
    cmap, planes = obs_planes([s.obs for s in samples], cfg.num_classes)
    z_img = agent.sub_encoder(cmap, planes)
    logits = qa.forward(q, z_img)
    ce = nn.cross_entropy_rows(logits, [s.answer_label for s in samples])
    return T.mul(ce, 1.0 / len(samples))


def teacher_forcing_update(agent, samples, opt, cfg: ModelConfig,
                           weights: LossWeights | None = None, stage="pretrain",
                           hl_batches=None, opt_hl=None):
    """One supervised optimizer step on a batch of recorded steps.

    Pre-training: the per-family sub-policy losses.  Multi-task: adds the
    high-level skill/object CE terms (see `multitask_episode_loss`).
    """
    weights = weights or LossWeights()
    nav = [s for s in samples if s.family == "nav"]
    inter = [s for s in samples if s.family == "interact"]
    qa = [s for s in samples if s.family == "qa"]
    if not (nav or inter or qa or hl_batches):
        raise MissingLabels("empty batch")
    loss = T.Tensor(0.0)
    parts = 0
    if inter:
        loss = loss + _interact_loss(
            {"encoder": agent.sub_encoder, "sub": agent.interact}, inter, cfg, weights)
        parts += 1
    if nav:
        loss = loss + _nav_loss({"encoder": agent.nav_image_encoder(), "sub": agent.nav},
                                nav, cfg, weights)
        parts += 1
    if qa:
        loss = loss + _qa_loss(agent, qa, cfg)
        parts += 1
    if hl_batches:
        for episode in hl_batches:
            loss = loss + multitask_episode_loss(agent, episode, cfg, weights)
        parts += len(hl_batches)
    opt.zero_grad()
    if opt_hl is not None:
        opt_hl.zero_grad()
    loss.backward()
    opt.step()
    if opt_hl is not None:
        opt_hl.step()
    return float(loss.item())


# --------------------------------------------------------------------------
# multi-task episode loss (Eq.-5 shape)


@dataclass
class EpisodeBatch:
    task_tokens: list
    steps: list                       # StepSample with hl_* fields set


def multitask_episode_loss(agent, episode: EpisodeBatch, cfg: ModelConfig,
                           weights: LossWeights):
    """High-level skill/object CE plus the indicator-gated sub-policy loss,
    averaged over the episode's steps."""
    steps = episode.steps
    n = len(steps)
    if n == 0:
        raise MissingLabels("empty episode")
    z_task = agent.task_enc([episode.task_tokens])
    cmap, planes = obs_planes([s.obs for s in steps], cfg.num_classes)
    z_img = agent.hl_encoder(cmap, planes)
    ctx = agent.high.context(
        T.mul(z_task, np.ones((n, 1), dtype=T.DEFAULT_DTYPE)),
        [s.hl_last_action for s in steps],
        [s.hl_last_skill for s in steps],
        [cfg.num_classes if s.hl_last_obj < 0 else s.hl_last_obj for s in steps])
    feat = _replicate_concat(ctx, z_img)
    flat = T.reshape(feat, (n, feat.shape[1] * feat.shape[2] * feat.shape[3]))
    hs = nn.gru_sequence(agent.high.gru, flat,
                         np.zeros(cfg.hidden, dtype=T.DEFAULT_DTYPE))
    skill_logits = agent.high.skill_head(hs)
    obj_logits = agent.high.obj_head(hs)
    loss = nn.cross_entropy_rows(skill_logits, [s.hl_skill_label for s in steps])
    obj_rows = [i for i, s in enumerate(steps) if s.hl_obj_label >= 0]
    if obj_rows:
        picked = T.gather(obj_logits, (np.array(obj_rows), slice(None)))
        loss = loss + nn.cross_entropy_rows(
            picked, [steps[i].hl_obj_label for i in obj_rows])
    # indicator-gated sub-policy terms, routed by the expert skill's family
    nav = [s for s in steps if s.family == "nav"]
    inter = [s for s in steps if s.family == "interact"]
    qa = [s for s in steps if s.family == "qa"]
    sub_loss = T.Tensor(0.0)
    if inter:
        sub_loss = sub_loss + T.mul(_interact_loss(
            {"encoder": agent.sub_encoder, "sub": agent.interact},
            inter, cfg, weights), len(inter))
    if nav:
        sub_loss = sub_loss + T.mul(
            _nav_loss({"encoder": agent.nav_image_encoder(), "sub": agent.nav},
                      nav, cfg, weights), len(nav))
    if qa:
        sub_loss = sub_loss + T.mul(_qa_loss(agent, qa, cfg), len(qa))
    return T.mul(loss + sub_loss, 1.0 / n)


# --------------------------------------------------------------------------
# skill-episode rollouts (pre-training)


def _record_expert(sample_obs, subgoal, last_action, ex, cfg, family):
    s = StepSample(
        obs=sample_obs, family=family,
        skill=int(subgoal.skill),
        obj=cfg.num_classes if subgoal.object_class is None else subgoal.object_class,
        last_action=last_action,
        expert_action=_expert_action_index(family, ex.action))
    if family == "interact" and ex.action in INTERACTIVE_ACTIONS and ex.point is not None:
        s.expert_interactive = True
        s.expert_cell, s.expert_delta = expert_cell_delta(ex.point, cfg)
    s.centers = heat_centers(sample_obs, cfg)
    return s


def run_skill_episode(agent, episode, mode, rng, eps, cfg: ModelConfig,
                      reward_cfg: RewardConfig | None = None,
                      collect_ppo=False):
    """Roll one sampled skill episode with epsilon-mixed control.

    eps = 1 reproduces the expert; eps = 0 is fully on-policy.  Expert
    labels are recorded for every step either way.  A wrong interaction
    the expert cannot undo ends the episode without success.
    """
    sub = episode.subgoal
    family = SKILL_FAMILY[sub.skill]
    space = NAV_ACTION_SPACE if family == "nav" else INTERACT_ACTION_SPACE
    start = episode.initial_state
    samples = []

    def decide(traj, state, obs, ex):
        last = traj.steps[-1].action if traj.steps else None
        sample = _record_expert(obs, sub, NONE_ACTION if last is None else int(last),
                                ex, cfg, family)
        if rng.random() < eps:
            action, point = ex.action, ex.point
            sample.action = sample.expert_action
            sample.cell, sample.delta = sample.expert_cell, sample.expert_delta
        else:
            action, point, extras = sub_policy_step(agent, sub, obs, last, rng,
                                                    greedy=False)
            sample.action = space.index(action)
            if "cell" in extras:
                sample.cell, sample.delta = extras["cell"], extras["delta"]
        samples.append(sample)
        return sub, action, point, (action is PrimitiveAction.Done
                                    and ex.subgoal.skill is Skill.End)

    # a step that completes the skill ends the episode, so it needs no
    # recovery even when it is not the interaction the expert labelled
    succeeded = (None if sub.skill is Skill.End
                 else lambda state: skill_success(sub, start, state))
    traj = rollout(start, decide, mode, episode.max_steps,
                   ExpertController(start, single_subgoal_stream(sub, start), mode),
                   succeeded)
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


def _policy_logp_value(agent, samples, cfg):
    """Joint log-prob of the stored actions (+ grid cell + offset for
    executed interactive actions) and the value estimates."""
    nav_rows = [i for i, s in enumerate(samples) if s.family == "nav"]
    int_rows = [i for i, s in enumerate(samples) if s.family == "interact"]
    logps, values, ents = [], [], []

    def fill(rows, sub, encoder):
        subset = [samples[i] for i in rows]
        cmap, planes = obs_planes([s.obs for s in subset], cfg.num_classes)
        z_img = encoder(cmap, planes)
        cond = sub.conditioning([s.last_action for s in subset],
                                [s.skill for s in subset],
                                [s.obj for s in subset])
        logits, value, point_maps = sub.forward(cond, z_img)
        logp_rows = nn.log_prob_rows(logits, [s.action for s in subset])
        ents.append(nn.entropy_rows(logits))
        extra = [(j, s) for j, s in enumerate(subset)
                 if s.cell >= 0 and sub.pointing is not None]
        if extra:
            grid_logits, mu, nu, _ = point_maps
            idx = np.array([j for j, _ in extra])
            cells = np.array([s.cell for _, s in extra])
            g = T.gather(grid_logits, (idx, slice(None)))
            glogp = nn.log_prob_rows(g, cells)
            ents.append(nn.entropy_rows(g))
            mu_sel = T.gather(mu, (idx, slice(None), cells))
            nu_sel = T.gather(nu, (idx, slice(None), cells))
            deltas = np.array([s.delta for _, s in extra])
            ll_rows = T.sum_(nn.gaussian_log_terms(deltas, mu_sel, nu_sel), axis=1)
            scatter = np.zeros((len(subset), len(extra)), dtype=T.DEFAULT_DTYPE)
            for k, (j, _) in enumerate(extra):
                scatter[j, k] = 1.0
            glogp = T.matmul(T.Tensor(scatter), glogp + ll_rows)
            logp_rows = logp_rows + glogp
        logps.append(logp_rows)
        values.append(value)

    if nav_rows:
        fill(nav_rows, agent.nav, agent.nav_image_encoder())
    if int_rows:
        fill(int_rows, agent.interact, agent.sub_encoder)
    # sample i sits at position order[i] of the nav-then-interact rows
    order = np.argsort(nav_rows + int_rows)
    logp = T.gather(T.concat(logps), order)
    value = T.gather(T.concat(values), order)
    entropy = ents[0]
    for e in ents[1:]:
        entropy = entropy + e
    return logp, value, entropy


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


def ppo_update(agent, buffer, opt, cfg: ModelConfig, ppo: PPOConfig, rng):
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
            logp, value, entropy = _policy_logp_value(agent, samples, cfg)
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
    # samples collected but not yet in an update; pretrain mutates both lists
    batch: list = field(default_factory=list, repr=False)        # TF / SF
    ppo_buffer: list = field(default_factory=list, repr=False)   # PPO rollout


def pretrain(agent, templates, schedule: ScheduleConfig, cfg: ModelConfig,
             seed=0, mode=InteractionMode.HARD, grouping="joint",
             qa_fraction=0.08, vocab=None, reward_cfg=None,
             ppo_cfg: PPOConfig | None = None, weights: LossWeights | None = None,
             registry=None, world_config=None, on_round=None,
             progress: PretrainProgress | None = None, opt=None,
             rng=None, session=None):
    """TF -> SF -> PPO over continuously sampled skill episodes.

    grouping: "joint" (one interact+nav regime), "interact", or "navigate"
    restricts which skills are sampled.  Stages with zero steps are
    skipped.  Returns (optimizer, progress).

    `progress` holds everything a run needs besides (opt, rng, session):
    the current stage, steps and episodes done, and the samples collected
    but not yet used by an update (`batch` for TF/SF, `ppo_buffer` for
    PPO).  `on_round(progress)` runs at the end of every round, after any
    update, when these are consistent; an exception raised from it (or a
    KeyboardInterrupt landing there) stops the call, and passing the same
    (progress, opt, rng, session) back in with the same schedule resumes
    the run mid-stage exactly.  The partial `batch` is flushed as a short
    update, and the leftover `ppo_buffer` (fewer than `horizon` samples)
    is dropped, only when `steps_done[stage]` reaches the budget of the
    schedule passed in, i.e. at that schedule's real stage end.
    """
    rng = rng or np.random.default_rng(np.random.SeedSequence([seed, 77]))
    session = session or SceneSession(templates, seed, registry=registry,
                                      config=world_config)
    skills_pool = {"joint": PRETRAIN_SKILLS,
                   "interact": tuple(s for s in PRETRAIN_SKILLS if s is not Skill.GoTo),
                   "navigate": (Skill.GoTo,)}[grouping]
    weights = weights or LossWeights()
    reward_cfg = reward_cfg or RewardConfig()
    ppo_cfg = ppo_cfg or PPOConfig()
    opt = opt or nn.Adam(agent.parameters(), lr=schedule.lr,
                         clip_norm=schedule.grad_clip)
    progress = progress or PretrainProgress()
    batch, ppo_buffer = progress.batch, progress.ppo_buffer

    for stage, budget in (("tf", schedule.tf_steps), ("sf", schedule.sf_steps),
                          ("ppo", schedule.ppo_steps)):
        if progress.stage != stage:
            continue
        while progress.steps_done[stage] < budget:
            periodic_reset(session, progress.episodes, schedule.reset_period)
            progress.episodes += 1
            if qa_fraction > 0 and rng.random() < qa_fraction and stage != "ppo":
                qa_samples = _qa_episode_samples(session, rng, cfg, vocab, mode,
                                                 registry, world_config)
                if qa_samples:
                    batch.extend(qa_samples)
                    progress.steps_done[stage] += len(qa_samples)
            else:
                try:
                    episode = sample_skill_episode(session.state, rng,
                                                   skills=skills_pool)
                except NoFeasibleSkill:
                    session.reset_scene()
                    continue
                if stage == "tf":
                    eps = 1.0
                elif stage == "sf":
                    eps = epsilon_at(progress.steps_done["sf"] / max(budget, 1),
                                     schedule.eps_start, schedule.eps_end)
                else:
                    eps = 0.0
                samples, _succ, _ = run_skill_episode(
                    agent, episode, mode, rng, eps, cfg, reward_cfg,
                    collect_ppo=(stage == "ppo"))
                if stage == "ppo":
                    if samples:
                        with T.no_grad():
                            logp, value, _ = _policy_logp_value(agent, samples, cfg)
                        for k, s in enumerate(samples):
                            s.logp = float(logp.data[k])
                            s.value = float(value.data[k])
                    ppo_buffer.extend(samples)
                else:
                    batch.extend(samples)
                progress.steps_done[stage] += len(samples)
            if stage != "ppo" and len(batch) >= schedule.update_every:
                teacher_forcing_update(agent, batch, opt, cfg, weights)
                batch.clear()
            if stage == "ppo" and len(ppo_buffer) >= ppo_cfg.horizon:
                ppo_update(agent, ppo_buffer, opt, cfg, ppo_cfg, rng)
                ppo_buffer.clear()
            if on_round is not None:
                on_round(progress)
        if batch:
            teacher_forcing_update(agent, batch, opt, cfg, weights)
            batch.clear()
        ppo_buffer.clear()   # a PPO remainder shorter than one horizon
        nxt = {"tf": "sf", "sf": "ppo", "ppo": "done"}[stage]
        progress.stage = nxt
    return opt, progress


def _qa_episode_samples(session, rng, cfg, vocab, mode, registry, world_config):
    """Answer-skill supervision: expert navigates, the QA head is trained
    on the final frame."""
    from .tasks import generate_task, UnsatisfiableTemplate, remaining_fn

    template = session.template_for_next()
    seed = int(rng.integers(2 ** 62))
    qtype = ("state", "existence", "counting")[int(rng.integers(3))]
    try:
        task = generate_task("IQA", qtype, int(rng.integers(2)), template, seed,
                             rng, registry=registry, config=world_config)
    except UnsatisfiableTemplate:
        return []
    state = task_initial_state(task, template, registry=registry,
                               config=world_config)
    traj = run_expert_episode(state, remaining_fn(task), mode,
                              max_steps=task.max_steps, expected_answer=task.answer)
    if traj.answer != task.answer or traj.final_state is None:
        return []
    tokens = [vocab.get(t, 1) for t in tokenize(task.instruction)] if vocab else [1]
    obs = cached_render(traj.final_state)
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
    and the trajectory."""
    tokens = [vocab.get(t, 1) for t in tokenize(task.instruction)]
    with T.no_grad():
        z_task = agent.task_enc([tokens])
    hidden = agent.high.initial_hidden(1)
    samples = []

    def decide(traj, state, obs, ex):
        nonlocal hidden
        prev = traj.steps[-1] if traj.steps else None
        last_action = None if prev is None else prev.action
        last_sub = None if prev is None else prev.subgoal
        sampled_sub, _logits, hidden = high_level_step(
            agent, z_task, obs, last_action, last_sub, hidden, rng, greedy=False)
        use_expert = rng.random() < eps
        samples.append(_task_sample(obs, ex, last_action, last_sub, task, tokens, cfg))
        if use_expert:
            if ex.subgoal.skill is Skill.Answer:
                traj.answer = task.answer
            return ex.subgoal, ex.action, ex.point, (ex.action is PrimitiveAction.Done
                                                     and ex.subgoal.skill is Skill.End)
        family = SKILL_FAMILY[sampled_sub.skill]
        if family == "qa" and task.family == "IQA" and traj.answer is None:
            probs = qa_answer(agent, tokens, obs)
            traj.answer = ANSWER_SPACE[int(rng.choice(len(probs), p=probs))]
        if family in ("qa", "end"):
            return sampled_sub, PrimitiveAction.Done, None, family == "end"
        action, point, _ = sub_policy_step(agent, sampled_sub, obs, last_action, rng,
                                           greedy=False)
        return sampled_sub, action, point, False

    traj = rollout(state, decide, mode, task.max_steps,
                   ExpertController(state, task_remaining_fn(task), mode))
    return [s for s in samples if s.family != "none"], traj


def _task_sample(obs, ex, last_action, last_sub, task, tokens, cfg):
    """High-level labels of one multi-task step, plus the sub-policy labels
    of the expert skill's family ("none" for End, and for Answer without
    a known answer)."""
    hl_skill = int(ex.subgoal.skill)
    hl_obj = -1 if ex.subgoal.object_class is None else ex.subgoal.object_class
    family = SKILL_FAMILY[ex.subgoal.skill]
    last_action = NONE_ACTION if last_action is None else int(last_action)
    last_skill = NONE_SKILL if last_sub is None else int(last_sub.skill)
    last_obj = (-1 if last_sub is None or last_sub.object_class is None
                else last_sub.object_class)
    sample = StepSample(
        obs=obs, family=family, skill=hl_skill,
        obj=cfg.num_classes if hl_obj < 0 else hl_obj,
        last_action=last_action, expert_action=0,
        hl_skill_label=hl_skill, hl_obj_label=hl_obj,
        hl_last_action=last_action, hl_last_skill=last_skill, hl_last_obj=last_obj)
    if family == "end":
        sample.family = "none"
    elif family == "qa":
        sample.answer_tokens = tokens
        sample.answer_label = ANSWER_SPACE.index(task.answer) if task.answer else -1
        if sample.answer_label < 0:
            sample.family = "none"
    else:
        sample.expert_action = _expert_action_index(family, ex.action)
        if family == "interact" and ex.action in INTERACTIVE_ACTIONS and ex.point:
            sample.expert_interactive = True
            sample.expert_cell, sample.expert_delta = expert_cell_delta(ex.point, cfg)
        sample.centers = heat_centers(obs, cfg)
    return sample


def train_multitask(agent, split, templates_by_id, schedule: ScheduleConfig,
                    cfg: ModelConfig, vocab, seed=0,
                    mode=InteractionMode.HARD, weights=None,
                    registry=None, world_config=None, single_family=None,
                    episodes_per_update=2, on_round=None):
    """Joint fine-tuning: TF then SF, high-level and gated sub-policy
    losses per step, recovery planner active during SF."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 311]))
    weights = weights or LossWeights()
    opt_hl = nn.Adam(agent.high_level_params(), lr=schedule.lr,
                     clip_norm=schedule.grad_clip)
    opt_sub = nn.Adam(agent.sub_policy_params(), lr=schedule.lr_sub,
                      clip_norm=schedule.grad_clip)
    opt_sub.freeze(agent.frozen_after_pretrain())
    episodes = split.episodes if hasattr(split, "episodes") else list(split)
    if single_family:
        episodes = [e for e in episodes if e.family == single_family]
    by_family = group_by_family(episodes)
    steps_done = {"tf": 0, "sf": 0}
    pending: list[EpisodeBatch] = []
    for stage, budget in (("tf", schedule.tf_steps), ("sf", schedule.sf_steps)):
        while steps_done[stage] < budget:
            task = multi_task_sample(by_family, rng)
            template = templates_by_id[task.scene_template_id]
            state = task_initial_state(task, template, registry=registry,
                                       config=world_config)
            if stage == "tf":
                eps = 1.0
            else:
                eps = epsilon_at(steps_done["sf"] / max(budget, 1),
                                 schedule.eps_start, schedule.eps_end)
            steps, _traj = run_task_episode_sf(agent, task, state, mode, rng,
                                               eps, cfg, vocab)
            if not steps:
                continue
            tokens = [vocab.get(t, 1) for t in tokenize(task.instruction)]
            pending.append(EpisodeBatch(task_tokens=tokens, steps=steps))
            steps_done[stage] += len(steps)
            if len(pending) >= episodes_per_update:
                loss = T.Tensor(0.0)
                for ep in pending:
                    loss = loss + multitask_episode_loss(agent, ep, cfg, weights)
                loss = T.mul(loss, 1.0 / len(pending))
                opt_hl.zero_grad()
                opt_sub.zero_grad()
                loss.backward()
                opt_hl.step()
                opt_sub.step()
                pending = []
            if on_round is not None:
                on_round(stage, steps_done)
    return opt_hl, opt_sub