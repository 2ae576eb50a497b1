"""Hierarchical policy: sub-goal head + navigation/interaction/QA
sub-policies with the grid+offset pointing head.

Shapes follow the desk-scale defaults: observations encode to a d x w x h
feature map whose spatial grid coincides with the 8x8 pointing grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .episodes import rollout
from .nn import Conv2d, Embedding, GRUCell, Linear, Module
from .skills import NO_OBJECT_SKILLS, Skill, SubGoal
from .tasks import tokenize
from .world import (CLASS_BASE, INTERACTIVE_ACTIONS, NAV_ACTION_SPACE,
                    InteractionMode, PrimitiveAction)

INTERACT_ACTION_SPACE = tuple(PrimitiveAction)  # all 13
ANSWER_SPACE = ("Yes", "No", "0", "1", "2", "3")

NAV_INDEX = {a: i for i, a in enumerate(NAV_ACTION_SPACE)}
INTERACT_INDEX = {a: i for i, a in enumerate(INTERACT_ACTION_SPACE)}


@dataclass
class ModelConfig:
    num_classes: int
    vocab_size: int
    obs_size: int = 32
    d: int = 64            # feature dim of the conv map
    grid: int = 8          # w = h = pointing grid B
    hidden: int = 128      # high-level GRU width
    task_dim: int = 64
    token_dim: int = 32
    ctx_dim: int = 16      # last-action / sub-goal embedding width
    cond_dim: int = 64
    trunk_dim: int = 128
    point_dim: int = 48
    enc_mid: int = 24
    share_sub_encoder: bool = True

    @property
    def cell_px(self) -> float:
        return self.obs_size / self.grid


def obs_planes(obs_batch, num_classes):
    """Stack observation channels into float planes (N, 6, H, W); the class
    id plane is embedded by the encoder."""
    class_maps = np.stack([o.class_map for o in obs_batch])
    bits = np.stack([o.state_bits for o in obs_batch])
    depth = np.stack([o.depth_map for o in obs_batch])
    return class_maps.astype(np.int64), np.concatenate(
        [bits.astype(T.DEFAULT_DTYPE),
         (depth[:, None, :, :] / 16.0).astype(T.DEFAULT_DTYPE)], axis=1)


class GridEncoder(Module):
    """Symbolic-observation encoder: class embedding + state/depth planes
    through two strided convolutions down to (d, grid, grid)."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.cls_emb = self.add_child("cls_emb", Embedding(rng, cfg.num_classes + CLASS_BASE, 8))
        self.conv1 = self.add_child("conv1", Conv2d(rng, 8 + 5, cfg.enc_mid, k=3, stride=2, pad=1))
        self.conv2 = self.add_child("conv2", Conv2d(rng, cfg.enc_mid, cfg.d, k=3, stride=2, pad=1))

    def __call__(self, class_maps, planes):
        emb = _nhwc_to_nchw(self.cls_emb(class_maps))
        x = T.concat([emb, T.Tensor(planes)], axis=1)
        x = T.relu(self.conv1(x))
        return T.relu(self.conv2(x))


def _nhwc_to_nchw(x):
    return T.permute(x, (0, 3, 1, 2))


def _replicate_concat(cond, z_img):
    """cond (N, D) tiled over the spatial grid and stacked on z_img."""
    n, d = cond.shape
    _, di, h, w = z_img.shape
    tiled = T.reshape(cond, (n, d, 1))
    tiled = T.mul(tiled, np.ones((1, 1, h * w), dtype=T.DEFAULT_DTYPE))
    tiled = T.reshape(tiled, (n, d, h, w))
    return T.concat([tiled, z_img], axis=1)


class TaskEncoder(Module):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.tok = self.add_child("tok", Embedding(rng, cfg.vocab_size, cfg.token_dim))
        self.gru = self.add_child("gru", GRUCell(rng, cfg.token_dim, cfg.task_dim))

    def __call__(self, token_rows):
        """token_rows: list of token-id lists -> (N, task_dim)."""
        return _encode_tokens(self.tok, self.gru, token_rows)


def _encode_tokens(tok, gru, token_rows):
    """Final GRU state over each row's token embeddings, from zeros: (N, D)."""
    outs = []
    for row in token_rows:
        h = T.Tensor(np.zeros(gru.hidden_dim, dtype=T.DEFAULT_DTYPE))
        for t in row:
            h = gru(tok(int(t)), h)
        outs.append(h)
    return T.stack(outs, axis=0)


class HighLevelPolicy(Module):
    """Per-step sub-goal head: GRU over [replicated context; image feature]
    flattened, then factorized skill and object logits."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.act_emb = self.add_child("act_emb", Embedding(rng, len(PrimitiveAction) + 1, cfg.ctx_dim))
        self.skill_emb = self.add_child("skill_emb", Embedding(rng, len(Skill) + 1, cfg.ctx_dim))
        self.obj_emb = self.add_child("obj_emb", Embedding(rng, cfg.num_classes + 1, cfg.ctx_dim))
        comp_in = cfg.task_dim + 3 * cfg.ctx_dim
        self.comp1 = self.add_child("comp1", Linear(rng, comp_in, 128))
        self.comp2 = self.add_child("comp2", Linear(rng, 128, cfg.cond_dim))
        gru_in = (cfg.cond_dim + cfg.d) * cfg.grid * cfg.grid
        self.gru = self.add_child("gru", GRUCell(rng, gru_in, cfg.hidden))
        self.skill_head = self.add_child("skill_head", Linear(rng, cfg.hidden, len(Skill)))
        self.obj_head = self.add_child("obj_head", Linear(rng, cfg.hidden, cfg.num_classes))

    def initial_hidden(self, n=1):
        return T.Tensor(np.zeros((n, self.cfg.hidden), dtype=T.DEFAULT_DTYPE))

    def context(self, z_task, last_action, last_skill, last_obj):
        z = T.concat([z_task,
                      self.act_emb(np.asarray(last_action, dtype=np.int64)),
                      self.skill_emb(np.asarray(last_skill, dtype=np.int64)),
                      self.obj_emb(np.asarray(last_obj, dtype=np.int64))], axis=-1)
        return self.comp2(T.relu(self.comp1(z)))

    def step(self, z_task, z_img, last_action, last_skill, last_obj, hidden):
        zc = self.context(z_task, last_action, last_skill, last_obj)
        feat = _replicate_concat(zc, z_img)
        n = feat.shape[0]
        flat = T.reshape(feat, (n, feat.shape[1] * feat.shape[2] * feat.shape[3]))
        h = self.gru(flat, hidden)
        return self.skill_head(h), self.obj_head(h), h


class PointingHead(Module):
    """Discrete grid logits plus per-cell offset mean/variance, and the
    auxiliary per-class center heatmap."""

    def __init__(self, rng, cfg: ModelConfig, in_ch):
        super().__init__()
        self.cfg = cfg
        d = cfg.point_dim
        self.conv1 = self.add_child("conv1", Conv2d(rng, in_ch, d, k=1))
        self.conv2 = self.add_child("conv2", Conv2d(rng, d, d, k=3, stride=1, pad=1))
        self.grid_head = self.add_child("grid_head", Conv2d(rng, d, 1, k=1))
        self.mu_head = self.add_child("mu_head", Conv2d(rng, d, 2, k=1))
        self.nu_head = self.add_child("nu_head", Conv2d(rng, d, 2, k=1))
        self.heat_head = self.add_child("heat_head", Conv2d(rng, d, cfg.num_classes, k=1))

    def __call__(self, feat):
        aug = T.relu(self.conv2(T.relu(self.conv1(feat))))
        n = aug.shape[0]
        b = self.cfg.grid
        grid_logits = T.reshape(self.grid_head(aug), (n, b * b))
        mu = T.reshape(self.mu_head(aug), (n, 2, b * b))
        nu = T.softplus(T.reshape(self.nu_head(aug), (n, 2, b * b))) + nn.VAR_FLOOR
        heat = T.sigmoid(self.heat_head(aug))
        return grid_logits, mu, nu, heat


class SubPolicy(Module):
    """Shared trunk for navigation/interaction: conditioning embeddings,
    action head, value head, optional pointing head."""

    def __init__(self, rng, cfg: ModelConfig, n_actions, pointing):
        super().__init__()
        self.cfg = cfg
        self.n_actions = n_actions
        self.act_emb = self.add_child("act_emb", Embedding(rng, len(PrimitiveAction) + 1, cfg.ctx_dim))
        self.skill_emb = self.add_child("skill_emb", Embedding(rng, len(Skill) + 1, cfg.ctx_dim))
        self.obj_emb = self.add_child("obj_emb", Embedding(rng, cfg.num_classes + 1, cfg.ctx_dim))
        self.cond = self.add_child("cond", Linear(rng, 3 * cfg.ctx_dim, cfg.cond_dim))
        feat_ch = cfg.cond_dim + cfg.d
        flat_in = feat_ch * cfg.grid * cfg.grid
        self.trunk = self.add_child("trunk", Linear(rng, flat_in, cfg.trunk_dim))
        self.action_head = self.add_child("action_head", Linear(rng, cfg.trunk_dim, n_actions))
        self.value_head = self.add_child("value_head", Linear(rng, cfg.trunk_dim, 1))
        self.pointing = None
        if pointing:
            self.pointing = self.add_child("pointing", PointingHead(rng, cfg, feat_ch))

    def conditioning(self, last_action, skill, obj):
        z = T.concat([self.act_emb(np.asarray(last_action, dtype=np.int64)),
                      self.skill_emb(np.asarray(skill, dtype=np.int64)),
                      self.obj_emb(np.asarray(obj, dtype=np.int64))], axis=-1)
        return self.cond(z)

    def forward(self, cond, z_img):
        feat = _replicate_concat(cond, z_img)
        n = feat.shape[0]
        flat = T.reshape(feat, (n, feat.shape[1] * feat.shape[2] * feat.shape[3]))
        hid = T.relu(self.trunk(flat))
        action_logits = self.action_head(hid)
        value = T.reshape(self.value_head(hid), (n,))
        point = self.pointing(feat) if self.pointing is not None else None
        return action_logits, value, point


class QASubPolicy(Module):
    """Question GRU + dot-product attention over the image feature."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.tok = self.add_child("tok", Embedding(rng, cfg.vocab_size, cfg.token_dim))
        self.gru = self.add_child("gru", GRUCell(rng, cfg.token_dim, cfg.d))
        self.out1 = self.add_child("out1", Linear(rng, 2 * cfg.d, 128))
        self.out2 = self.add_child("out2", Linear(rng, 128, len(ANSWER_SPACE)))

    def encode_question(self, token_rows):
        return _encode_tokens(self.tok, self.gru, token_rows)

    def forward(self, q, z_img, return_attention=False):
        n, d, h, w = z_img.shape
        flat = T.reshape(z_img, (n, d, h * w))
        scores = _batched_dot(q, flat)              # (N, h*w)
        weights = T.softmax(scores, axis=-1)
        att = _attend(weights, flat)                # (N, d)
        logits = self.out2(T.relu(self.out1(T.concat([q, att], axis=-1))))
        if return_attention:
            return logits, weights
        return logits


def _batched_dot(q, flat):
    """q (N, d), flat (N, d, P) -> (N, P)."""
    n, d, p = flat.shape
    prod = T.mul(T.reshape(q, (n, d, 1)), flat)
    return T.sum_(prod, axis=1)


def _attend(weights, flat):
    """weights (N, P), flat (N, d, P) -> (N, d)."""
    n, d, p = flat.shape
    w = T.reshape(weights, (n, 1, p))
    return T.sum_(T.mul(flat, w), axis=2)


# --------------------------------------------------------------------------
# agents


NONE_ACTION = len(PrimitiveAction)
NONE_SKILL = len(Skill)


class HierarchicalAgent(Module):
    """High-level sub-goal invocator plus skill sub-policies."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.task_enc = self.add_child("task_enc", TaskEncoder(rng, cfg))
        self.hl_encoder = self.add_child("hl_encoder", GridEncoder(rng, cfg))
        self.sub_encoder = self.add_child("sub_encoder", GridEncoder(rng, cfg))
        if not cfg.share_sub_encoder:
            self.nav_encoder = self.add_child("nav_encoder", GridEncoder(rng, cfg))
        self.high = self.add_child("high", HighLevelPolicy(rng, cfg))
        self.nav = self.add_child("nav", SubPolicy(rng, cfg, len(NAV_ACTION_SPACE), pointing=False))
        self.interact = self.add_child("interact", SubPolicy(rng, cfg, len(INTERACT_ACTION_SPACE), pointing=True))
        self.qa = self.add_child("qa", QASubPolicy(rng, cfg))

    def nav_image_encoder(self):
        return self.sub_encoder if self.cfg.share_sub_encoder else self.nav_encoder

    def sub_policy_params(self):
        out = []
        for name, p in self.named_parameters():
            if not name.startswith("high.") and not name.startswith("hl_encoder.") \
                    and not name.startswith("task_enc."):
                out.append(p)
        return out

    def high_level_params(self):
        out = []
        for name, p in self.named_parameters():
            if name.startswith(("high.", "hl_encoder.", "task_enc.")):
                out.append(p)
        return out

    def frozen_after_pretrain(self):
        """First conv block of the sub-policy encoder, frozen in stage 2."""
        return [self.sub_encoder.conv1.w, self.sub_encoder.conv1.b,
                self.sub_encoder.cls_emb.table]


# --------------------------------------------------------------------------
# sampling helpers


def sample_logits(logits_row, rng, greedy):
    z = logits_row - logits_row.max()
    p = np.exp(z)
    p /= p.sum()
    if greedy:
        return int(np.argmax(p)), p
    return int(rng.choice(len(p), p=p)), p


SKILL_FAMILY = {
    Skill.GoTo: "nav",
    Skill.Pickup: "interact", Skill.Put: "interact",
    Skill.ToggleOn: "interact", Skill.ToggleOff: "interact",
    Skill.Open: "interact", Skill.Close: "interact", Skill.Slice: "interact",
    Skill.Answer: "qa", Skill.End: "end",
}


def point_from_grid(cfg: ModelConfig, cell_index, delta):
    """Continuous point from a grid cell and a clamped offset."""
    b = cfg.grid
    px = cfg.cell_px
    x_idx, y_idx = cell_index % b, cell_index // b
    half = px / 2.0
    dx = float(np.clip(delta[0], -half, half))
    dy = float(np.clip(delta[1], -half, half))
    return (px * x_idx + half + dx, px * y_idx + half + dy)


def high_level_step(agent, z_task, obs, last_action, last_subgoal, hidden,
                    rng, greedy=False):
    """Factorized sub-goal sampling: skill first, then the target class
    (masked out entirely for Answer/End).  Rollout-only: no graph."""
    with T.no_grad():
        return _high_level_step(agent, z_task, obs, last_action, last_subgoal,
                                hidden, rng, greedy)


def _high_level_step(agent, z_task, obs, last_action, last_subgoal, hidden,
                     rng, greedy):
    cfg = agent.cfg
    cmap, planes = obs_planes([obs], cfg.num_classes)
    z_img = agent.hl_encoder(cmap, planes)
    ls = last_subgoal.skill if last_subgoal else None
    lo = last_subgoal.object_class if last_subgoal else None
    skill_logits, obj_logits, h = agent.high.step(
        z_task, z_img,
        [NONE_ACTION if last_action is None else int(last_action)],
        [NONE_SKILL if ls is None else int(ls)],
        [cfg.num_classes if lo is None else int(lo)],
        hidden)
    s_idx, _ = sample_logits(skill_logits.data[0], rng, greedy)
    skill = Skill(s_idx)
    if skill in NO_OBJECT_SKILLS:
        sub = SubGoal(skill)
    else:
        o_idx, _ = sample_logits(obj_logits.data[0], rng, greedy)
        sub = SubGoal(skill, o_idx)
    return sub, (skill_logits, obj_logits), h


def sub_policy_step(agent, subgoal, obs, last_action, rng, greedy=False):
    """Route to the sub-policy for the sub-goal's family and sample an
    action (plus an interaction point for interactive primitives).
    Rollout-only: no graph."""
    with T.no_grad():
        return _sub_policy_step(agent, subgoal, obs, last_action, rng, greedy)


def _sub_policy_step(agent, subgoal, obs, last_action, rng, greedy):
    cfg = agent.cfg
    family = SKILL_FAMILY[subgoal.skill]
    cmap, planes = obs_planes([obs], cfg.num_classes)
    encoder = agent.nav_image_encoder() if family == "nav" else agent.sub_encoder
    z_img = encoder(cmap, planes)
    la = [NONE_ACTION if last_action is None else int(last_action)]
    if family == "nav":
        sub = agent.nav
        cond = sub.conditioning(la, [int(subgoal.skill)],
                                [cfg.num_classes if subgoal.object_class is None
                                 else subgoal.object_class])
        logits, value, _ = sub.forward(cond, z_img)
        idx, _ = sample_logits(logits.data[0], rng, greedy)
        return NAV_ACTION_SPACE[idx], None, {"action_logits": logits, "value": value}
    sub = agent.interact
    cond = sub.conditioning(la, [int(subgoal.skill)],
                            [cfg.num_classes if subgoal.object_class is None
                             else subgoal.object_class])
    logits, value, point_maps = sub.forward(cond, z_img)
    idx, _ = sample_logits(logits.data[0], rng, greedy)
    action = INTERACT_ACTION_SPACE[idx]
    point = None
    extras = {"action_logits": logits, "value": value, "point": point_maps}
    if action in INTERACTIVE_ACTIONS:
        grid_logits, mu, nu, _heat = point_maps
        cell, _ = sample_logits(grid_logits.data[0], rng, greedy)
        mean = mu.data[0, :, cell]
        var = nu.data[0, :, cell]
        if greedy:
            delta = mean
        else:
            delta = rng.normal(mean, np.sqrt(var))
        point = point_from_grid(cfg, cell, delta)
        extras["cell"] = cell
        extras["delta"] = (point[0] - (cfg.cell_px * (cell % cfg.grid) + cfg.cell_px / 2),
                           point[1] - (cfg.cell_px * (cell // cfg.grid) + cfg.cell_px / 2))
    return action, point, extras


def qa_answer(agent, question_tokens, obs, return_attention=False):
    """6-way answer distribution for a question on the current frame."""
    with T.no_grad():
        return _qa_answer(agent, question_tokens, obs, return_attention)


def _qa_answer(agent, question_tokens, obs, return_attention):
    q = agent.qa.encode_question([question_tokens])
    cmap, planes = obs_planes([obs], agent.cfg.num_classes)
    z_img = agent.sub_encoder(cmap, planes)
    out = agent.qa.forward(q, z_img, return_attention=return_attention)
    if return_attention:
        logits, att = out
        return T.softmax(logits, axis=-1).data[0], att.data[0]
    return T.softmax(out, axis=-1).data[0]


def act_episode(agent, task, initial_state, mode: InteractionMode, rng,
                greedy=True, vocab=None):
    """Roll the hierarchical agent on one task episode."""
    vocab = vocab or {}
    tokens = [vocab.get(t, 1) for t in tokenize(task.instruction)]
    with T.no_grad():
        z_task = agent.task_enc([tokens])
    hidden = agent.high.initial_hidden(1)

    def decide(traj, state, obs, ex):
        nonlocal hidden
        prev = traj.steps[-1] if traj.steps else None
        last_action = None if prev is None else prev.action
        sub, _logits, hidden = high_level_step(
            agent, z_task, obs, last_action, None if prev is None else prev.subgoal,
            hidden, rng, greedy)
        if sub.skill is Skill.End:
            return sub, PrimitiveAction.Done, None, True
        if sub.skill is Skill.Answer:
            probs = qa_answer(agent, tokens, obs)
            if greedy:
                traj.answer = ANSWER_SPACE[int(np.argmax(probs))]
            else:
                traj.answer = ANSWER_SPACE[int(rng.choice(len(probs), p=probs))]
            return sub, PrimitiveAction.Done, None, False
        action, point, _extras = sub_policy_step(agent, sub, obs, last_action, rng, greedy)
        return sub, action, point, False

    return rollout(initial_state, decide, mode, task.max_steps)
