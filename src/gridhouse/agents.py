"""Hierarchical policy: sub-goal head + navigation/interaction/QA
sub-policies with the grid+offset pointing head.

The pointing grid is the encoder's feature map: an observation of
obs_size pixels a side encodes to d x grid x grid, 8 x 8 at the default 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn, tensor as T
from .nn import Conv2d, Embedding, GRUCell, Linear, Module
from .skills import INTERACTION_SKILLS, NO_OBJECT_SKILLS, Skill, SubGoal
from .world import CLASS_BASE, INTERACTIVE_ACTIONS, NAV_ACTION_SPACE, PrimitiveAction

INTERACT_ACTION_SPACE = tuple(PrimitiveAction)  # all 13
ANSWER_SPACE = ("Yes", "No", "0", "1", "2", "3")

NAV_INDEX = {a: i for i, a in enumerate(NAV_ACTION_SPACE)}
INTERACT_INDEX = {a: i for i, a in enumerate(INTERACT_ACTION_SPACE)}


@dataclass
class ModelConfig:
    num_classes: int
    vocab_size: int
    obs_size: int
    d: int = 64            # feature dim of the conv map
    hidden: int = 128      # high-level GRU width
    task_dim: int = 64
    token_dim: int = 32
    ctx_dim: int = 16      # last-action / sub-goal embedding width
    cond_dim: int = 64
    trunk_dim: int = 128
    point_dim: int = 48
    enc_mid: int = 24

    @property
    def grid(self) -> int:
        """w = h of the encoder's feature map after its two stride-2
        convolutions, the pointing grid B."""
        return math.ceil(self.obs_size / 4)

    @property
    def cell_px(self) -> float:
        return self.obs_size / self.grid


def obs_planes(obs_batch, block=1):
    """Stack observation channels into float planes (N, 6, H, W) read at
    one pixel per block x block square; the class id plane is embedded by
    the encoder."""
    cut = np.s_[..., ::block, ::block]
    class_maps = np.stack([o.class_map[cut] for o in obs_batch])
    bits = np.stack([o.state_bits[cut] for o in obs_batch])
    depth = np.stack([o.depth_map[cut] for o in obs_batch])
    return class_maps.astype(np.int64), np.concatenate(
        [bits.astype(T.DEFAULT_DTYPE),
         (depth[:, None, :, :] / 16.0).astype(T.DEFAULT_DTYPE)], axis=1)


class GridEncoder(Module):
    """Symbolic-observation encoder: class embedding + state/depth planes
    through two strided convolutions down to (d, grid, grid).

    Its maps may hold one pixel per aligned block x block square of
    observations constant on each square (`Observation.block`), for a
    `block` that divides conv1's stride; conv1 then runs with its kernel
    folded, as `T.embed_conv2d` states."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cls_emb = self.add_child("cls_emb", Embedding(rng, cfg.num_classes + CLASS_BASE, 8))
        self.conv1 = self.add_child("conv1", Conv2d(rng, 8 + 5, cfg.enc_mid, k=3, stride=2, pad=1))
        self.conv2 = self.add_child("conv2", Conv2d(rng, cfg.enc_mid, cfg.d, k=3, stride=2, pad=1))

    def __call__(self, class_maps, planes, block):
        c1 = self.conv1
        x = T.relu(T.embed_conv2d(self.cls_emb.table, class_maps, planes, c1.w, c1.b,
                                  stride=c1.stride, pad=c1.pad, block=block))
        return T.relu(self.conv2(x))


def encode(encoder, obs_batch):
    """The encoder's feature maps (N, d, grid, grid) of N observations.

    Observations with equal `Observation.key` are equal, so each distinct
    one, in first-seen order, runs `obs_planes` and the encoder once, and
    its row is gathered to every position that holds it.  The gather's
    backward adds the gradients of a repeated row into zeros in batch order
    before the encoder's backward, whose weight gradients then sum over the
    distinct rows only.  A batch of distinct observations builds no
    gather.  The encoder reads the batch at the largest block that divides
    both the observations' `block` and conv1's stride (2 for rendered
    observations, 1 for hand-built ones); a batch that mixes block sizes
    raises ValueError."""
    frames, inverse = _first_seen(obs_batch, lambda obs: obs.key)
    blocks = {obs.block for obs in frames}
    if len(blocks) != 1:
        raise ValueError(f"encode takes a nonempty batch of one block size: {sorted(blocks)}")
    block = math.gcd(blocks.pop(), encoder.conv1.stride)
    z_img = encoder(*obs_planes(frames, block), block)
    return z_img if len(frames) == len(inverse) else z_img[inverse]


def _first_seen(items, key):
    """(the first item of each distinct `key(item)`, in first-seen order;
    the index among them of every item's key): the rows a batch runs once,
    and the gather index that gives each item its row back."""
    firsts, inverse = {}, []
    for item in items:
        inverse.append(firsts.setdefault(key(item), (len(firsts), item))[0])
    return [item for _, item in firsts.values()], np.array(inverse)


class TaskEncoder(Module):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.tok = self.add_child("tok", Embedding(rng, cfg.vocab_size, cfg.token_dim))
        self.gru = self.add_child("gru", GRUCell(rng, cfg.token_dim, cfg.task_dim))

    def __call__(self, token_rows):
        """token_rows: list of token-id lists -> (N, task_dim)."""
        return _encode_tokens(self.tok, self.gru, token_rows)


def _encode_tokens(tok, gru, token_rows):
    """Final GRU state over each row's token embeddings, from zeros: (N, D).

    Each distinct row runs once, as one `nn.gru_sequence` unroll (so each
    gate sums its input term and bias, then its recurrent term), and its
    last hidden state is gathered to every row that carries those tokens:
    the gather sums the repeated rows' gradients before the unroll.  A row
    of no tokens raises nn.ShapeMismatch."""
    rows, inverse = _first_seen(token_rows, lambda row: tuple(int(t) for t in row))
    h0 = np.zeros(gru.hidden_dim, dtype=T.DEFAULT_DTYPE)
    finals = [nn.gru_sequence(gru, tok(row), h0)[len(row) - 1] for row in rows]
    return T.stack(finals, axis=0)[inverse]


def _context_and_image(cond, z_img):
    """[cond (N, D) * h * w; z_img (N, d, h, w) flattened]: (N, D + d * h * w).

    The context counts once per cell, as it did when it was tiled over
    the grid: a weight on the tiled context summed h * w blocks, each of
    which Adam moved by about lr per step.  Scaling the context by h * w
    keeps that rate for the one block; unscaled, the sub-goal head learned
    far slower (teacher-forced sub-goal accuracy, CHANGES.md)."""
    n, d, h, w = z_img.shape
    return T.concat([T.mul(cond, float(h * w)), T.reshape(z_img, (n, d * h * w))], axis=-1)


class HighLevelPolicy(Module):
    """Per-step sub-goal head: GRU over [context; image feature flattened],
    then factorized skill and object logits.

    Training unrolls the GRU over an episode's `gru_input` rows
    (`trainer.high_level_logits`).  A rollout splits each gate's input
    term into the image block's product (`image_projection`) and the
    context block's (`context_projection`), which `rollout_step` adds with
    the bias; the recurrence is `nn.gru_recurrence`, the one
    `nn.gru_sequence` runs.  `ForwardMemo` states when a rollout reuses
    the products and how its gates differ from the unroll's."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.act_emb = self.add_child("act_emb", Embedding(rng, len(PrimitiveAction) + 1, cfg.ctx_dim))
        self.skill_emb = self.add_child("skill_emb", Embedding(rng, len(Skill) + 1, cfg.ctx_dim))
        self.obj_emb = self.add_child("obj_emb", Embedding(rng, cfg.num_classes + 1, cfg.ctx_dim))
        comp_in = cfg.task_dim + 3 * cfg.ctx_dim
        self.comp1 = self.add_child("comp1", Linear(rng, comp_in, 128))
        self.comp2 = self.add_child("comp2", Linear(rng, 128, cfg.cond_dim))
        gru_in = cfg.cond_dim + cfg.d * cfg.grid * cfg.grid
        self.gru = self.add_child("gru", GRUCell(rng, gru_in, cfg.hidden))
        self.skill_head = self.add_child("skill_head", Linear(rng, cfg.hidden, len(Skill)))
        self.obj_head = self.add_child("obj_head", Linear(rng, cfg.hidden, cfg.num_classes))

    def initial_hidden(self):
        """The zero hidden state of one rollout episode, a (1, hidden) array."""
        return np.zeros((1, self.cfg.hidden), dtype=T.DEFAULT_DTYPE)

    def context(self, z_task, last_action, last_skill, last_obj):
        z = T.concat([z_task,
                      self.act_emb(np.asarray(last_action, dtype=np.int64)),
                      self.skill_emb(np.asarray(last_skill, dtype=np.int64)),
                      self.obj_emb(np.asarray(last_obj, dtype=np.int64))], axis=-1)
        return self.comp2(T.relu(self.comp1(z)))

    def gru_input(self, z_task, z_img, last_action, last_skill, last_obj):
        """The context followed by the image feature flattened:
        (N, cond_dim + d * grid * grid)."""
        return _context_and_image(
            self.context(z_task, last_action, last_skill, last_obj), z_img)

    def image_projection(self, z_img):
        """Each gate's product with the image feature flattened, (z, r,
        candidate), each (N, hidden): the columns of w_z, w_r and w_h that
        `gru_input` fills with the image, read as views of the weights."""
        flat = z_img.data.reshape(z_img.shape[0], -1)
        return tuple(flat @ w.T for w in self.gru.blocks(self.cfg.cond_dim, self.gru.in_dim))

    def context_projection(self, z_task, last_action, last_skill, last_obj):
        """Each gate's product with the context, scaled by grid * grid as
        `_context_and_image` scales it, (z, r, candidate), each (N, hidden):
        the columns of w_z, w_r and w_h that `gru_input` fills with it."""
        cond = self.context(z_task, last_action, last_skill, last_obj).data
        cond = cond * float(self.cfg.grid * self.cfg.grid)
        return tuple(cond @ w.T for w in self.gru.blocks(0, self.cfg.cond_dim))

    def rollout_step(self, image_proj, context_proj, hidden):
        """(skill logits, object logits, next hidden) of one step as arrays,
        no graph: each gate adds its `image_projection` and
        `context_projection`, then its bias, `nn.gru_recurrence` adds the
        recurrent products, and the heads are `T.linear`'s forward."""
        g = self.gru
        gx = [p + c + b.data for p, c, b in zip(image_proj, context_proj, (g.b_z, g.b_r, g.b_h))]
        h = nn.gru_recurrence(*gx, hidden, g.blocks(g.in_dim))[0]
        return (h @ self.skill_head.w.data.T + self.skill_head.b.data,
                h @ self.obj_head.w.data.T + self.obj_head.b.data, h)


class PointingHead(Module):
    """Discrete grid logits plus per-cell offset mean/variance, and the
    auxiliary per-class center heatmap.  The conditioning enters as a
    per-channel shift of the first 1x1 convolution's output, the same at
    every cell."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        d = cfg.point_dim
        self.conv1 = self.add_child("conv1", Conv2d(rng, cfg.d, d, k=1))
        self.ctx = self.add_child("ctx", Linear(rng, cfg.cond_dim, d))
        self.conv2 = self.add_child("conv2", Conv2d(rng, d, d, k=3, stride=1, pad=1))
        self.grid_head = self.add_child("grid_head", Conv2d(rng, d, 1, k=1))
        self.mu_head = self.add_child("mu_head", Conv2d(rng, d, 2, k=1))
        self.nu_head = self.add_child("nu_head", Conv2d(rng, d, 2, k=1))
        self.heat_head = self.add_child("heat_head", Conv2d(rng, d, cfg.num_classes, k=1))

    def __call__(self, cond, z_img, heat):
        """(grid logits, offset means, offset variances, heatmap): the
        heatmap only if `heat` (the supervised loss), else None."""
        n = z_img.shape[0]
        shift = T.reshape(self.ctx(cond), (n, self.cfg.point_dim, 1, 1))
        aug = T.relu(self.conv2(T.relu(self.conv1(z_img) + shift)))
        b = self.cfg.grid
        grid_logits = T.reshape(self.grid_head(aug), (n, b * b))
        mu = T.reshape(self.mu_head(aug), (n, 2, b * b))
        nu = T.softplus(T.reshape(self.nu_head(aug), (n, 2, b * b))) + nn.VAR_FLOOR
        return grid_logits, mu, nu, T.sigmoid(self.heat_head(aug)) if heat else None


class SubPolicy(Module):
    """Shared trunk for navigation/interaction: conditioning embeddings, a
    trunk over [conditioning; image feature flattened], action head, value
    head, optional pointing head."""

    def __init__(self, rng, cfg: ModelConfig, n_actions, pointing):
        super().__init__()
        self.act_emb = self.add_child("act_emb", Embedding(rng, len(PrimitiveAction) + 1, cfg.ctx_dim))
        self.skill_emb = self.add_child("skill_emb", Embedding(rng, len(Skill) + 1, cfg.ctx_dim))
        self.obj_emb = self.add_child("obj_emb", Embedding(rng, cfg.num_classes + 1, cfg.ctx_dim))
        self.cond = self.add_child("cond", Linear(rng, 3 * cfg.ctx_dim, cfg.cond_dim))
        flat_in = cfg.cond_dim + cfg.d * cfg.grid * cfg.grid
        self.trunk = self.add_child("trunk", Linear(rng, flat_in, cfg.trunk_dim))
        self.action_head = self.add_child("action_head", Linear(rng, cfg.trunk_dim, n_actions))
        self.value_head = self.add_child("value_head", Linear(rng, cfg.trunk_dim, 1))
        self.pointing = None
        if pointing:
            self.pointing = self.add_child("pointing", PointingHead(rng, cfg))

    def conditioning(self, last_action, skill, obj):
        z = T.concat([self.act_emb(np.asarray(last_action, dtype=np.int64)),
                      self.skill_emb(np.asarray(skill, dtype=np.int64)),
                      self.obj_emb(np.asarray(obj, dtype=np.int64))], axis=-1)
        return self.cond(z)

    def forward(self, cond, z_img, heat=False, point_rows=None):
        """(action logits, value, pointing head output or None); the
        pointing head's heatmap only if `heat`.

        The trunk and the action and value heads run on every row.  The
        pointing head runs on the rows `point_rows` indexes, in that order
        (None: every row), so its outputs have one row per index; with no
        index, or no pointing head, the point output is None.  PPO passes
        the rows whose executed action took a point, the only ones whose
        log-prob reads the head."""
        n = z_img.shape[0]
        hid = T.relu(self.trunk(_context_and_image(cond, z_img)))
        action_logits = self.action_head(hid)
        value = T.reshape(self.value_head(hid), (n,))
        point = None
        if self.pointing is not None:
            if point_rows is None:
                point = self.pointing(cond, z_img, heat)
            elif len(point_rows):
                point = self.pointing(cond[point_rows], z_img[point_rows], heat)
        return action_logits, value, point


class QASubPolicy(Module):
    """Question GRU + dot-product attention over the image feature."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.tok = self.add_child("tok", Embedding(rng, cfg.vocab_size, cfg.token_dim))
        self.gru = self.add_child("gru", GRUCell(rng, cfg.token_dim, cfg.d))
        self.out1 = self.add_child("out1", Linear(rng, 2 * cfg.d, 128))
        self.out2 = self.add_child("out2", Linear(rng, 128, len(ANSWER_SPACE)))

    def encode_question(self, token_rows):
        return _encode_tokens(self.tok, self.gru, token_rows)

    def forward(self, q, z_img):
        """(answer logits, attention weights over the image cells)."""
        n, d, h, w = z_img.shape
        flat = T.reshape(z_img, (n, d, h * w))
        scores = _batched_dot(q, flat)              # (N, h*w)
        weights = T.softmax(scores, axis=-1)
        att = _attend(weights, flat)                # (N, d)
        logits = self.out2(T.relu(self.out1(T.concat([q, att], axis=-1))))
        return logits, weights


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


def action_id(action):
    """Embedding id of the last primitive action; NONE_ACTION before the
    first step."""
    return NONE_ACTION if action is None else int(action)


def subgoal_ids(cfg: ModelConfig, subgoal):
    """(skill id, object id) of a sub-goal in the embedding spaces:
    NONE_SKILL for no sub-goal, num_classes for no sub-goal or no object."""
    if subgoal is None:
        return NONE_SKILL, cfg.num_classes
    obj = subgoal.object_class
    return int(subgoal.skill), cfg.num_classes if obj is None else int(obj)


def cell_center(cfg: ModelConfig, cell):
    """Pixel (x, y) of the centre of a pointing-grid cell."""
    px = cfg.cell_px
    return px * (cell % cfg.grid) + px / 2, px * (cell // cfg.grid) + px / 2


class HierarchicalAgent(Module):
    """High-level sub-goal invocator plus skill sub-policies."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.task_enc = self.add_child("task_enc", TaskEncoder(rng, cfg))
        self.hl_encoder = self.add_child("hl_encoder", GridEncoder(rng, cfg))
        self.sub_encoder = self.add_child("sub_encoder", GridEncoder(rng, cfg))
        self.high = self.add_child("high", HighLevelPolicy(rng, cfg))
        self.nav = self.add_child("nav", SubPolicy(rng, cfg, len(NAV_ACTION_SPACE), pointing=False))
        self.interact = self.add_child("interact", SubPolicy(rng, cfg, len(INTERACT_ACTION_SPACE), pointing=True))
        self.qa = self.add_child("qa", QASubPolicy(rng, cfg))

    def level_params(self, high):
        """Parameters of the high level (task encoder, its image encoder
        and the sub-goal head) if `high`, else of the sub-policies."""
        return [p for name, p in self.named_parameters()
                if name.startswith(("high.", "hl_encoder.", "task_enc.")) == high]

    def frozen_after_pretrain(self):
        """First conv block of the sub-policy encoder, frozen in stage 2."""
        return [self.sub_encoder.conv1.w, self.sub_encoder.conv1.b,
                self.sub_encoder.cls_emb.table]


# --------------------------------------------------------------------------
# sampling helpers


def sample_logits(logits_row, rng, greedy):
    """The largest logit's index if `greedy`, else one drawn from the softmax."""
    if greedy:
        return int(np.argmax(logits_row))
    p = np.exp(logits_row - logits_row.max())
    p /= p.sum()
    return int(rng.choice(len(p), p=p))


SKILL_FAMILY = {Skill.GoTo: "nav", **dict.fromkeys(INTERACTION_SKILLS, "interact"),
                Skill.Answer: "qa", Skill.End: "end"}


def point_from_grid(cfg: ModelConfig, cell_index, delta):
    """Continuous point from a grid cell and a clamped offset."""
    cx, cy = cell_center(cfg, cell_index)
    half = cfg.cell_px / 2
    return (cx + float(np.clip(delta[0], -half, half)),
            cy + float(np.clip(delta[1], -half, half)))


class ForwardMemo:
    """Forwards of one episode, for its later steps to reuse.

    A runner makes one per episode, given the episode's task encoding
    (None when no step runs the high level).  It keeps every output it
    computed, each once: the high level's three gate projections of the
    image feature (`HighLevelPolicy.image_projection`) per
    `Observation.key`, those of the context (`context_projection`) per
    (last-action id, previous skill id, previous object id), and the
    sub-policy forward output per observation key, family, last-action
    id, skill id and object id.  Equal keys are equal inputs (four turns
    render the maps they started from), and parameters and the task
    encoding are fixed within an episode, so a hit is exact.  The
    projections sum each rollout gate in another order than the
    teacher-forced unroll (`nn.gru_sequence`), which moves its low
    bits."""

    def __init__(self, z_task=None):
        self.z_task = z_task
        self.images, self.contexts, self.subs = {}, {}, {}

    def image_projection(self, agent, obs):
        """`agent.high.image_projection` of `agent.hl_encoder` on `obs` at
        batch 1."""
        proj = self.images.get(obs.key)
        if proj is None:
            with T.no_grad():
                proj = self.images[obs.key] = agent.high.image_projection(
                    encode(agent.hl_encoder, [obs]))
        return proj

    def context_projection(self, agent, key):
        """`agent.high.context_projection` of the episode's task encoding
        at batch 1, given the ids `key` of the last action, the previous
        skill and its object."""
        proj = self.contexts.get(key)
        if proj is None:
            last_action, skill, obj = key
            with T.no_grad():
                proj = self.contexts[key] = agent.high.context_projection(
                    self.z_task, [last_action], [skill], [obj])
        return proj

    def sub_policy(self, agent, family, obs, last_action, skill, obj):
        """`sub_policy_forward` on `obs` at batch 1, given the ids of the
        last action, the skill and the conditioning object."""
        key = (obs.key, family, last_action, skill, obj)
        out = self.subs.get(key)
        if out is None:
            out = self.subs[key] = sub_policy_forward(
                agent, family, [obs], [last_action], [skill], [obj])
        return out


def high_level_step(agent, obs, last_action, last_subgoal, hidden, rng, greedy=False, *,
                    memo: ForwardMemo):
    """Factorized sub-goal sampling: skill first, then the target class
    (masked out entirely for Answer/End).  Returns the sub-goal and the
    next hidden state, an array.  Rollout-only: no graph.  The gate
    projections come from `memo`, the episode's `ForwardMemo`, which
    holds its task encoding; a step that reuses both builds no `Tensor`
    and runs only `HighLevelPolicy.rollout_step`."""
    image_proj = memo.image_projection(agent, obs)
    context_proj = memo.context_projection(
        agent, (action_id(last_action), *subgoal_ids(agent.cfg, last_subgoal)))
    skill_logits, obj_logits, h = agent.high.rollout_step(image_proj, context_proj, hidden)
    skill = Skill(sample_logits(skill_logits[0], rng, greedy))
    if skill in NO_OBJECT_SKILLS:
        sub = SubGoal(skill)
    else:
        sub = SubGoal(skill, sample_logits(obj_logits[0], rng, greedy))
    return sub, h


def sub_policy_forward(agent, family, obs_batch, last_action, skill, obj, heat=False,
                       point_rows=None):
    """(action logits, value, point maps or None) of the "nav" or
    "interact" sub-policy on N steps: their observations and their ids of
    the last action, the skill and the conditioning object.  The point
    maps hold the heatmap only if `heat`, which only the supervised loss
    reads.  The shared `sub_encoder` runs once per distinct observation
    (`encode`), so the encoder's gradients sum each repeated observation's
    rows first; the trunk and the action and value heads run on all N
    rows.  The pointing head runs on the rows `point_rows` indexes (None:
    all N, as rollouts and the supervised loss ask), and the point maps
    hold those rows only (None when it is empty): the PPO log-prob reads
    the head on the rows that executed a point, and no other row."""
    z_img = encode(agent.sub_encoder, obs_batch)
    sub = agent.nav if family == "nav" else agent.interact
    return sub.forward(sub.conditioning(last_action, skill, obj), z_img, heat, point_rows)


@T.no_grad()
def sub_policy_step(agent, subgoal, obs, last_action, rng, greedy=False, *,
                    memo: ForwardMemo):
    """The primitive that carries out a sub-goal.  Answer and End take
    Done with no forward; GoTo and the interaction skills sample an action
    from their family's sub-policy, plus an interaction point for
    interactive primitives (extras then hold its grid cell and offset).
    Rollout-only: no graph.  The forward comes from `memo`, the episode's
    `ForwardMemo`."""
    cfg = agent.cfg
    family = SKILL_FAMILY[subgoal.skill]
    if family in ("qa", "end"):
        return PrimitiveAction.Done, None, {}
    skill_id, obj_id = subgoal_ids(cfg, subgoal)
    logits, _value, point_maps = memo.sub_policy(
        agent, family, obs, action_id(last_action), skill_id, obj_id)
    idx = sample_logits(logits.data[0], rng, greedy)
    action = (NAV_ACTION_SPACE if family == "nav" else INTERACT_ACTION_SPACE)[idx]
    if action not in INTERACTIVE_ACTIONS:
        return action, None, {}
    grid_logits, mu, nu, _ = point_maps
    cell = sample_logits(grid_logits.data[0], rng, greedy)
    mean = mu.data[0, :, cell]
    var = nu.data[0, :, cell]
    if greedy:
        delta = mean
    else:
        delta = rng.normal(mean, np.sqrt(var))
    point = point_from_grid(cfg, cell, delta)
    cx, cy = cell_center(cfg, cell)
    return action, point, {"cell": cell, "delta": (point[0] - cx, point[1] - cy)}


def qa_logits(agent, token_rows, obs_batch):
    """(answer logits, attention weights) of the QA sub-policy for N
    questions, each on its frame.  Each distinct question runs one unroll
    and each distinct frame one `sub_encoder` forward (`encode`); the
    gathers sum the gradients of repeated rows before those run back."""
    q = agent.qa.encode_question(token_rows)
    return agent.qa.forward(q, encode(agent.sub_encoder, obs_batch))


@T.no_grad()
def qa_answer(agent, question_tokens, obs):
    """6-way answer distribution for a question on the current frame."""
    logits, _att = qa_logits(agent, [question_tokens], [obs])
    return T.softmax(logits, axis=-1).data[0]
