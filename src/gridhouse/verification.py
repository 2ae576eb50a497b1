"""Finite-difference verification of every differentiable op and of the
policy network, on tiny random configurations."""

from __future__ import annotations

import numpy as np

from . import nn, tensor as T
from .agents import (NONE_ACTION, NONE_SKILL, GridEncoder, HierarchicalAgent,
                     ModelConfig, _encode_tokens, action_id, encode, subgoal_ids)
from .skills import Skill
from .world import Observation

OP_CONFIGS = 50    # random configurations per op case
NET_CONFIGS = 5    # random policy networks
NET_COORDS = 20    # parameter coordinates sampled per network


# --------------------------------------------------------------------------
# op-level checks


def _op_cases(rng):
    def r(*shape, lo=-1.5, hi=1.5):
        return rng.uniform(lo, hi, size=shape)

    heat_tgt = nn.gaussian_kernel_targets(
        [(int(rng.integers(2)), (float(rng.uniform(0, 4)), float(rng.uniform(0, 4))),
          float(rng.uniform(0.5, 3)))
         for _ in range(3)], (2, 4, 4))
    idx = rng.integers(0, 4, size=5)
    net_rng = np.random.default_rng(int(rng.integers(1 << 30)))
    tok, cell = nn.Embedding(net_rng, 6, 3), nn.GRUCell(net_rng, 3, 4)
    # a repeated row and rows of three lengths: the gather sums the
    # repeats' gradients before their one unroll
    repeated = rng.integers(0, 6, size=3).tolist()
    token_rows = [repeated, rng.integers(0, 6, size=1).tolist(), repeated,
                  rng.integers(0, 6, size=5).tolist()]
    # constants captured once: the checked function must not change between
    # finite-difference evaluations
    ls_w = r(3, 4)
    gll_delta = r(2)
    emb_ids, emb_planes = rng.integers(0, 4, size=(2, 5, 5)), r(2, 2, 5, 5)
    # drawn from net_rng, so no draw from rng moves: a micro encoder over
    # five frames, three of them one observation, whose rows' gradients the
    # gather sums before the encoder's backward
    micro = micro_model_config()
    enc = GridEncoder(net_rng, micro)
    first, second, third = (random_observation(net_rng, micro) for _ in range(3))
    frames = [first, second, first, third, first]
    enc_w = net_rng.uniform(-1.5, 1.5, size=(len(frames), micro.d, micro.grid, micro.grid))

    return {
        "add_mul_div": (lambda a, b: T.sum_(T.div(T.mul(a + b, a), b)),
                        [r(3, 4), r(3, 4, lo=0.5, hi=2.0)]),
        "exp_log": (lambda a: T.sum_(T.log(T.exp(a) + 1.0)), [r(4, 2)]),
        "tanh_sigmoid": (lambda a: T.sum_(T.tanh(T.sigmoid(a))), [r(5)]),
        "relu_softplus": (lambda a: T.sum_(T.relu(a) + T.softplus(a)), [r(6)]),
        "abs_square": (lambda a: T.sum_(T.abs_(a) + T.square(a)),
                       [r(4) + np.sign(r(4)) * 0.2]),
        "clip": (lambda a: T.sum_(T.square(T.clip(a, -0.8, 0.8))), [r(5)]),
        "conv2d": (lambda x, w, b: T.sum_(T.tanh(T.conv2d(x, w, b, stride=2, pad=1))),
                   [r(1, 2, 5, 5), r(3, 2, 3, 3), r(3)]),
        "embed_conv2d": (lambda t, w, b: T.sum_(T.tanh(T.embed_conv2d(
            t, emb_ids, emb_planes, w, b, stride=2, pad=1))), [r(4, 3), r(3, 5, 3, 3), r(3)]),
        "gather": (lambda a: T.sum_(T.square(a[idx])), [r(4, 3)]),
        "concat_stack": (lambda a, b: T.sum_(T.tanh(T.concat([a, b], axis=1))),
                         [r(2, 3), r(2, 2)]),
        "log_softmax": (lambda a: T.sum_(T.mul(T.log_softmax(a, axis=-1), ls_w)),
                        [r(3, 4)]),
        "sum_mean": (lambda a: T.square(T.mean(a, axis=0)).sum() +
                     T.square(T.sum_(a, axis=1)).sum(), [r(3, 4)]),
        "cross_entropy_rows": (lambda a: nn.cross_entropy_rows(a, idx[:3]), [r(3, 4)]),
        "focal_loss_batched": (lambda p: nn.focal_loss_batched(
            T.clip(T.sigmoid(p), 0.02, 0.98), heat_tgt.heat[None],
            [1.0 / max(len(heat_tgt.centers), 1)]), [r(1, 2, 4, 4)]),
        "gaussian_log_likelihood": (
            lambda mu, raw: nn.gaussian_log_likelihood(gll_delta, mu,
                                                       T.softplus(raw) + 1e-4),
            [r(2), r(2)]),
        # grad_check perturbs the table and the cell's parameters in place
        "encode_tokens": (lambda *_: T.square(_encode_tokens(tok, cell, token_rows)).sum(),
                          [tok.table, *cell.parameters()]),
        "entropy_rows": (lambda a: nn.entropy_rows(a), [r(3, 4)]),
        "log_prob_rows": (lambda a: T.sum_(nn.log_prob_rows(a, idx[:3])), [r(3, 4)]),
        # 2-D and 1-D input, each with and without bias
        "linear": (lambda x2, x1, w, b: T.sum_(T.tanh(T.linear(x2, w, b)))
                   + T.sum_(T.square(T.linear(x2, w)))
                   + T.sum_(T.tanh(T.linear(x1, w, b)))
                   + T.sum_(T.square(T.linear(x1, w))),
                   [r(3, 4), r(4), r(2, 4), r(2)]),
        # grad_check perturbs the encoder's parameters in place
        "encode": (lambda *_: T.sum_(T.mul(T.tanh(encode(enc, frames)), enc_w)),
                   enc.parameters()),
    }


def _gru_sequence_case(rng):
    """The BPTT of nn.gru_sequence against finite differences: a 5-step
    unroll, over its inputs, initial hidden and the cell's six weights."""
    cell = nn.GRUCell(np.random.default_rng(int(rng.integers(1 << 30))), 3, 4)
    xs, h0 = rng.uniform(-1.5, 1.5, size=(5, 3)), rng.uniform(-1.5, 1.5, size=4)
    # grad_check perturbs the cell's own parameters in place
    return (lambda xs, h0, *_: T.square(nn.gru_sequence(cell, xs, h0)).sum(),
            [xs, h0, *cell.parameters()])


def micro_model_config():
    return ModelConfig(num_classes=3, vocab_size=7, obs_size=8,
                       d=4, grid=2, hidden=6, task_dim=4, token_dim=3,
                       ctx_dim=2, cond_dim=4, trunk_dim=8, point_dim=4,
                       enc_mid=3)


def random_observation(rng, cfg):
    n = cfg.obs_size
    class_map = rng.integers(0, cfg.num_classes + 3, size=(n, n)).astype(np.int16)
    inst = rng.integers(-1, 4, size=(n, n)).astype(np.int32)
    depth = rng.uniform(0, 8, size=(n, n)).astype(np.float32)
    bits = rng.integers(0, 2, size=(4, n, n)).astype(np.uint8)
    return Observation(n, n, class_map, inst, depth, bits)


def _hier_loss(agent, cfg, rng):
    """Scalar exercising every head: the multi-task episode loss on a
    synthetic two-step episode."""
    from .trainer import EpisodeBatch, LossWeights, StepSample, multitask_episode_loss

    steps = []
    for t in range(2):
        obs = random_observation(rng, cfg)
        fam = ("nav", "interact")[t % 2]
        s = StepSample(
            obs=obs, family=fam, skill=int(rng.integers(8)),
            obj=int(rng.integers(cfg.num_classes)),
            last_action=int(rng.integers(NONE_ACTION)),
            expert_action=int(rng.integers(6 if fam == "nav" else 13)),
            hl_last_skill=int(rng.integers(NONE_SKILL)),
            hl_last_obj=int(rng.integers(cfg.num_classes)))
        if fam == "interact":
            s.expert_cell = int(rng.integers(cfg.grid * cfg.grid))
            s.expert_delta = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            s.centers = [(int(rng.integers(cfg.num_classes)),
                          (float(rng.uniform(0, cfg.grid)), float(rng.uniform(0, cfg.grid))),
                          0.7)]
        steps.append(s)
    qa = StepSample(obs=random_observation(rng, cfg), family="qa",
                    skill=int(Skill.Answer), obj=cfg.num_classes,
                    last_action=action_id(None), expert_action=0,
                    answer_tokens=[1, 2, 3], answer_label=int(rng.integers(6)))
    qa.hl_last_skill, qa.hl_last_obj = subgoal_ids(cfg, None)
    steps.append(qa)
    episode = EpisodeBatch(task_tokens=[1, 4, 2], steps=steps)
    return multitask_episode_loss(agent, episode, cfg, LossWeights())


def _network_check(rng):
    """FD check of the whole policy network's parameters on one random
    configuration: perturbations hit the live parameter arrays, labels are
    redrawn identically from a pinned seed."""
    cfg = micro_model_config()
    agent = HierarchicalAgent(np.random.default_rng(int(rng.integers(1 << 30))), cfg)
    draw = int(rng.integers(1 << 30))
    return nn.grad_check(lambda *params: _hier_loss(agent, cfg, np.random.default_rng(draw)),
                         agent.parameters(), sample=(rng, NET_COORDS))


def gradient_suite(seed=0):
    """Max guarded relative error per op and of the policy network, computed
    in float64: every input, network and target is built inside the scope."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 424242]))
    report = {}
    with T.precision(np.float64):
        for _ in range(OP_CONFIGS):
            cases = _op_cases(rng)
            for name, (fn, inputs) in cases.items():
                err = nn.grad_check(fn, inputs, sample=(rng, 6))
                report[name] = max(report.get(name, 0.0), err)
        report["policy_hier"] = max(_network_check(rng) for _ in range(NET_CONFIGS))
        # drawn last, so every row above keeps its draws
        report["gru_sequence"] = max(nn.grad_check(*_gru_sequence_case(rng), sample=(rng, 6))
                                     for _ in range(OP_CONFIGS))
    return report
