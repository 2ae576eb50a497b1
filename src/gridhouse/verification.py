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


def _op_cases():
    """{name: build}: build(rng) draws one random configuration of the case,
    its inputs and every constant, from `rng`, the case's own generator,
    and returns the (fn, inputs) that grad_check takes."""
    def r(rng, *shape, lo=-1.5, hi=1.5):
        return rng.uniform(lo, hi, size=shape)

    def idx(rng):
        return rng.integers(0, 4, size=5)

    def embed_conv2d(rng):
        ids, planes = rng.integers(0, 4, size=(2, 5, 5)), r(rng, 2, 2, 5, 5)
        return (lambda t, w, b: T.sum_(T.tanh(T.embed_conv2d(
            t, ids, planes, w, b, stride=2, pad=1))),
            [r(rng, 4, 3), r(rng, 3, 5, 3, 3), r(rng, 3)])

    def embed_conv2d_block(rng):
        # the folded first layer: ids and planes of 3x3 squares of 2x2
        # pixels, under a 3x3 / stride-2 / pad-1 kernel
        ids, planes = rng.integers(0, 4, size=(2, 3, 3)), r(rng, 2, 2, 3, 3)
        return (lambda t, w, b: T.sum_(T.tanh(T.embed_conv2d(
            t, ids, planes, w, b, stride=2, pad=1, block=2))),
            [r(rng, 4, 3), r(rng, 3, 5, 3, 3), r(rng, 3)])

    def log_softmax(rng):
        # constants captured once: the checked function must not change
        # between finite-difference evaluations
        w = r(rng, 3, 4)
        return lambda a: T.sum_(T.mul(T.log_softmax(a, axis=-1), w)), [r(rng, 3, 4)]

    def focal_loss_batched(rng):
        tgt = nn.gaussian_kernel_targets(
            [(int(rng.integers(2)), (float(rng.uniform(0, 4)), float(rng.uniform(0, 4))),
              float(rng.uniform(0.5, 3)))
             for _ in range(3)], (2, 4, 4))
        return (lambda p: nn.focal_loss_batched(
            T.clip(T.sigmoid(p), 0.02, 0.98), tgt.heat[None],
            [1.0 / max(len(tgt.centers), 1)]), [r(rng, 1, 2, 4, 4)])

    def gaussian_log_likelihood(rng):
        delta = r(rng, 2)
        return (lambda mu, raw: nn.gaussian_log_likelihood(delta, mu, T.softplus(raw) + 1e-4),
                [r(rng, 2), r(rng, 2)])

    def encode_tokens(rng):
        net_rng = np.random.default_rng(int(rng.integers(1 << 30)))
        tok, cell = nn.Embedding(net_rng, 6, 3), nn.GRUCell(net_rng, 3, 4)
        # a repeated row and rows of three lengths: the gather sums the
        # repeats' gradients before their one unroll
        repeated = rng.integers(0, 6, size=3).tolist()
        rows = [repeated, rng.integers(0, 6, size=1).tolist(), repeated,
                rng.integers(0, 6, size=5).tolist()]
        # grad_check perturbs the table and the cell's parameters in place
        return (lambda *_: T.square(_encode_tokens(tok, cell, rows)).sum(),
                [tok.table, *cell.parameters()])

    def encode_case(rng):
        # a micro encoder over five frames, three of them one observation,
        # whose rows' gradients the gather sums before the encoder's backward
        micro = micro_model_config()
        enc = GridEncoder(rng, micro)
        first, second, third = (random_observation(rng, micro) for _ in range(3))
        frames = [first, second, first, third, first]
        w = r(rng, len(frames), micro.d, micro.grid, micro.grid)
        # grad_check perturbs the encoder's parameters in place
        return (lambda *_: T.sum_(T.mul(T.tanh(encode(enc, frames)), w)),
                enc.parameters())

    def gru_sequence(rng):
        # a 5-step unroll, over its inputs, initial hidden and the cell's
        # six weights, which grad_check perturbs in place
        cell = nn.GRUCell(np.random.default_rng(int(rng.integers(1 << 30))), 3, 4)
        return (lambda xs, h0, *_: T.square(nn.gru_sequence(cell, xs, h0)).sum(),
                [r(rng, 5, 3), r(rng, 4), *cell.parameters()])

    return {
        "add_mul_div": lambda rng: (lambda a, b: T.sum_(T.div(T.mul(a + b, a), b)),
                                    [r(rng, 3, 4), r(rng, 3, 4, lo=0.5, hi=2.0)]),
        "exp_log": lambda rng: (lambda a: T.sum_(T.log(T.exp(a) + 1.0)), [r(rng, 4, 2)]),
        "tanh_sigmoid": lambda rng: (lambda a: T.sum_(T.tanh(T.sigmoid(a))), [r(rng, 5)]),
        "relu_softplus": lambda rng: (lambda a: T.sum_(T.relu(a) + T.softplus(a)),
                                      [r(rng, 6)]),
        "abs_square": lambda rng: (lambda a: T.sum_(T.abs_(a) + T.square(a)),
                                   [r(rng, 4) + np.sign(r(rng, 4)) * 0.2]),
        "clip": lambda rng: (lambda a: T.sum_(T.square(T.clip(a, -0.8, 0.8))), [r(rng, 5)]),
        "conv2d": lambda rng: (
            lambda x, w, b: T.sum_(T.tanh(T.conv2d(x, w, b, stride=2, pad=1))),
            [r(rng, 1, 2, 5, 5), r(rng, 3, 2, 3, 3), r(rng, 3)]),
        "embed_conv2d": embed_conv2d,
        "embed_conv2d_block": embed_conv2d_block,
        "gather": lambda rng: (lambda a, i=idx(rng): T.sum_(T.square(a[i])), [r(rng, 4, 3)]),
        "concat_stack": lambda rng: (lambda a, b: T.sum_(T.tanh(T.concat([a, b], axis=1))),
                                     [r(rng, 2, 3), r(rng, 2, 2)]),
        "log_softmax": log_softmax,
        "sum_mean": lambda rng: (lambda a: T.square(T.mean(a, axis=0)).sum() +
                                 T.square(T.sum_(a, axis=1)).sum(), [r(rng, 3, 4)]),
        "cross_entropy_rows": lambda rng: (
            lambda a, i=idx(rng)[:3]: nn.cross_entropy_rows(a, i), [r(rng, 3, 4)]),
        "focal_loss_batched": focal_loss_batched,
        "gaussian_log_likelihood": gaussian_log_likelihood,
        "encode_tokens": encode_tokens,
        "entropy_rows": lambda rng: (lambda a: nn.entropy_rows(a), [r(rng, 3, 4)]),
        "log_prob_rows": lambda rng: (
            lambda a, i=idx(rng)[:3]: T.sum_(nn.log_prob_rows(a, i)), [r(rng, 3, 4)]),
        # 2-D and 1-D input, each with and without bias
        "linear": lambda rng: (lambda x2, x1, w, b: T.sum_(T.tanh(T.linear(x2, w, b)))
                               + T.sum_(T.square(T.linear(x2, w)))
                               + T.sum_(T.tanh(T.linear(x1, w, b)))
                               + T.sum_(T.square(T.linear(x1, w))),
                               [r(rng, 3, 4), r(rng, 4), r(rng, 2, 4), r(rng, 2)]),
        "encode": encode_case,
        "gru_sequence": gru_sequence,
    }


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


def _case_rng(seed, config, name):
    """The generator of configuration `config` of the row `name`: a row's
    draws depend on nothing else, so adding, removing or reordering rows
    moves no other row."""
    return np.random.default_rng(np.random.SeedSequence([seed, 424242, config, *name.encode()]))


def gradient_suite(seed=0):
    """Max guarded relative error per op and of the policy network, computed
    in float64: every input, network and target is built inside the scope,
    each configuration from its own `_case_rng`."""
    report = {}
    with T.precision(np.float64):
        for name, build in _op_cases().items():
            errs = []
            for config in range(OP_CONFIGS):
                rng = _case_rng(seed, config, name)
                fn, inputs = build(rng)
                errs.append(nn.grad_check(fn, inputs, sample=(rng, 6)))
            report[name] = max(errs)
        report["policy_hier"] = max(_network_check(_case_rng(seed, config, "policy_hier"))
                                    for config in range(NET_CONFIGS))
    return report
