"""Losses vs naive references and hand-evaluated scalars; GRU convention;
checkpoint round trips."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from gridhouse import nn, tensor as T

RNG = np.random.default_rng(111)


# --------------------------------------------------------------------------
# independent references


def focal_loss_reference(pred, heat, num_centers, alpha=2.0, beta=4.0):
    """Naive double-loop focal loss, clamping identical to the real op."""
    total = 0.0
    p = np.clip(pred, nn.PROB_EPS, 1.0 - nn.PROB_EPS)
    flatp = p.reshape(-1)
    flaty = heat.reshape(-1)
    for i in range(flatp.size):
        yi, pi = flaty[i], flatp[i]
        if yi >= 1.0:
            total += (1.0 - pi) ** alpha * math.log(pi)
        else:
            total += (1.0 - yi ** beta) * pi ** alpha * math.log(1.0 - pi)
    return -total / max(num_centers, 1)


def focal_one(pred, tgt):
    """The training-path focal loss at N=1 on one HeatmapTarget."""
    pred = T.as_tensor(pred)
    return nn.focal_loss_batched(T.reshape(pred, (1,) + pred.shape), tgt.heat[None],
                                 [1.0 / max(len(tgt.centers), 1)])


def make_target(rng, shape, n_centers):
    nc, gh, gw = shape
    centers = []
    for _ in range(n_centers):
        cls = int(rng.integers(0, nc))
        cx = float(rng.uniform(0, gw))
        cy = float(rng.uniform(0, gh))
        centers.append((cls, (cx, cy), float(rng.uniform(0.5, 6.0))))
    return nn.gaussian_kernel_targets(centers, shape)


# --------------------------------------------------------------------------
# gaussian kernel targets


def test_kernel_center_is_one_and_sigma_decay():
    tgt = nn.gaussian_kernel_targets([(0, (3.2, 4.7), 1.0)], (2, 8, 8))
    assert tgt.heat[0, 4, 3] == 1.0
    # pixel at distance sigma from center: exp(-0.5)
    sigma = nn.kernel_sigma(1.0)
    assert sigma == 1.0
    assert abs(tgt.heat[0, 4, 4] - math.exp(-0.5)) < 1e-12
    assert abs(math.exp(-0.5) - 0.6065306597) < 1e-9


def test_kernel_overlap_takes_elementwise_max():
    tgt = nn.gaussian_kernel_targets(
        [(0, (1.0, 1.0), 1.0), (0, (3.0, 1.0), 1.0)], (1, 6, 6))
    # the midpoint pixel sees both kernels; max wins
    v1 = math.exp(-((2 - 1) ** 2) / 2.0)
    assert abs(tgt.heat[0, 1, 2] - v1) < 1e-12
    assert len(tgt.centers) == 2


def test_kernel_sigma_rule():
    assert nn.kernel_sigma(0.3) == 1.0          # floored at 1
    assert abs(nn.kernel_sigma(9.0) - 3.0) < 1e-12


# --------------------------------------------------------------------------
# focal loss


def test_focal_hand_scalars():
    # Y=1, pred=0.5: -(0.5)^2 ln 0.5 = 0.173287
    heat = np.ones((1, 1, 1))
    tgt = nn.HeatmapTarget(heat=heat, centers=[(0, (0, 0), (0.0, 0.0))])
    loss = focal_one(np.array([[[0.5]]]), tgt)
    assert abs(loss.item() - 0.173287) < 1e-6

    # Y=0, pred=0.9: -(0.9)^2 ln 0.1 = 1.865094
    tgt0 = nn.HeatmapTarget(heat=np.zeros((1, 1, 1)), centers=tgt.centers)
    loss0 = focal_one(np.array([[[0.9]]]), tgt0)
    assert abs(loss0.item() - 1.865094) < 1e-6

    # perfect center prediction -> ~0
    lossp = focal_one(np.array([[[1.0 - 1e-7]]]), tgt)
    assert abs(lossp.item()) < 1e-5


@pytest.mark.usefixtures("float64")
def test_focal_matches_reference_on_random_maps():
    for _ in range(25):
        tgt = make_target(RNG, (3, 8, 8), int(RNG.integers(1, 5)))
        pred = RNG.uniform(0.01, 0.99, size=(3, 8, 8))
        got = focal_one(pred, tgt).item()
        want = focal_loss_reference(pred, tgt.heat, len(tgt.centers))
        assert abs(got - want) < 1e-9


def test_focal_shape_mismatch():
    tgt = nn.HeatmapTarget(heat=np.zeros((1, 2, 2)))
    with pytest.raises(nn.ShapeMismatch):
        focal_one(np.zeros((1, 3, 3)), tgt)


# --------------------------------------------------------------------------
# gaussian log likelihood


@pytest.mark.usefixtures("float64")
def test_gaussian_ll_at_mean_unit_variance():
    val = nn.gaussian_log_likelihood(np.zeros(2), np.zeros(2), np.ones(2)).item()
    assert abs(val - (-math.log(2 * math.pi))) < 1e-12
    assert abs(val - (-1.837877)) < 1e-6


def test_gaussian_ll_symmetry_and_stationarity():
    mu = np.array([0.3, -0.7])
    var = np.array([0.5, 2.0])
    d = np.array([0.11, -0.4])
    hi = nn.gaussian_log_likelihood(mu + d, mu, var).item()
    lo = nn.gaussian_log_likelihood(mu - d, mu, var).item()
    assert abs(hi - lo) < 1e-12

    mut = T.Tensor(mu, requires_grad=True)
    nn.gaussian_log_likelihood(T.Tensor(mu), mut, T.Tensor(var)).backward()
    np.testing.assert_allclose(mut.grad, np.zeros(2), atol=1e-15)


def test_gaussian_ll_rejects_nonpositive_variance():
    with pytest.raises(nn.NonPositiveVariance):
        nn.gaussian_log_likelihood(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


@pytest.mark.usefixtures("float64")
def test_gaussian_ll_matches_scipy_style_oracle():
    # independent oracle: evaluate the density formula termwise
    for _ in range(10):
        mu = RNG.normal(size=2)
        var = RNG.uniform(0.1, 3.0, size=2)
        d = RNG.normal(size=2)
        want = sum(-0.5 * math.log(2 * math.pi * var[i]) - (d[i] - mu[i]) ** 2 / (2 * var[i])
                   for i in range(2))
        got = nn.gaussian_log_likelihood(d, mu, var).item()
        assert abs(got - want) < 1e-12


# --------------------------------------------------------------------------
# cross entropy


def logsumexp_ce(v, k):
    """-log softmax(v)[k] for one 1-D logit row, shifted by its max."""
    shift = v.max()
    return -(v[k] - shift - math.log(np.exp(v - shift).sum()))


@pytest.mark.usefixtures("float64")
def test_cross_entropy_uniform_is_ln_k():
    got = nn.cross_entropy_rows(T.Tensor(np.zeros((1, 10))), [3]).item()
    assert abs(got - math.log(10)) < 1e-12
    assert abs(math.log(10) - 2.302585) < 1e-6


def test_cross_entropy_confident_limit():
    logits = np.zeros((1, 5))
    logits[0, 2] = 1e4
    assert nn.cross_entropy_rows(T.Tensor(logits), [2]).item() < 1e-9


@pytest.mark.usefixtures("float64")
def test_cross_entropy_matches_logsumexp_oracle():
    for _ in range(20):
        v = RNG.normal(size=(5,)) * 3
        k = int(RNG.integers(0, 5))
        got = nn.cross_entropy_rows(T.Tensor(v[None]), [k]).item()
        assert abs(got - logsumexp_ce(v, k)) < 1e-12


def test_cross_entropy_range_error():
    for bad in (4, -1):
        with pytest.raises(nn.IndexOutOfRange):
            nn.cross_entropy_rows(T.Tensor(np.zeros((2, 4))), [0, bad])


@pytest.mark.usefixtures("float64")
def test_cross_entropy_rows_matches_singles():
    # the sum over rows, each row its own logsumexp oracle
    logits = RNG.normal(size=(6, 5))
    targets = RNG.integers(0, 5, size=6)
    got = nn.cross_entropy_rows(T.Tensor(logits), targets).item()
    want = sum(logsumexp_ce(logits[i], targets[i]) for i in range(6))
    assert abs(got - want) < 1e-10


# --------------------------------------------------------------------------
# GRU


def test_gru_zero_params_halves_hidden():
    rng = np.random.default_rng(0)
    cell = nn.GRUCell(rng, 3, 4)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    h = np.array([0.4, -1.0, 2.0, 0.0])
    out = nn.gru_sequence(cell, np.ones((1, 3)), T.Tensor(h))
    np.testing.assert_allclose(out.data[0], 0.5 * h, atol=1e-15)


@pytest.mark.usefixtures("float64")
def test_gru_two_step_unroll_is_composition():
    rng = np.random.default_rng(5)
    cell = nn.GRUCell(rng, 3, 4)
    xs = RNG.normal(size=(2, 3))
    h0 = RNG.normal(size=4)
    h2 = nn.gru_sequence(cell, xs, T.Tensor(h0)).data[1]
    h1 = nn.gru_sequence(cell, xs[:1], T.Tensor(h0)).data[0]
    h2b = nn.gru_sequence(cell, xs[1:], T.Tensor(h1)).data[0]
    np.testing.assert_allclose(h2, h2b, atol=1e-15)


def test_gru_shape_mismatch():
    cell = nn.GRUCell(np.random.default_rng(1), 3, 4)
    for xs, h0 in ((np.ones((2, 5)), np.ones(4)), (np.ones(3), np.ones(4)),
                   (np.ones((2, 3)), np.ones(5)), (np.ones((0, 3)), np.ones(4))):
        with pytest.raises(nn.ShapeMismatch):
            nn.gru_sequence(cell, xs, h0)


@pytest.mark.usefixtures("float64")
def test_gru_batched_matches_rowwise():
    from gridhouse.agents import _encode_tokens

    rng = np.random.default_rng(2)
    tok, cell = nn.Embedding(rng, 6, 3), nn.GRUCell(rng, 3, 4)
    rows = [[1, 2, 3], [4], [1, 2, 3], [0, 5]]
    batched = _encode_tokens(tok, cell, rows).data
    for i, row in enumerate(rows):
        np.testing.assert_allclose(batched[i], _encode_tokens(tok, cell, [row]).data[0],
                                   atol=1e-12)


# --------------------------------------------------------------------------
# the GRU ops against a float64 reference of the GRUCell convention


def _reference_gru_step(cell, x, h):
    """One step of the GRUCell convention written as ops, [x, h] gates."""
    xh = T.concat([x, h], axis=-1)
    z = T.sigmoid(T.linear(xh, cell.w_z, cell.b_z))
    r = T.sigmoid(T.linear(xh, cell.w_r, cell.b_r))
    cand = T.tanh(T.linear(T.concat([x, T.mul(r, h)], axis=-1), cell.w_h, cell.b_h))
    return T.mul(1.0 - z, h) + T.mul(z, cand)


def _reference_gru_sequence(cell, xs, h0):
    xs, h = T.as_tensor(xs), T.as_tensor(h0)
    outs = []
    for t in range(xs.shape[0]):
        h = _reference_gru_step(cell, xs[t], h)
        outs.append(h)
    return T.stack(outs, axis=0)


def _reference_encode_tokens(tok, gru, token_rows):
    """Every row its own unroll, a step per token, with no sharing."""
    outs = []
    for row in token_rows:
        h = T.Tensor(np.zeros(gru.hidden_dim))
        for t in row:
            h = _reference_gru_step(gru, tok(t), h)
        outs.append(h)
    return T.stack(outs, axis=0)


def _against_float64_reference(monkeypatch, build, dtype, terms):
    """Run `build()`, which returns (leaves, scalar loss), in `dtype` with
    the GRU ops, and again in float64 with them replaced by the reference
    compositions; every value the build draws is float32, so both see the
    same inputs.  The loss and each leaf gradient must agree within
    sqrt(terms) * eps(dtype) of the largest reference magnitude among them
    all: summed in another order, n terms move by about sqrt(n) ulps of
    their scale, and `terms` counts the products in the longest sum the
    test's values go through.  One scale for every value, since a gradient
    that cancels to about zero still carries its terms' rounding."""
    from gridhouse import agents

    def run(precision):
        with T.precision(precision):
            leaves, loss = build()
            loss.backward()
        return [loss.data] + [t.grad for t in leaves]

    got = run(dtype)
    with monkeypatch.context() as m:
        m.setattr(nn, "gru_sequence", _reference_gru_sequence)
        m.setattr(agents, "_encode_tokens", _reference_encode_tokens)
        want = run(np.float64)
    assert len(got) == len(want) and got[0].dtype == dtype
    assert [g is None for g in got] == [w is None for w in want]
    scale = max(float(np.abs(w).max()) for w in want if w is not None)
    for g, w in zip(got, want):
        if w is not None:
            np.testing.assert_allclose(g, w, rtol=0,
                                       atol=math.sqrt(terms) * np.finfo(dtype).eps * scale)


def _composed_gru_sequence(cell, xs, h0):
    """gru_sequence composed of ops, in its own forward order: sliced
    weight blocks, one input projection per gate with the bias, and a
    recurrent term per step added to it."""
    xs, h = T.as_tensor(xs), T.as_tensor(h0)
    i = cell.in_dim
    xz = T.linear(xs, cell.w_z[:, :i], cell.b_z)
    xr = T.linear(xs, cell.w_r[:, :i], cell.b_r)
    xc = T.linear(xs, cell.w_h[:, :i], cell.b_h)
    whz, whr, whh = cell.w_z[:, i:], cell.w_r[:, i:], cell.w_h[:, i:]
    outs = []
    for t in range(xs.shape[0]):
        z = T.sigmoid(xz[t] + T.linear(h, whz))
        r = T.sigmoid(xr[t] + T.linear(h, whr))
        cand = T.tanh(xc[t] + T.linear(T.mul(r, h), whh))
        h = T.mul(1.0 - z, h) + T.mul(z, cand)
        outs.append(h)
    return T.stack(outs, axis=0)


def _against_composition(monkeypatch, build, dtype, terms):
    """Run `build()`, which returns (leaves, scalar loss), in `dtype` with
    gru_sequence and again with `_composed_gru_sequence` in its place.  The
    forward runs the same operations in the same order, so the losses are
    equal in bytes.  The backward sums in its own order (h's carry as one
    expression, the three input projections of xs in one sum, each weight
    block over the steps by one matmul) where the composition's autograd
    sums node by node, so each leaf gradient agrees within sqrt(terms) *
    eps(dtype) of the largest magnitude among them, as in
    `_against_float64_reference`."""
    def run():
        with T.precision(dtype):
            leaves, loss = build()
            loss.backward()
        return [loss.data] + [t.grad for t in leaves]

    got = run()
    with monkeypatch.context() as m:
        m.setattr(nn, "gru_sequence", _composed_gru_sequence)
        want = run()
    assert len(got) == len(want) and got[0].dtype == dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert [g is None for g in got] == [w is None for w in want]
    scale = max(float(np.abs(w).max()) for w in want[1:] if w is not None)
    for g, w in zip(got[1:], want[1:]):
        if w is not None:
            np.testing.assert_allclose(g, w, rtol=0,
                                       atol=math.sqrt(terms) * np.finfo(dtype).eps * scale)


def _f32(a):
    return np.asarray(a, dtype=np.float32)


def _cell_leaves(cell, frozen):
    for p in cell.parameters():
        p.requires_grad = not frozen
    return cell.parameters()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("h0_grad", [False, True])
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
def test_gru_step_is_bitwise_its_composition(monkeypatch, dtype, batched, h0_grad,
                                             outside, frozen):
    # two token rows through one cell a step at a time, each step a
    # one-step gru_sequence node, from a shared initial hidden; with
    # `batched`, two streams of tokens step side by side from the rows of
    # h0; with `outside`, every hidden state also feeds a term of the loss
    def build():
        rng = np.random.default_rng(17)
        cell = nn.GRUCell(rng, 3, 5)
        table = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        h0 = T.Tensor(rng.normal(size=(2, 5) if batched else 5), requires_grad=h0_grad)
        loss = T.Tensor(0.0)
        for row in ([1, 2, 3, 1], [3, 3, 0]):
            hs = [h0[0], h0[1]] if batched else [h0]
            for tok in row:
                hs = [nn.gru_sequence(cell, table[np.array([x])], h)[0]
                      for x, h in zip((tok, 5 - tok), hs)]
                if outside:
                    for h in hs:
                        loss = loss + T.sum_(T.tanh(h))
            for h in hs:
                loss = loss + T.sum_(T.square(h))
        return [table, h0, *_cell_leaves(cell, frozen)], loss

    # 4 steps of 3 + 5 products per gate, over both rows and streams
    _against_composition(monkeypatch, build, dtype,
                         terms=2 * (2 if batched else 1) * 4 * (3 + 5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h0_grad", [False, True])
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("two", [False, True])
def test_gru_sequence_is_bitwise_its_composition(monkeypatch, dtype, h0_grad, outside,
                                                 frozen, two):
    # with `outside`, the hidden states and the inputs also feed other
    # terms; with `two`, a second unroll of the cell joins the loss, as two
    # episodes of one multi-task update do
    def build():
        rng = np.random.default_rng(23)
        cell = nn.GRUCell(rng, 4, 3)
        x_leaf = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        h0 = T.Tensor(rng.normal(size=3), requires_grad=h0_grad)
        xs = T.tanh(x_leaf)
        hs = nn.gru_sequence(cell, xs, h0)
        loss = T.sum_(T.square(hs))
        if outside:
            loss = loss + T.sum_(T.mul(T.sigmoid(hs), rng.normal(size=(6, 3)))) + T.sum_(xs)
        if two:
            loss = loss + T.sum_(T.tanh(nn.gru_sequence(cell, T.tanh(x_leaf[1:]), h0)))
        return [x_leaf, h0, *_cell_leaves(cell, frozen)], loss

    # 6 steps of 4 + 3 products per gate, over both unrolls
    _against_composition(monkeypatch, build, dtype, terms=(2 if two else 1) * 6 * (4 + 3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h0_grad", [False, True])
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("two", [False, True])
def test_gru_sequence_matches_the_float64_convention(monkeypatch, dtype, h0_grad, outside,
                                                     frozen, two):
    # with `outside`, the hidden states and the inputs also feed other
    # terms; with `two`, a second unroll of the cell joins the loss, as two
    # episodes of one multi-task update do
    def build():
        rng = np.random.default_rng(23)
        cell = nn.GRUCell(rng, 4, 3)
        x_leaf = T.Tensor(_f32(rng.normal(size=(6, 4))), requires_grad=True)
        h0 = T.Tensor(_f32(rng.normal(size=3)), requires_grad=h0_grad)
        xs = T.tanh(x_leaf)
        hs = nn.gru_sequence(cell, xs, h0)
        loss = T.sum_(T.square(hs))
        if outside:
            loss = loss + T.sum_(T.mul(T.sigmoid(hs), _f32(rng.normal(size=(6, 3))))) \
                + T.sum_(xs)
        if two:
            loss = loss + T.sum_(T.tanh(nn.gru_sequence(cell, T.tanh(x_leaf[1:]), h0)))
        return [x_leaf, h0, *_cell_leaves(cell, frozen)], loss

    # 6 steps of 4 + 3 products per gate
    _against_float64_reference(monkeypatch, build, dtype, terms=6 * (4 + 3))


# token rows through one cell: three lengths with a row repeated, one
# question on every row (a QA batch of an IQA episode), no repeat, and two
# rows repeated in turn
TOKEN_ROWS = {"repeat": [[1, 2, 3, 1], [3, 3, 0], [5], [1, 2, 3, 1]],
              "same": [[1, 2, 3, 1]] * 4,
              "distinct": [[1, 2, 3, 1], [3, 3, 0], [5], [2, 4]],
              "interleaved": [[3, 3, 0], [1, 2], [3, 3, 0], [1, 2], [5]]}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("rows", list(TOKEN_ROWS))
@pytest.mark.parametrize("outside", [False, True])
def test_token_encoding_matches_the_float64_convention(monkeypatch, dtype, frozen, rows,
                                                       outside):
    # with `outside`, the codes also feed a term of their own per row
    from gridhouse.agents import _encode_tokens

    token_rows = TOKEN_ROWS[rows]

    def build():
        rng = np.random.default_rng(17)
        tok, cell = nn.Embedding(rng, 6, 3), nn.GRUCell(rng, 3, 5)
        codes = _encode_tokens(tok, cell, token_rows)
        loss = T.sum_(T.square(codes))
        if outside:
            loss = loss + T.sum_(T.mul(T.tanh(codes), _f32(rng.normal(size=codes.shape))))
        return [tok.table, *_cell_leaves(cell, frozen)], loss

    # 4 steps of 3 + 5 products per gate, over as many rows as share them
    _against_float64_reference(monkeypatch, build, dtype, terms=len(token_rows) * 4 * (3 + 5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_qa_batch_sharing_one_question_matches_the_float64_convention(monkeypatch, dtype):
    # an IQA episode's QA rows all carry the task's one token list: one
    # unroll, whose gradient sums the five rows'
    from gridhouse.agents import HierarchicalAgent
    from gridhouse.skills import Skill
    from gridhouse.trainer import StepSample, _qa_loss
    from gridhouse.verification import micro_model_config, random_observation

    def build():
        rng = np.random.default_rng(29)
        cfg = micro_model_config()
        agent = HierarchicalAgent(np.random.default_rng(3), cfg)
        samples = [StepSample(obs=random_observation(rng, cfg), family="qa",
                              skill=int(Skill.Answer), obj=cfg.num_classes,
                              last_action=0, expert_action=0, answer_tokens=[1, 4, 2, 5],
                              answer_label=int(rng.integers(6)))
                   for _ in range(5)]
        return agent.parameters(), _qa_loss(agent, samples)

    # the encoder's first layer sums 13 * 3 * 3 products a cell, over the
    # 8 * 8 cells of 5 frames for its weight gradient
    _against_float64_reference(monkeypatch, build, dtype, terms=13 * 9 * 64 * 5)


def test_two_episode_multitask_loss_matches_the_float64_convention(monkeypatch):
    # task encoder, QA question encoder and the high-level unroll of two
    # episodes in one loss, as a multi-task update with two episodes
    from gridhouse.agents import HierarchicalAgent
    from gridhouse.verification import _hier_loss, micro_model_config

    def build():
        cfg = micro_model_config()
        agent = HierarchicalAgent(np.random.default_rng(0), cfg)
        loss = _hier_loss(agent, cfg, np.random.default_rng(1)) + \
            _hier_loss(agent, cfg, np.random.default_rng(2))
        return agent.parameters(), T.mul(loss, 0.5)

    # as the QA batch above, over the 2 * 4 frames of the two episodes
    _against_float64_reference(monkeypatch, build, np.float32, terms=13 * 9 * 64 * 8)


# --------------------------------------------------------------------------
# grad checks on the losses (spec tolerance 1e-4 at h=1e-5)


@pytest.mark.usefixtures("float64")
def test_gradcheck_focal_on_random_map():
    tgt = make_target(RNG, (3, 8, 8), 3)
    pred = RNG.uniform(0.05, 0.95, size=(3, 8, 8))
    err = nn.grad_check(lambda p: focal_one(p, tgt), [pred])
    assert err < 1e-4


@pytest.mark.usefixtures("float64")
def test_gradcheck_gru_all_params():
    rng = np.random.default_rng(3)
    cell = nn.GRUCell(rng, 3, 4)
    xs = RNG.normal(size=(2, 3))
    h = RNG.normal(size=4)

    def fn(wz, bz, wr, br, wh, bh):
        c = nn.GRUCell.__new__(nn.GRUCell)
        nn.Module.__init__(c)
        c.in_dim, c.hidden_dim = 3, 4
        c.w_z, c.b_z, c.w_r, c.b_r, c.w_h, c.b_h = wz, bz, wr, br, wh, bh
        return T.square(nn.gru_sequence(c, xs, h)).sum()

    err = nn.grad_check(fn, [cell.w_z.data, cell.b_z.data, cell.w_r.data,
                             cell.b_r.data, cell.w_h.data, cell.b_h.data])
    assert err < 1e-4


@pytest.mark.usefixtures("float64")
def test_gradcheck_gaussian_ll_wrt_mu_and_var():
    d = RNG.normal(size=2)

    def fn(mu, raw):
        var = T.softplus(raw) + nn.VAR_FLOOR
        return nn.gaussian_log_likelihood(d, mu, var)

    err = nn.grad_check(fn, [RNG.normal(size=2), RNG.normal(size=2)])
    assert err < 1e-4


def test_grad_check_command_passes(capsys):
    # `gridhouse grad-check` as shipped: every op and the policy network
    # at seed 0, exit code 0 only when the worst error is below 1e-4
    from gridhouse.cli import main

    code = main(["grad-check"])
    out = capsys.readouterr().out
    assert "policy_hier" in out, out
    assert code == 0, out


def test_a_new_grad_check_case_moves_no_other_row(monkeypatch):
    # each row's configurations draw from generators of their own, so a
    # case put in front of all the others leaves every row's value as it was
    from gridhouse import verification as V

    before = V.gradient_suite(seed=0)
    cases = V._op_cases
    monkeypatch.setattr(V, "_op_cases", lambda: {
        "extra": lambda rng: (lambda a: T.sum_(T.tanh(a)), [rng.uniform(-1, 1, size=(4, 3))]),
        **cases()})
    after = V.gradient_suite(seed=0)
    assert list(after) == ["extra", *before]
    assert {name: after[name] for name in before} == before


def test_grad_check_refuses_float32():
    # outside the float64 scope its inputs become float32 tensors, where
    # central differences at h = 1e-5 read relative errors up to 1.0
    x = RNG.normal(size=4)
    with pytest.raises(nn.NotFloat64):
        nn.grad_check(lambda t: T.square(t).sum(), [x])
    made_outside = T.Tensor(x)
    with T.precision(np.float64):
        assert nn.grad_check(lambda t: T.square(t).sum(), [x]) < 1e-6
        with pytest.raises(nn.NotFloat64):
            nn.grad_check(lambda t: T.square(t).sum(), [made_outside])


def test_hier_loss_float32_matches_a_float64_copy():
    # one micro agent in float32 and a float64 copy of its weights: float32
    # rounding alone separates them.  A sum of n float32 terms errs by at
    # most (n - 1) eps of the summed magnitudes, and the micro network's
    # widest sum has 117 terms (conv1, 13 channels x 3 x 3), so the value
    # and the gradients, each relative to the float64 gradient norm, must
    # agree within 128 eps (eps the float32 machine epsilon, about 1.5e-5)
    from gridhouse.agents import HierarchicalAgent
    from gridhouse.verification import _hier_loss, micro_model_config

    cfg = micro_model_config()
    bound = 128 * np.finfo(np.float32).eps
    agent = HierarchicalAgent(np.random.default_rng(4), cfg)
    loss = _hier_loss(agent, cfg, np.random.default_rng(8))
    loss.backward()
    with T.precision(np.float64):
        copy64 = HierarchicalAgent(np.random.default_rng(4), cfg)
        copy64.load_state_arrays({name: arr.astype(np.float64)
                                  for name, arr in agent.state_arrays().items()})
        loss64 = _hier_loss(copy64, cfg, np.random.default_rng(8))
        loss64.backward()
    assert loss.data.dtype == np.float32 and loss64.data.dtype == np.float64
    assert abs(loss.item() - loss64.item()) <= bound * abs(loss64.item())
    pairs = [(n, p.grad, q.grad) for (n, p), (_, q)
             in zip(agent.named_parameters(), copy64.named_parameters())]
    norm64 = np.sqrt(sum(float((g64 * g64).sum()) for _, _, g64 in pairs
                         if g64 is not None))
    for name, g32, g64 in pairs:
        assert (g32 is None) == (g64 is None), name
        if g64 is not None:
            assert g32.dtype == np.float32, name
            assert np.linalg.norm(g32 - g64) <= bound * norm64, name


# --------------------------------------------------------------------------
# adam + checkpoints


def test_adam_descends_quadratic():
    p = T.Tensor(np.array([3.0, -2.0]), requires_grad=True)
    opt = nn.Adam([p], lr=0.1, clip_norm=0.0)
    for _ in range(200):
        opt.zero_grad()
        T.square(p).sum().backward()
        opt.step()
    assert np.abs(p.data).max() < 0.05


def test_adam_freeze_keeps_params_fixed():
    # a parameter frozen by clearing requires_grad gets no gradient, and
    # Adam leaves it as it was and allocates it no moments
    a = T.Tensor(np.ones(2), requires_grad=False)
    b = T.Tensor(np.ones(2), requires_grad=True)
    opt = nn.Adam([a, b], lr=0.1)
    opt.zero_grad()
    (T.square(a).sum() + T.square(b).sum()).backward()
    opt.step()
    assert a.grad is None
    np.testing.assert_array_equal(a.data, np.ones(2))
    assert opt.m[0] is None and opt.v[0] is None
    state = opt.state_arrays()
    assert not state["m0"].any() and not state["v0"].any()
    assert opt.m[1].any() and opt.v[1].any()
    assert not np.allclose(b.data, np.ones(2))


def _reference_adam_step(opt, params, grads, m, v, t):
    """The out-of-place update Adam.step made before it worked in place,
    on copies: returns the new (params, m, v) for the parameters that
    have a gradient, the others as given."""
    live = [i for i, g in enumerate(grads) if g is not None]
    grads = list(grads)
    if opt.clip_norm:
        total = float(np.sqrt(sum(float((grads[i] * grads[i]).sum()) for i in live)))
        if total > opt.clip_norm:
            scale = opt.clip_norm / (total + 1e-12)
            for i in live:
                grads[i] = grads[i] * scale
    b1, b2 = nn.ADAM_BETAS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    params, m, v = list(params), list(m), list(v)
    for i in live:
        g = grads[i]
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        params[i] = params[i] - opt.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + nn.ADAM_EPS)
    return params, m, v


@pytest.mark.parametrize("clip_norm", [0.5, 0.0])
def test_adam_in_place_blocks_match_the_out_of_place_formula(clip_norm):
    # a parameter over two blocks long, a small one, one that gets a
    # gradient on odd steps only (its moments hold on the others) and one
    # that never gets a gradient (it gets no moments; its saved ones are
    # zeros), in float32
    rng = np.random.default_rng(8)
    shapes = [(3, nn.ADAM_BLOCK - 5), (7,), (4, 2), (5,)]
    params = [T.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for s in shapes]
    opt = nn.Adam(params, lr=0.01, clip_norm=clip_norm)
    arrays = [p.data for p in params]
    ref_p = [a.copy() for a in arrays]
    assert opt.m == opt.v == [None] * len(params)
    ref_m = [np.zeros_like(a) for a in arrays]
    ref_v = [np.zeros_like(a) for a in arrays]
    for step in range(1, 6):
        grads = [rng.normal(size=s).astype(np.float32) * 3.0 for s in shapes[:3]] + [None]
        if step % 2 == 0:
            grads[2] = None
        for p, g in zip(params, grads):
            p.grad = g
        ref_p, ref_m, ref_v = _reference_adam_step(opt, ref_p, grads, ref_m, ref_v, step)
        opt.step()
        state = opt.state_arrays()
        for i, p in enumerate(params):
            assert p.data is arrays[i]          # updated in place
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, ref_p[i])
            for m, ref in ((state[f"m{i}"], ref_m[i]), (state[f"v{i}"], ref_v[i])):
                assert m.dtype == np.float32
                np.testing.assert_array_equal(m, ref)
            if i < 3:                           # the live moments themselves
                assert state[f"m{i}"] is opt.m[i] and state[f"v{i}"] is opt.v[i]
    assert opt.m[3] is None and opt.v[3] is None


def test_adam_allocates_moments_at_a_parameters_first_gradient():
    # b's first gradient comes at step 3: until then it holds no moments,
    # and its first update is the formula's from zero moments at t = 3
    a = T.Tensor(np.ones(3, np.float32), requires_grad=True)
    b = T.Tensor(np.ones(2, np.float32), requires_grad=True)
    opt = nn.Adam([a, b], lr=0.1, clip_norm=0.0)
    gb = np.array([-2.0, 0.5], np.float32)
    for step in (1, 2, 3):
        a.grad = np.full(3, 0.5, np.float32)
        b.grad = gb if step == 3 else None
        opt.step()
        assert (opt.m[1] is None) == (opt.v[1] is None) == (step < 3)
        assert opt.m[0] is not None
    zeros = np.zeros(2, np.float32)
    (p,), (m,), (v,) = _reference_adam_step(opt, [np.ones(2, np.float32)], [gb],
                                            [zeros], [zeros], 3)
    np.testing.assert_array_equal(b.data, p)
    np.testing.assert_array_equal(opt.m[1], m)
    np.testing.assert_array_equal(opt.v[1], v)
    assert opt.m[1].dtype == opt.v[1].dtype == np.float32
    assert sorted(opt.state_arrays()) == ["_t", "m0", "m1", "v0", "v1"]


def _checkpoint_dtypes(path):
    """{section: {array name: dtype}} read through numpy's own loader."""
    dtypes = {}
    with np.load(path, allow_pickle=False) as archive:
        for key in archive.files:
            sec, name = key.split("/", 1)
            dtypes.setdefault(sec, {})[name] = str(archive[key].dtype)
    return dtypes


def test_pretrain_checkpoint_keeps_every_moment_name_shape_and_dtype(tmp_path, capsys):
    # Adam allocates moments only for what it updates, but the checkpoint's
    # opt/ section still holds m<i> and v<i> for every parameter i, in the
    # parameter's shape and float32, so a resumed run reads the same names
    # as ever; pre-training never updates the high level: its moments are
    # zeros
    from gridhouse.cli import _agent_for, _setup, main

    ini = tmp_path / "tiny.ini"
    ini.write_text("[model]\nd = 4\nhidden = 6\ntask_dim = 4\ntoken_dim = 3\n"
                   "ctx_dim = 2\ncond_dim = 4\ntrunk_dim = 8\npoint_dim = 4\n"
                   "enc_mid = 3\n[pretrain]\ntf_steps = 16\nsf_steps = 16\n"
                   "ppo_steps = 16\nupdate_every = 16\n"
                   "[ppo]\nhorizon = 16\nminibatch = 8\nepochs = 1\n")
    assert main(["pretrain", "--config", str(ini), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    opt = nn.load_checkpoint(tmp_path / "pretrain.ckpt")["opt"]
    args = type("Args", (), {"config": str(ini), "seed": None})()
    config, seed, registry, vocab, _ = _setup(args)
    agent, _cfg = _agent_for(config, registry, vocab, seed)
    params = agent.parameters()
    assert sorted(opt) == sorted(["_t", *(f"{k}{i}" for i in range(len(params)) for k in "mv")])
    assert opt["_t"].dtype == np.int64 and opt["_t"].shape == (1,) and opt["_t"][0] > 0
    high = {id(p) for p in agent.level_params(high=True)}
    assert high
    for i, p in enumerate(params):
        for m in (opt[f"m{i}"], opt[f"v{i}"]):
            assert m.shape == p.data.shape and m.dtype == np.float32
            if id(p) in high:
                assert not m.any()
    assert any(opt[f"v{i}"].any() for i, p in enumerate(params) if id(p) not in high)


def test_float64_checkpoint_loads_into_a_float32_agent_and_evaluates(tmp_path):
    # checkpoints written before the float32 switch hold float64 arrays:
    # they load rounded to float32, and `gridhouse eval` runs on them
    from gridhouse.cli import _agent_for, _setup, main
    from gridhouse.scenes import builtin_templates
    from gridhouse.tasks import DatasetSplit, generate_task, write_splits

    ini = tmp_path / "small.ini"       # small widths; the 8x8 grid of 32x32 frames
    ini.write_text("[model]\nd = 4\nhidden = 6\ntask_dim = 4\ntoken_dim = 3\n"
                   "ctx_dim = 2\ncond_dim = 4\ntrunk_dim = 8\npoint_dim = 4\n"
                   "enc_mid = 3\n")
    args = type("Args", (), {"config": str(ini), "seed": 0})()
    config, seed, registry, vocab, _ = _setup(args)
    with T.precision(np.float64):
        old, _cfg = _agent_for(config, registry, vocab, seed)
    ckpt = tmp_path / "float64.ckpt"
    nn.save_checkpoint(ckpt, {"model": old.state_arrays()})
    assert set(_checkpoint_dtypes(ckpt)["model"].values()) == {"float64"}

    agent, _cfg = _agent_for(config, registry, vocab, seed)
    agent.load_state_arrays(nn.load_checkpoint(ckpt)["model"])
    for name, p in agent.named_parameters():
        assert p.data.dtype == np.float32, name
        np.testing.assert_array_equal(p.data, old.state_arrays()[name].astype(np.float32),
                                      err_msg=name)

    template = builtin_templates()[0]
    task = generate_task("EXIN", "pickup", 0, template, 9, np.random.default_rng(1))
    write_splits([DatasetSplit("test_seen", [task], [template["template_id"]])],
                 tmp_path / "data")
    assert main(["eval", "--config", str(ini), "--ckpt", str(ckpt),
                 "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "metrics_test_seen.csv").exists()

    new = tmp_path / "float32.ckpt"
    nn.save_checkpoint(new, {"model": agent.state_arrays(),
                             "opt": nn.Adam(agent.parameters()).state_arrays()})
    dtypes = _checkpoint_dtypes(new)
    assert set(dtypes["model"].values()) == {"float32"}
    assert {d for name, d in dtypes["opt"].items() if name != "_t"} == {"float32"}


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    lin = nn.Linear(rng, 4, 3)
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, {"model": lin.state_arrays(), "meta": {"step": np.array([7])}})
    loaded = nn.load_checkpoint(path)
    assert loaded["meta"]["step"][0] == 7
    lin2 = nn.Linear(np.random.default_rng(10), 4, 3)
    lin2.load_state_arrays(loaded["model"])
    np.testing.assert_array_equal(lin2.w.data, lin.w.data)
    np.testing.assert_array_equal(lin2.b.data, lin.b.data)


def test_checkpoint_rejects_garbage(tmp_path):
    # garbage, a checkpoint cut short and a bare .npy are each refused by name
    good = tmp_path / "good.ckpt"
    nn.save_checkpoint(good, {"model": nn.Linear(np.random.default_rng(9), 4, 3).state_arrays()})
    garbage, truncated, npy = tmp_path / "bad.ckpt", tmp_path / "cut.ckpt", tmp_path / "a.npy"
    garbage.write_bytes(b"not a checkpoint")
    truncated.write_bytes(good.read_bytes()[:good.stat().st_size // 2])
    np.save(npy, np.ones(3, dtype=np.float32))
    for path in (garbage, truncated, npy):
        with pytest.raises(ValueError, match=re.escape(str(path))):
            nn.load_checkpoint(path)


def test_checkpoint_of_another_agent_is_rejected_with_its_names(tmp_path, capsys):
    # a checkpoint of an agent whose parameter names differ from this one's
    # (here one renamed parameter) must not load partly and evaluate
    # untrained weights: both sides of the mismatch are named
    from gridhouse.agents import HierarchicalAgent
    from gridhouse.cli import _agent_for, _setup, main
    from gridhouse.verification import micro_model_config

    def renamed(arrays):
        out = dict(arrays)
        out["high.gru.wz"] = out.pop("high.gru.w_z")
        return out

    cfg = micro_model_config()
    hier = HierarchicalAgent(np.random.default_rng(0), cfg)
    other = HierarchicalAgent(np.random.default_rng(1), cfg)
    with pytest.raises(nn.CheckpointMismatch) as err:
        other.load_state_arrays(renamed(hier.state_arrays()))
    assert "high.gru.wz" in str(err.value)         # unknown to the agent
    assert "high.gru.w_z" in str(err.value)        # missing from the checkpoint

    ini = tmp_path / "tiny.ini"
    ini.write_text("[model]\nd = 4\ngrid = 2\nhidden = 6\ntask_dim = 4\n"
                   "token_dim = 3\nctx_dim = 2\ncond_dim = 4\ntrunk_dim = 8\n"
                   "point_dim = 4\nenc_mid = 3\n")
    args = type("Args", (), {"config": str(ini), "seed": 0})()
    config, seed, registry, vocab, _ = _setup(args)
    agent, _cfg = _agent_for(config, registry, vocab, seed)
    ckpt, bad = tmp_path / "hier.ckpt", tmp_path / "renamed.ckpt"
    nn.save_checkpoint(ckpt, {"model": agent.state_arrays()})
    nn.save_checkpoint(bad, {"model": renamed(agent.state_arrays())})
    argv = ["eval", "--config", str(ini), "--data", str(tmp_path),
            "--out", str(tmp_path / "out")]
    assert main(argv + ["--ckpt", str(bad)]) == 1
    assert "CheckpointMismatch" in capsys.readouterr().err
    assert main(argv + ["--ckpt", str(ckpt)]) == 1   # loads, then finds no test_seen split
    assert "split not found" in capsys.readouterr().err
    for command in ("train", "plan-check"):   # no train split either
        assert main([command, "--config", str(ini), "--data", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: FileNotFoundError: split not found: {tmp_path / 'train.jsonl'}\n"


def test_a_checkpoint_in_the_tiled_layout_is_refused_and_not_loaded():
    # the layout that tiled the context over the grid: trunks and GRU gates
    # read (cond_dim + d) * grid^2 inputs, and the pointing head's conv1
    # read the tiled context as channels, with no context weights of its own
    from gridhouse.agents import HierarchicalAgent, ModelConfig

    cfg = ModelConfig(num_classes=10, vocab_size=40)
    tiled_in = (cfg.cond_dim + cfg.d) * cfg.grid * cfg.grid
    agent = HierarchicalAgent(np.random.default_rng(0), cfg)
    before = {name: arr.copy() for name, arr in agent.state_arrays().items()}
    rng = np.random.default_rng(1)
    shapes = {name: arr.shape for name, arr in before.items()
              if not name.startswith("interact.pointing.ctx.")}
    shapes.update({"nav.trunk.w": (cfg.trunk_dim, tiled_in),
                   "interact.trunk.w": (cfg.trunk_dim, tiled_in),
                   "interact.pointing.conv1.w": (cfg.point_dim, cfg.cond_dim + cfg.d, 1, 1)})
    for gate in ("w_z", "w_r", "w_h"):
        shapes[f"high.gru.{gate}"] = (cfg.hidden, tiled_in + cfg.hidden)
    assert tiled_in == 8192 and shapes["high.gru.w_z"] == (128, 8320)
    tiled = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
    with pytest.raises(nn.CheckpointMismatch) as err:
        agent.load_state_arrays(tiled)
    assert "interact.pointing.ctx.w" in str(err.value)
    # with the context weights added the names match, and the shapes refuse it
    tiled.update({name: before[name] for name in before if name not in tiled})
    with pytest.raises(nn.ShapeMismatch):
        agent.load_state_arrays(tiled)
    for name, arr in agent.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


def test_plan_check_refuses_an_empty_split(tmp_path, capsys):
    from gridhouse.cli import main

    (tmp_path / "train.jsonl").write_text("")
    assert main(["plan-check", "--data", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: EmptySplit: refusing to report a rate over zero episodes\n"


def test_cli_reports_a_missing_checkpoint(tmp_path, capsys):
    from gridhouse.cli import main

    none = str(tmp_path / "none.ckpt")
    out, data = ["--out", str(tmp_path / "out")], ["--data", str(tmp_path)]
    for argv in (["eval", *data, *out], ["eval-skills", *out]):
        assert main(argv) == 1
        assert main(argv + ["--ckpt", none]) == 1
    assert main(["train", *data, *out, "--init", none]) == 1
    given = "error: MissingCheckpoint: (no checkpoint given)"
    missing = f"error: MissingCheckpoint: {none}"
    assert capsys.readouterr().err.splitlines() == [given, missing, given, missing, missing]
