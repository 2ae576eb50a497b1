"""Autodiff core: op correctness against numpy, gradients against FD."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gridhouse import nn, tensor as T
from gridhouse.agents import (GridEncoder, HierarchicalAgent, ModelConfig, _encode_tokens,
                              encode, obs_planes)
from gridhouse.classes import desk_registry
from gridhouse.nn import grad_check
from gridhouse.scenes import builtin_templates
from gridhouse.world import Heading, randomize_scene, with_agent

RNG = np.random.default_rng(20240817)


def test_add_mul_broadcast_values():
    a = T.Tensor(RNG.normal(size=(3, 4)))
    b = T.Tensor(RNG.normal(size=(4,)))
    out = T.div(a + T.mul(b, 2.0) - 1.0, b)
    np.testing.assert_allclose(out.data, (a.data + b.data * 2.0 - 1.0) / b.data)


def test_backward_accumulates_through_shared_node():
    x = T.Tensor([2.0], requires_grad=True)
    y = T.mul(x, 3.0)
    z = y + y  # d z / d x = 6
    z.sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


@pytest.mark.usefixtures("float64")
def test_linear_vector_grads():
    w = RNG.normal(size=(5, 3))
    x = RNG.normal(size=(3,))
    b = RNG.normal(size=(5,))

    err = grad_check(lambda wt, xt, bt: T.tanh(T.linear(xt, wt, bt)).sum(), [w, x, b])
    assert err < 1e-6


@pytest.mark.parametrize("n", [64, None])
def test_linear_is_bitwise_the_matmul_transpose_add_graph(n):
    # the graph one fused node replaced, x @ w.T then + b, computed its
    # gradients as g @ w, (x.T @ g).T (np.outer(x, g).T for a 1-D x) and
    # the bias sum; the fused node must give the same bits in float32
    rng = np.random.default_rng(5)
    shape = (8192,) if n is None else (n, 8192)
    xd = rng.normal(size=shape).astype(np.float32)
    wd = (rng.normal(size=(128, 8192)) * 0.01).astype(np.float32)
    bd = rng.normal(size=128).astype(np.float32)
    gd = rng.normal(size=shape[:-1] + (128,)).astype(np.float32)
    x, w, b = (T.Tensor(a, requires_grad=True) for a in (xd, wd, bd))
    out = T.linear(x, w, b)
    out.backward(gd)
    assert out.data.dtype == x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32
    np.testing.assert_array_equal(out.data, xd @ wd.T + bd)
    np.testing.assert_array_equal(x.grad, gd @ wd)
    if n is None:
        np.testing.assert_array_equal(w.grad, np.outer(xd, gd).T)
        np.testing.assert_array_equal(b.grad, gd)
    else:
        np.testing.assert_array_equal(w.grad, (xd.T @ gd).T)
        np.testing.assert_array_equal(b.grad, gd.sum(axis=0))
    assert w.grad.flags.c_contiguous


@pytest.mark.usefixtures("float64")
def test_shared_first_gradients_are_never_written_into():
    # `add` hands one upstream array to both of its parents, and `concat`
    # hands out views of its own gradient, which `add` shares with e; each
    # receiver keeps what it gets without a copy and later gets more, so
    # an in-place add into a first contribution would leak into the others
    a, b = RNG.normal(size=3), RNG.normal(size=3)
    a2, b2, e = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3)), RNG.normal(size=(4, 3))
    w1, w2, w3 = RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
    w4, w5, w6 = RNG.normal(size=(4, 3)), RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
    ta, tb, ta2, tb2, te = (T.Tensor(v, requires_grad=True) for v in (a, b, a2, b2, e))
    first = (T.mul(ta + tb, w1).sum()
             + T.mul(T.concat([ta2, tb2], axis=0) + te, w4).sum())
    later = (T.mul(ta, w2).sum() + T.mul(tb, w3).sum()
             + T.mul(ta2, w5).sum() + T.mul(tb2, w6).sum())
    # backward runs the first parent's nodes first: the shared arrays
    # arrive before the later contributions
    T.add(first, later).backward()
    np.testing.assert_array_equal(ta.grad, w1 + w2)
    np.testing.assert_array_equal(tb.grad, w1 + w3)
    np.testing.assert_array_equal(ta2.grad, w4[:2] + w5)
    np.testing.assert_array_equal(tb2.grad, w4[2:] + w6)
    np.testing.assert_array_equal(te.grad, w4)


def test_gather_scatter_add():
    x = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([0, 2, 2])
    out = x[idx].sum()
    out.backward()
    expect = np.zeros((4, 3))
    expect[0] += 1
    expect[2] += 2
    np.testing.assert_allclose(x.grad, expect)


def test_softmax_sums_to_one_and_is_stable():
    logits = T.Tensor(np.array([1e4, -1e4, 0.0, 5.0]))
    p = T.softmax(logits)
    assert abs(p.data.sum() - 1.0) < 1e-9
    assert np.all(np.isfinite(p.data))
    big = T.Tensor(RNG.normal(size=(7,)) * 1e4)
    assert np.all(np.isfinite(T.log_softmax(big).data))


@pytest.mark.usefixtures("float64")
def test_log_softmax_matches_logsumexp_oracle():
    # independent oracle: direct log-sum-exp on shifted values
    for _ in range(20):
        v = RNG.normal(size=(6,)) * 10
        shift = v.max()
        oracle = (v - shift) - np.log(np.exp(v - shift).sum())
        np.testing.assert_allclose(T.log_softmax(T.Tensor(v)).data, oracle, atol=1e-12)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("op", [T.exp, T.log, T.tanh, T.sigmoid, T.softplus, T.abs_, T.square])
def test_elementwise_grads(op):
    x = RNG.uniform(0.1, 2.0, size=(4, 3))
    err = grad_check(lambda t: op(t).sum(), [x])
    assert err < 1e-6


def test_clip_gradient_masks_outside():
    x = T.Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    T.clip(x, 0.0, 1.0).sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


@pytest.mark.usefixtures("float64")
def test_concat_stack_reshape_grads():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 2))

    def fn(at, bt):
        c = T.concat([at, bt], axis=1)
        return T.square(c).sum()

    assert grad_check(fn, [a, b]) < 1e-6

    def fn2(at, bt):
        s = T.stack([at, T.mul(bt, 2.0)], axis=0)
        return T.tanh(s).sum()

    assert grad_check(fn2, [RNG.normal(size=(2, 2)), RNG.normal(size=(2, 2))]) < 1e-6


NUM_CLASSES = len(desk_registry())
# (cin, size, cout, kernel, stride, pad) of every convolution HierarchicalAgent
# runs: GridEncoder conv1 on full maps and, folded, on the 2x2 squares of a
# rendered observation, its conv2, PointingHead conv1, conv2 and its heads;
# pad is an int or the (before, after) padding of both axes
MODEL_CONVS = [(13, 32, 24, 3, 2, 1), (13, 16, 24, 2, 1, (1, 0)), (24, 16, 64, 3, 2, 1),
               (64, 8, 48, 1, 1, 0),
               (48, 8, 48, 3, 1, 1), (48, 8, 1, 1, 1, 0), (48, 8, 2, 1, 1, 0),
               (48, 8, NUM_CLASSES, 1, 1, 0)]
CONV_KSP = sorted({(k, stride, pad) for *_, k, stride, pad in MODEL_CONVS})


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("k,stride,pad", CONV_KSP)
def test_conv2d_matches_naive_loops(k, stride, pad):
    # independent oracle: direct quadruple loop
    x = RNG.normal(size=(2, 3, 6, 5))
    w = RNG.normal(size=(4, 3, k, k))
    b = RNG.normal(size=(4,))
    out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, pad=pad).data

    before, after = T._pads(pad)
    xp = np.pad(x, ((0, 0), (0, 0), (before, after), (before, after)))
    ho = (6 + before + after - k) // stride + 1
    wo = (5 + before + after - k) // stride + 1
    ref = np.zeros((2, 4, ho, wo))
    for n in range(2):
        for c in range(4):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    ref[n, c, i, j] = (patch * w[c]).sum() + b[c]
    np.testing.assert_allclose(out, ref, atol=1e-12)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("k,stride,pad", CONV_KSP)
def test_conv2d_grads(k, stride, pad):
    x = RNG.normal(size=(1, 2, 5, 5))
    w = RNG.normal(size=(3, 2, k, k))
    b = RNG.normal(size=(3,))

    def fn(xt, wt, bt):
        return T.tanh(T.conv2d(xt, wt, bt, stride=stride, pad=pad)).sum()

    assert grad_check(fn, [x, w, b]) < 1e-5


def _sliding_window_im2col(x, kh, kw, stride, pad):
    # the columns as conv2d first built them: pad, window view, 6-D copy
    n, c, h, w = x.shape
    before, after = T._pads(pad)
    xp = np.pad(x, ((0, 0), (0, 0), (before, after), (before, after)))
    ho = (h + before + after - kh) // stride + 1
    wo = (w + before + after - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride, :, :]  # (n, c, ho, wo, kh, kw)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), ho, wo


def _all_channels_col2im(cols, x_shape, kh, kw, stride, pad, ho, wo):
    # the input gradient as conv2d computed it when it returned every
    # channel: the kernel offsets summed in row-major order into zeros
    n, c, h, w = x_shape
    before, after = T._pads(pad)
    xp = np.zeros((n, h + before + after, w + before + after, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, ho, wo, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols6[..., i, j]
    return xp[:, before:before + h, before:before + w].transpose(0, 3, 1, 2)


def _reference_conv2d(xd, wd, bd, gd, stride, pad):
    """(value, x, w and b gradients) of the convolution of xd for output
    gradient gd, computed as conv2d computed them from the two copies
    above."""
    n = xd.shape[0]
    cout, _, kh, kw = wd.shape
    cols, ho, wo = _sliding_window_im2col(xd, kh, kw, stride, pad)
    wmat = wd.reshape(cout, -1)
    out = (cols @ wmat.T + bd).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    gmat = gd.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
    gx = _all_channels_col2im(gmat @ wmat, xd.shape, kh, kw, stride, pad, ho, wo)
    return out, gx, (gmat.T @ cols).reshape(wd.shape), gmat.sum(axis=0)


def _bits(a):
    # float32 as raw bits: -0.0 and 0.0 differ
    assert a.dtype == np.float32
    return np.ascontiguousarray(a).view(np.uint32)


def test_model_convs_are_every_convolution_the_agent_runs(monkeypatch):
    # the encoder's first layer runs its GEMM over the folded kernel on a
    # rendered observation's 2x2 squares, and over its own kernel on a
    # hand-built observation's pixels
    seen = set()
    conv2d, embed_conv2d = T.conv2d, T.embed_conv2d

    def spy(x, w, b=None, stride=1, pad=0):
        cout, cin, k, _ = w.shape
        seen.add((cin, x.shape[2], cout, k, stride, pad))
        return conv2d(x, w, b, stride=stride, pad=pad)

    def embed_spy(table, class_ids, planes, w, b, stride=1, pad=0, block=1):
        cout, cin, k, _ = w.shape
        size = class_ids.shape[1]
        if block == 1:
            seen.add((cin, size, cout, k, stride, pad))
        else:
            taps, step, pads = T._block_geometry(k, stride, pad, block, size)
            seen.add((cin, size, cout, int(taps[-1]) + 1, step, pads))
        return embed_conv2d(table, class_ids, planes, w, b, stride=stride, pad=pad,
                            block=block)

    cfg = ModelConfig(num_classes=NUM_CLASSES, vocab_size=8)
    agent = HierarchicalAgent(np.random.default_rng(0), cfg)
    obs = randomize_scene(builtin_templates()[0], 2).observation
    assert obs.block == 2
    monkeypatch.setattr(T, "conv2d", spy)
    monkeypatch.setattr(T, "embed_conv2d", embed_spy)
    for enc, o in ((agent.hl_encoder, obs), (agent.sub_encoder, replace(obs, block=1))):
        z = encode(enc, [o])
    agent.interact.forward(agent.interact.conditioning([0], [0], [0]), z, heat=True)
    assert seen == set(MODEL_CONVS)


# OpenBLAS picks its kernels by size: every batch an update may have
BITWISE_BATCHES = [1, 2, 5, 13, 44, 64]


@pytest.mark.parametrize("layout", ["nchw", "nhwc_view"])
@pytest.mark.parametrize("n", BITWISE_BATCHES)
@pytest.mark.parametrize("cin,size,cout,k,stride,pad", MODEL_CONVS)
def test_conv2d_is_bitwise_the_sliding_window_conv(cin, size, cout, k, stride, pad, n,
                                                   layout):
    rng = np.random.default_rng(cin * 1000 + cout)
    xd = rng.normal(size=(n, cin, size, size)).astype(np.float32)
    xd[xd < -1.0] = -0.0     # relu-like zeros, with their sign
    xd[xd < 0.0] = 0.0
    if layout == "nhwc_view":  # a conv's output and its relu: an NHWC buffer
        xd = np.ascontiguousarray(xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    wd = (rng.normal(size=(cout, cin, k, k)) * 0.1).astype(np.float32)
    bd = rng.normal(size=cout).astype(np.float32)
    before, after = T._pads(pad)
    ho = (size + before + after - k) // stride + 1
    gd = rng.normal(size=(n, cout, ho, ho)).astype(np.float32)

    x, w, b = (T.Tensor(a, requires_grad=True) for a in (xd, wd, bd))
    out = T.conv2d(x, w, b, stride=stride, pad=pad)
    out.backward(gd)
    got = (out.data, x.grad, w.grad, b.grad)
    for g, want in zip(got, _reference_conv2d(xd, wd, bd, gd, stride, pad)):
        np.testing.assert_array_equal(_bits(g), _bits(want))


@pytest.mark.parametrize("n", BITWISE_BATCHES)
def test_embed_conv2d_is_bitwise_the_lookup_permute_concat_conv_graph(n):
    # the encoder's first layer before it was one node: the lookup
    # table[ids] (N, H, W, E), its NCHW copy, the concatenation with the
    # planes and conv2d; the table's gradient was the input gradient's E
    # leading channels back in NHWC, scattered by np.add.at
    rng = np.random.default_rng(n)
    (cin, size, cout, k, stride, pad), e = MODEL_CONVS[0], 8
    table = rng.normal(size=(NUM_CLASSES + 3, e)).astype(np.float32)
    ids = rng.integers(0, NUM_CLASSES + 3, size=(n, size, size))
    planes = rng.integers(0, 2, size=(n, cin - e, size, size)).astype(np.float32)
    wd = (rng.normal(size=(cout, cin, k, k)) * 0.1).astype(np.float32)
    bd = rng.normal(size=cout).astype(np.float32)
    ho = (size + 2 * pad - k) // stride + 1
    gd = rng.normal(size=(n, cout, ho, ho)).astype(np.float32)

    t, w, b = (T.Tensor(a, requires_grad=True) for a in (table, wd, bd))
    out = T.embed_conv2d(t, ids, planes, w, b, stride=stride, pad=pad)
    out.backward(gd)
    xd = np.concatenate([table[ids].transpose(0, 3, 1, 2), planes], axis=1)
    want_out, gx, want_w, want_b = _reference_conv2d(xd, wd, bd, gd, stride, pad)
    want_table = np.zeros_like(table)
    np.add.at(want_table, ids, np.ascontiguousarray(gx[:, :e].transpose(0, 2, 3, 1)))
    for g, want in zip((out.data, t.grad, w.grad, b.grad),
                       (want_out, want_table, want_w, want_b)):
        np.testing.assert_array_equal(_bits(g), _bits(want))


# (kernel, stride, pad, block): the encoder's first layer at block 2, and
# other folds, with taps that split, merge across the padding or all merge
BLOCK_GEOMETRIES = [(3, 2, 1, 2), (3, 2, 0, 2), (2, 2, 1, 2), (4, 2, 2, 2), (1, 2, 0, 2),
                    (5, 4, 2, 2), (5, 4, 2, 4), (3, 4, 1, 4)]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("k,stride,pad,block", BLOCK_GEOMETRIES)
def test_embed_conv2d_at_a_block_is_the_conv_over_the_repeated_input(k, stride, pad, block):
    # the folded node against the same node over every pixel of the input
    # its block x block squares make, which the bitwise test above pins to
    # the lookup, concatenation and conv2d graph
    rng = np.random.default_rng(k * 100 + stride * 10 + pad + block)
    n, e, p, size = 3, 4, 2, 5
    ids = rng.integers(-2, 6, size=(n, size, size))
    planes = rng.normal(size=(n, p, size, size))
    table, w, b = rng.normal(size=(6, e)), rng.normal(size=(3, e + p, k, k)), rng.normal(size=3)

    def run(ids, planes, block):
        params = [T.Tensor(a, requires_grad=True) for a in (table, w, b)]
        out = T.embed_conv2d(*params[:1], ids, planes, *params[1:], stride=stride, pad=pad,
                             block=block)
        T.sum_(T.mul(T.tanh(out), np.arange(out.data.size).reshape(out.shape) % 7)).backward()
        return [out.data] + [t.grad for t in params]

    def repeat(a):
        return np.repeat(np.repeat(a, block, axis=-2), block, axis=-1)

    got, want = run(ids, planes, block), run(repeat(ids), repeat(planes), 1)
    for g, v in zip(got, want):
        assert g.shape == v.shape
        np.testing.assert_allclose(g, v, rtol=0, atol=1e-12 * np.abs(v).max())


def _rendered_frames(count):
    """`count` distinct rendered observations: builtin scenes over seeds and
    the four headings."""
    frames, keys = [], set()
    for seed in range(count):
        for template in builtin_templates():
            state = randomize_scene(template, seed)
            for heading in Heading:
                obs = with_agent(state, heading=heading).observation
                if obs.key not in keys and len(frames) < count:
                    keys.add(obs.key)
                    frames.append(obs)
    return frames


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("n", [1, 5, 64])
def test_the_encoder_at_block_2_is_the_full_resolution_encoder(n):
    # encode reads a rendered batch at its 2x2 squares; the encoder over
    # every pixel is the same function: output and every parameter gradient
    enc = GridEncoder(np.random.default_rng(n), ModelConfig(num_classes=NUM_CLASSES,
                                                           vocab_size=8))
    frames = _rendered_frames(n)
    assert {o.block for o in frames} == {2}
    w = np.random.default_rng(0).normal(size=(n, 64, 8, 8))

    def run(z_of):
        for t in enc.parameters():
            t.grad = None
        z = z_of()
        T.sum_(T.mul(z, w)).backward()
        return [z.data] + [t.grad for t in enc.parameters()]

    got = run(lambda: encode(enc, frames))
    want = run(lambda: enc(*obs_planes(frames), 1))
    for g, v in zip(got, want):
        np.testing.assert_allclose(g, v, rtol=0, atol=1e-12 * np.abs(v).max())


def test_embedding_scatter_is_bitwise_np_add_at():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(NUM_CLASSES, 8)).astype(np.float32)
    idx = rng.integers(0, NUM_CLASSES, size=(64, 32, 32))
    idx[:, :4] -= NUM_CLASSES   # negative rows address the same table rows
    g = rng.normal(size=(64, 32, 32, 8)).astype(np.float32)
    t = T.Tensor(table, requires_grad=True)
    T.gather(t, idx).backward(g)
    want = np.zeros_like(table)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(_bits(t.grad), _bits(want))


def test_row_scatter_is_bitwise_np_add_at():
    # agents.encode gathers whole feature maps, (N, d, grid, grid), by a
    # 1-D row index: repeated rows sum their gradients in index order
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(20, 64, 8, 8)).astype(np.float32)
    idx = rng.integers(0, 20, size=64)
    idx[::5] -= 20   # negative rows address the same rows
    assert len(set((idx % 20).tolist())) < len(idx)
    g = rng.normal(size=(64, 64, 8, 8)).astype(np.float32)
    t = T.Tensor(feats, requires_grad=True)
    T.gather(t, idx).backward(g)
    want = np.zeros_like(feats)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(_bits(t.grad), _bits(want))


@pytest.mark.usefixtures("float64")
def test_sum_mean_axis_grads():
    x = RNG.normal(size=(3, 4))
    assert grad_check(lambda t: T.square(T.sum_(t, axis=0)).sum(), [x]) < 1e-6
    assert grad_check(lambda t: T.square(T.mean(t, axis=1)).sum(), [x]) < 1e-6


def test_backward_determinism():
    # same graph + same seed -> bit-identical gradients
    def run():
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        out = T.tanh(T.linear(x, w)).sum()
        out.backward()
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


# --------------------------------------------------------------------------
# what backward keeps


def _graph(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_frees_each_intermediate_once_its_parents_have_their_gradients():
    # the op under y: when its backward runs, y, consumed before it, has
    # dropped its gradient and backward, and the op itself has dropped its
    # own gradient; afterwards only the leaves and the root hold gradients,
    # and every node keeps its parents
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(1, 1, 2, 2)), requires_grad=True)
    seen_then = []

    def back(g):
        seen_then.append((h.grad, y.grad, y._backward))
        T._acc(x, 2.0 * g)

    h = T._make(2.0 * x.data, (x,), back)
    y = T.tanh(T.conv2d(T.reshape(h, (1, 1, 3, 4)), w, pad=1))
    loss = T.sum_(T.square(y))
    parents = {id(node): node._parents for node in _graph(loss)}
    loss.backward()
    assert seen_then == [(None, None, None)]
    for node in _graph(loss):
        assert node._parents == parents[id(node)]
        assert node._backward is None
        if node is loss or not node._parents:
            assert node.grad is not None, node
        else:
            assert node.grad is None, node
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_a_second_backward_through_a_consumed_graph_raises():
    # the root itself, and a new root over a consumed node: both raise
    # before any gradient moves
    x = T.Tensor(np.random.default_rng(12).normal(size=4), requires_grad=True)
    shared = T.tanh(T.mul(x, 2.0))
    loss = T.sum_(shared)
    loss.backward()
    before = x.grad.copy()
    with pytest.raises(T.GraphConsumed):
        loss.backward()
    with pytest.raises(T.GraphConsumed):
        T.sum_(T.square(shared)).backward()
    np.testing.assert_array_equal(x.grad, before)
    # a new graph over the same leaf backpropagates as usual
    T.sum_(T.tanh(T.mul(x, 2.0))).backward()
    np.testing.assert_array_equal(x.grad, before + before)


@pytest.mark.usefixtures("float64")
def test_grad_check_inputs_and_parameters_keep_their_gradients():
    lin = nn.Linear(np.random.default_rng(2), 4, 3)
    x = T.Tensor(np.random.default_rng(13).normal(size=(5, 4)))
    assert grad_check(lambda w, b, xt: T.sum_(T.tanh(lin(xt))), [lin.w, lin.b, x]) < 1e-6
    gz = 1.0 - np.tanh(x.data @ lin.w.data.T + lin.b.data) ** 2
    np.testing.assert_allclose(lin.w.grad, gz.T @ x.data, rtol=1e-12)
    np.testing.assert_allclose(lin.b.grad, gz.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(x.grad, gz @ lin.w.data, rtol=1e-12)


# --------------------------------------------------------------------------
# how nodes are built


def _reachable_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_the_multitask_loss_graph_keeps_its_node_count():
    # read as the loss's reachable nodes with one node per GRU unroll: each
    # of the two token encodings (a task row, a QA row, three tokens each)
    # is its unroll, lookup, zero initial hidden, last-state gather, stack
    # and row gather, 6 nodes (318 when each token was a step node with its
    # lookup and an alias of w_h, 11; 496 when the steps and the
    # high-level unroll were composed of ops), and one node per encoder's
    # first layer (334 when that was a lookup, its NCHW copy, the planes
    # and their concatenation before the conv, in each of the four encoder
    # calls; its frames are distinct, so `agents.encode` adds no gather);
    # how an op builds its node must add or drop none
    from gridhouse.verification import _hier_loss, micro_model_config

    cfg = micro_model_config()
    agent = HierarchicalAgent(np.random.default_rng(0), cfg)
    assert _reachable_nodes(_hier_loss(agent, cfg, np.random.default_rng(1))) == 308


def test_a_token_row_and_an_unroll_add_one_gru_node_each():
    rng = np.random.default_rng(4)
    cell, tok = nn.GRUCell(rng, 3, 4), nn.Embedding(rng, 6, 3)
    codes = _encode_tokens(tok, cell, [[2, 5, 1]])
    # the row gather, the stack, the last-state gather, the unroll, its
    # lookup of the table, its initial hidden and the six weights
    assert codes.shape == (1, 4) and _reachable_nodes(codes) == 13
    unroll = codes._parents[0]._parents[0]._parents[0]
    assert unroll._parents[0]._parents == (tok.table,)
    assert unroll._parents[2:] == tuple(cell.parameters())

    xs = T.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    hs = nn.gru_sequence(cell, xs, np.zeros(4))
    # the unroll's node, xs, the initial hidden and the six weights
    assert hs.shape == (7, 4) and _reachable_nodes(hs) == 9


# every op that states only its forward value and its local gradient, on
# (2, 3) inputs in (0.5, 1.5)
UNARY_OPS = {
    "exp": T.exp, "log": T.log, "tanh": T.tanh, "sigmoid": T.sigmoid, "relu": T.relu,
    "softplus": T.softplus, "abs_": T.abs_, "square": T.square,
    "clip": lambda a: T.clip(a, 0.7, 1.2),
    "reshape": lambda a: T.reshape(a, (3, 2)),
    "gather": lambda a: T.gather(a, np.array([1, 0, 1])),
    "sum_": lambda a: T.sum_(a, axis=0), "log_softmax": T.log_softmax,
}
BINARY_OPS = {"add": T.add, "mul": T.mul, "div": T.div}


def _cell(w_z, b_z, w_r, b_r, w_h, b_h):
    """A GRU cell (I = 3, D = 4) whose weights are the given tensors."""
    cell = nn.GRUCell(np.random.default_rng(0), 3, 4)
    cell.w_z, cell.b_z, cell.w_r, cell.b_r, cell.w_h, cell.b_h = w_z, b_z, w_r, b_r, w_h, b_h
    return cell


# the GRU unroll on its input, initial hidden and six weights, and the
# encoder's first layer on its table, weight and bias (class ids and
# planes are constants), with shapes
GRU_WEIGHTS = [(4, 7), (4,)] * 3
CLASS_IDS, PLANES = np.arange(50).reshape(2, 5, 5) % 4, np.ones((2, 2, 5, 5))
MULTI_OPS = {
    "gru_sequence": (lambda xs, h0, *w: nn.gru_sequence(_cell(*w), xs, h0),
                     [(2, 3), (4,), *GRU_WEIGHTS]),
    "embed_conv2d": (lambda t, w, b: T.embed_conv2d(t, CLASS_IDS, PLANES, w, b, stride=2, pad=1),
                     [(4, 3), (3, 5, 3, 3), (3,)]),
}


@pytest.mark.parametrize("name", [*UNARY_OPS, *BINARY_OPS, *MULTI_OPS])
def test_an_op_keeps_exactly_its_parameters_and_is_otherwise_a_leaf(name):
    rng = np.random.default_rng(5)
    if name in MULTI_OPS:
        op, shapes = MULTI_OPS[name]
    else:
        op = UNARY_OPS.get(name) or BINARY_OPS[name]
        shapes = [(2, 3)] * (1 if name in UNARY_OPS else 2)
    data = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]

    def is_leaf(t):
        return t._parents == () and t._backward is None and not t.requires_grad

    params = [T.Tensor(d, requires_grad=True) for d in data]
    assert is_leaf(op(*[T.Tensor(d) for d in data]))
    with T.no_grad():
        assert is_leaf(op(*params))
    out = op(*params)
    assert out.requires_grad and out._backward is not None
    parents = list(out._parents)
    assert len(parents) == len(params)
    assert all(p is q for p, q in zip(parents, params))
    if name in BINARY_OPS:
        # one operand a parameter: only it receives a gradient
        out = op(params[0], data[1])
        assert out._parents[0] is params[0] and not out._parents[1].requires_grad
        T.sum_(out).backward()
        assert params[0].grad.shape == (2, 3) and out._parents[1].grad is None
