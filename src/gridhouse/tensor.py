"""Minimal reverse-mode autodiff over numpy arrays.

Only the ops the policies and losses need: elementwise arithmetic with
broadcasting, the fused linear layer, reductions,
indexing/gather, concat/reshape, the usual nonlinearities, a
strided/padded conv2d, and `embed_conv2d`, a conv2d over an embedding
lookup and constant planes.  Gradients accumulate additively (see `_acc`);
backward() on a scalar fills the grad buffer of every reachable leaf and
frees each intermediate gradient and backward as soon as it is used, so a
graph is backpropagated once.

An op states its forward value and, per parent, its local gradient: a
function of the node's gradient, one for `_unary` and one per operand for
`_binary`.  The node keeps them as a tuple, and backward sums each result
down to its parent's shape.  An op whose parents share backward work (one
split, one GEMM) hands its node one closure through `_make`; so does
`nn.gru_sequence`, whose closure runs the backward of a whole GRU unroll.
A node keeps parents and a backward only when grad is enabled and a
parent requires grad; otherwise it is a leaf.

conv2d is one GEMM over im2col columns.  `_im2col` builds them with one
clipping `np.take` through a flat index that `_im2col_index` computes
once per geometry and memoizes, read-only; a padded tap reads a zero
appended to each sample's row, and a 1x1 stride-1 conv takes the
channels-last transpose of its input as its columns.  The columns, and so
every product, are the same bits a sliding-window copy gives.  `_col2im`
keeps summing the kernel offsets in row-major order into zeros: a pixel
that several windows cover is a float32 sum whose last bits depend on that
order, so a different scatter would change every input gradient.  It
returns only the leading channels asked for, in (N, H, W, C):
`embed_conv2d` needs just its embedding channels, in the lookup's layout.

`embed_conv2d` may run at block resolution; its docstring states the
kernel fold.

Dtype contract: every Tensor holds DEFAULT_DTYPE, float32, so the model
trains, rolls out and evaluates in float32.  Float64 exists only inside
`precision(np.float64)`, which the finite-difference checks (and tests of
float64 identities) enter; `nn.grad_check` refuses any input that is not
float64.  Code on the training path builds its constant arrays in
DEFAULT_DTYPE and keeps scalars as Python floats: under NumPy 2 (NEP 50) a
single float64 array or NumPy scalar upcasts a whole float32 computation.
"""

from __future__ import annotations

import contextlib
from functools import cache

import numpy as np

DEFAULT_DTYPE = np.float32

GRAD_ENABLED = True


@contextlib.contextmanager
def precision(dtype):
    """Build and compute every Tensor in `dtype` inside the block (float64
    for finite-difference checks); arrays made outside keep their dtype."""
    global DEFAULT_DTYPE
    prev = DEFAULT_DTYPE
    DEFAULT_DTYPE = dtype
    try:
        yield
    finally:
        DEFAULT_DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (rollout/evaluation fast path)."""
    global GRAD_ENABLED
    prev = GRAD_ENABLED
    GRAD_ENABLED = False
    try:
        yield
    finally:
        GRAD_ENABLED = prev


class GraphConsumed(RuntimeError):
    """backward() reached a node whose backward already ran: its gradient
    and the arrays its backward saved are gone."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    # -- graph ------------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate d(self)/d(leaf), times `grad`, into every leaf's grad.

        Each node's backward runs once, latest first.  Right after it runs,
        the node drops its `_backward`, and with it every array the op
        saved for its backward (im2col columns, masks, a GRU unroll's
        states), and, unless it is self, its grad.  An intermediate
        gradient therefore lives only until its parents have received
        theirs.  Leaves (parameters, `nn.grad_check` inputs) keep their
        grads, self keeps its own, and every node keeps `_parents` and
        `data`.  A second backward through a consumed node raises
        GraphConsumed before any gradient is touched."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar")
            grad = np.ones_like(self.data)
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents and node._backward is None:
                raise GraphConsumed("backward() through a graph it has already run through")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _acc(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            back, g = node._backward, node.grad
            if back is None:                # a leaf
                continue
            node._backward = None
            if node is not self:
                node.grad = None
            if g is None:
                continue
            if isinstance(back, tuple):     # a local gradient per parent
                for p, local in zip(node._parents, back):
                    if p.requires_grad:
                        _acc(p, _unbroadcast(local(g), p.data.shape))
            else:                           # a closure of `_make`
                back(g)

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __getitem__(self, idx):
        return gather(self, idx)

    def sum(self):
        return sum_(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _acc(t, g):
    """Add the contribution g to t.grad.

    A C-contiguous first contribution is kept as it is, without a copy,
    and may be shared (an upstream gradient, a view of one), so t does not
    own it; any other first contribution is copied to C order.  A later
    contribution is added in place only into a gradient t owns, otherwise
    into a new array that t then owns.  Every gradient therefore ends up C
    contiguous with the values of a copy followed by in-place adds, and
    reductions over it (the clip norm) see the same memory order."""
    buf = t.grad
    if buf is None:
        if isinstance(g, np.ndarray) and g.flags.c_contiguous:
            t.grad, t._owns_grad = g, False
        else:
            t.grad, t._owns_grad = np.array(g, order="C"), True
    elif t._owns_grad:
        buf += g
    else:
        t.grad, t._owns_grad = np.add(buf, g, out=np.empty_like(buf)), True


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data, parents, backward):
    req = GRAD_ENABLED and any(p.requires_grad for p in parents)
    return Tensor(data, req, parents if req else (), backward if req else None)


def _unary(out_data, a, local):
    """The node of a one-parent op: `a` receives `local(g)`."""
    if GRAD_ENABLED and a.requires_grad:
        return Tensor(out_data, True, (a,), (local,))
    return Tensor(out_data)


def _binary(out_data, a, b, local_a, local_b):
    """The node of an elementwise op of two broadcast operands."""
    if GRAD_ENABLED and (a.requires_grad or b.requires_grad):
        return Tensor(out_data, True, (a, b), (local_a, local_b))
    return Tensor(out_data)


def _same(g):
    return g


# -- elementwise ------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data + b.data, a, b, _same, _same)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a.data / b.data, a, b, lambda g: g / b.data,
                   lambda g: -g * a.data / (b.data ** 2))


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)
    return _unary(out_data, a, lambda g: g * out_data)


def log(a):
    a = as_tensor(a)
    return _unary(np.log(a.data), a, lambda g: g / a.data)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    return _unary(out_data, a, lambda g: g * (1.0 - out_data ** 2))


def logistic(x):
    """The values of `sigmoid` on an array: the stable 0.5 * (1 + tanh(x/2))."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a):
    a = as_tensor(a)
    out_data = logistic(a.data)
    return _unary(out_data, a, lambda g: g * out_data * (1.0 - out_data))


def relu(a):
    a = as_tensor(a)
    return _unary(np.maximum(a.data, 0.0), a, lambda g: g * (a.data > 0.0))


def softplus(a):
    a = as_tensor(a)
    return _unary(np.logaddexp(0.0, a.data), a, lambda g: g * logistic(a.data))


def abs_(a):
    a = as_tensor(a)
    # subgradient at 0 defined as 0
    return _unary(np.abs(a.data), a, lambda g: g * np.sign(a.data))


def square(a):
    a = as_tensor(a)
    return _unary(a.data ** 2, a, lambda g: g * 2.0 * a.data)


def clip(a, lo, hi):
    """Clamp values; gradient is zero outside [lo, hi]."""
    a = as_tensor(a)
    return _unary(np.clip(a.data, lo, hi), a,
                  lambda g: g * ((a.data >= lo) & (a.data <= hi)))


# -- linear algebra / shape --------------------------------------------------


def linear(x, w, b=None):
    """x @ w.T (+ b) as one node: x (n, i) or (i,), w (o, i), b (o,).

    The weight gradient g.T @ x (np.outer for a 1-D x) comes out C
    contiguous, so no transposed copy is made for it."""
    x, w = as_tensor(x), as_tensor(w)
    out_data = x.data @ w.data.T
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        out_data = out_data + b.data
        parents = (x, w, b)

    def backward(g):
        if x.requires_grad:
            _acc(x, g @ w.data)
        if w.requires_grad:
            _acc(w, g.T @ x.data if x.data.ndim == 2 else np.outer(g, x.data))
        if b is not None and b.requires_grad:
            _acc(b, g.sum(axis=0) if g.ndim == 2 else g)

    return _make(out_data, parents, backward)


def reshape(a, shape):
    a = as_tensor(a)
    return _unary(a.data.reshape(shape), a, lambda g: g.reshape(a.data.shape))


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _acc(t, piece)

    return _make(out_data, tuple(tensors), backward)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _acc(t, piece.reshape(t.data.shape))

    return _make(out_data, tuple(tensors), backward)


def gather(a, idx):
    """Numpy fancy indexing with scatter-add backward.

    The backward adds each gathered element's gradient into zeros in index
    order, `np.add.at`'s order, so a repeated row sums its gradients in
    the order it was gathered.  An integer array into a 2-D table is the
    row lookup of `_scatter_rows`; a 1-D integer array into a tensor of
    more dimensions (`agents.encode`'s rows) adds whole rows, one at a
    time, which gives the same bits at a fraction of np.add.at's cost."""
    a = as_tensor(a)

    def scatter(g):
        rows = isinstance(idx, np.ndarray) and idx.dtype.kind == "i"
        if rows and a.data.ndim == 2:
            return _scatter_rows(a.data.shape, idx, g)   # every Embedding
        buf = np.zeros(a.data.shape, dtype=a.data.dtype)
        if rows and idx.ndim == 1 and a.data.ndim > 2:
            for k, row in enumerate(idx.tolist()):
                buf[row] += g[k]
        elif all(isinstance(i, (int, np.integer, slice))
                 for i in (idx if isinstance(idx, tuple) else (idx,))):
            buf[idx] += g   # ints and slices repeat no element: np.add.at's sum
        else:
            np.add.at(buf, idx, g)
        return buf

    return _unary(a.data[idx], a, scatter)


def _scatter_rows(shape, idx, g):
    """The gradient of a (V, D) table from the gradient g (..., D) of its
    row lookup table[idx]: one flat np.add.at into zeros, which adds each
    element's contributions in the 2-D np.add.at order; a negative row
    wraps to the same flat elements."""
    buf = np.zeros(shape, dtype=g.dtype)
    d = shape[1]
    flat = ((idx * d)[..., None] + np.arange(d)).reshape(-1)
    np.add.at(buf.reshape(-1), flat, g.reshape(-1))
    return buf


def sum_(a, axis=None):
    a = as_tensor(a)
    return _unary(a.data.sum(axis=axis), a, lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis),
        a.data.shape).astype(a.data.dtype, copy=True))


def mean(a, axis=None):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis), 1.0 / n)


def log_softmax(a, axis=-1):
    """Numerically stable via a detached max shift (safe to +-1e4 logits)."""
    a = as_tensor(a)
    shift = a.data.max(axis=axis, keepdims=True)
    ex = np.exp(a.data - shift)
    out_data = (a.data - shift) - np.log(ex.sum(axis=axis, keepdims=True))
    return _unary(out_data, a,
                  lambda g: g - np.exp(out_data) * g.sum(axis=axis, keepdims=True))


def softmax(a, axis=-1):
    return exp(log_softmax(a, axis=axis))


# -- convolution -------------------------------------------------------------


@cache
def _im2col_index(c, h, w, kh, kw, stride, pad):
    """Read-only (ho*wo, c*kh*kw) flat index into one sample's (c*h*w + 1)
    row, whose last element is the zero every padded tap reads; `pad` is
    the (before, after) padding of both axes.  Built once per geometry."""
    before, after = pad
    ho = (h + before + after - kh) // stride + 1
    wo = (w + before + after - kw) // stride + 1
    # input row r and column q of every tap, on axes (ho, wo, c, kh, kw)
    r = (np.arange(ho) * stride - before)[:, None, None, None, None] + np.arange(kh)[:, None]
    q = (np.arange(wo) * stride - before)[:, None, None, None] + np.arange(kw)
    inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
    flat = np.where(inside, np.arange(c)[:, None, None] * (h * w) + r * w + q, c * h * w)
    index = flat.reshape(ho * wo, c * kh * kw).astype(np.intp)
    index.flags.writeable = False
    return index, ho, wo


def _im2col(x, kh, kw, stride, pad):
    """C-contiguous (n*ho*wo, c*kh*kw) columns: row (n, i, j) holds the
    window at output (i, j), taps in (c, kh, kw) order, padding as zeros."""
    n, c, h, w = x.shape
    if kh == kw == 1 and stride == 1 and pad == (0, 0):
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(n * h * w, c)), h, w
    return _window_columns((x,), kh, kw, stride, pad)


def _window_columns(blocks, kh, kw, stride, pad):
    """The columns of `_im2col` of the channel concatenation of `blocks`,
    each (N, c_i, H, W), which are copied once, into the rows they are
    read from."""
    n, _, h, w = blocks[0].shape
    c = sum(b.shape[1] for b in blocks)
    index, ho, wo = _im2col_index(c, h, w, kh, kw, stride, pad)
    rows = np.empty((n, c * h * w + 1), dtype=np.result_type(*blocks))
    np.concatenate(blocks, axis=1, out=rows[:, :-1].reshape(n, c, h, w))
    rows[:, -1] = 0
    # every index is in range, so clipping changes none; it skips the
    # bounds check and measured the fastest gather at every model geometry
    # at batches 1 and 16 (CHANGES.md)
    cols = np.take(rows, index, axis=1, mode="clip")
    return cols.reshape(n * ho * wo, c * kh * kw), ho, wo


def _col2im(cols, x_shape, kh, kw, stride, pad, ho, wo, channels):
    """Sum the (n*ho*wo, c*kh*kw) column gradients of the leading
    `channels` input channels back onto the input, (N, H, W, channels),
    kernel offsets in row-major order into zeros.  The sum runs in (N, H,
    W, C), where the channels are the inner run of both operands."""
    n, c, h, w = x_shape
    before, after = pad
    xp = np.zeros((n, h + before + after, w + before + after, channels), dtype=cols.dtype)
    cols6 = cols.reshape(n, ho, wo, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                cols6[:, :, :, :channels, i, j]
    return xp[:, before:before + h, before:before + w]


def _conv(cols, n, ho, wo, x, weight, bias, x_grad, taps=None):
    """The node of a convolution of x, whose columns are `cols`: the GEMM
    with the weight (folded by `taps`, see `_fold_kernel`) and the bias
    add, NCHW out.  Backward gives the weight and bias their gradients,
    then x what `x_grad` makes of the (n*ho*wo, c*kh*kw) column
    gradients."""
    cout = weight.data.shape[0]
    kernel = weight.data if taps is None else _fold_kernel(weight.data, taps)
    wmat = kernel.reshape(cout, -1)
    out = cols @ wmat.T  # (n*ho*wo, cout)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data
    out_data = out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)
        if weight.requires_grad:
            gk = (gmat.T @ cols).reshape(kernel.shape)
            # each tap receives the gradient of the folded tap it went into
            _acc(weight, gk if taps is None else gk[:, :, taps[:, None], taps])
        if bias is not None and bias.requires_grad:
            _acc(bias, gmat.sum(axis=0))
        if x.requires_grad:
            _acc(x, x_grad(gmat @ wmat))

    return _make(out_data, parents, backward)


def _pads(pad):
    """(before, after) padding of an int or a pair."""
    return (pad, pad) if isinstance(pad, (int, np.integer)) else tuple(pad)


def conv2d(x, weight, bias=None, stride=1, pad=0):
    """x: (N,C,H,W), weight: (Cout,Cin,kh,kw), bias: (Cout,); pad is an
    int or the (before, after) padding of both axes."""
    x, weight = as_tensor(x), as_tensor(weight)
    n, c = x.data.shape[:2]
    kh, kw = weight.data.shape[2:]
    pad = _pads(pad)
    cols, ho, wo = _im2col(x.data, kh, kw, stride, pad)
    return _conv(cols, n, ho, wo, x, weight, bias, lambda gcols: _col2im(
        gcols, x.data.shape, kh, kw, stride, pad, ho, wo, c).transpose(0, 3, 1, 2))


@cache
def _block_geometry(k, stride, pad, block, size):
    """(taps, stride, (before, after) padding) of a k-tap convolution with
    `stride` and `pad` over an axis of `size` * `block` pixels made of
    aligned runs of `block` equal pixels, run instead over the `size` run
    values (block divides stride).  Tap t of output i reads pixel stride*i
    - pad + t, which lies in run (stride/block)*i + floor((t - pad)/block),
    so `taps[t]` (read-only) is that run's offset within the folded
    window: taps that read one run are summed into one.  At block 1 it is
    the convolution itself, with no more trailing padding than an output
    reads."""
    before = -(-pad // block)
    taps = (np.arange(k) - pad) // block + before
    taps.flags.writeable = False
    step = stride // block
    ho = (size * block + 2 * pad - k) // stride + 1
    after = max(0, step * (ho - 1) - before + int(taps[-1]) + 1 - size)
    return taps, step, (before, after)


def _fold_kernel(weight, taps):
    """The (Cout, Cin, k', k') kernel whose tap (a, b) sums the weight's
    taps (t, u) with taps[t] == a and taps[u] == b: rows first, then
    columns, each starting from a copy of its first tap and adding the
    others in tap order (at block 1, a copy of the weight)."""
    taps = taps.tolist()
    first = [t for t in range(len(taps)) if t == 0 or taps[t] != taps[t - 1]]
    rest = [t for t in range(len(taps)) if t not in first]
    rows = weight[:, :, first]
    for t in rest:
        rows[:, :, taps[t]] += weight[:, :, t]
    kernel = rows[:, :, :, first]
    for t in rest:
        kernel[:, :, :, taps[t]] += rows[:, :, :, t]
    return kernel


def embed_conv2d(table, class_ids, planes, weight, bias, stride=1, pad=0, block=1):
    """conv2d over [table[class_ids] as NCHW channels; planes] as one node:
    table (V, E), class_ids (N, H, H) ints, planes (N, P, H, H), weight
    (Cout, E + P, k, k), bias (Cout,).

    The ids and planes may hold one pixel per aligned block x block square
    of an input that is constant on each square (`block` divides
    `stride`), as an observation painted in such squares is
    (`world.render` records the size): the output is conv2d's over that
    input, (N, Cout, ho, ho) for its H * block pixels.  A stride-2 kernel
    then reads one value through several taps; with block 2, taps 1 and 2
    of a 3x3 / stride-2 / pad-1 kernel read the same square.  The node
    runs over the H x H values with the kernel folded (`_block_geometry`,
    `_fold_kernel`), at block 2 to 2x2 / stride 1 / padding 1 before and
    0 after: tap 0 stays, taps 1 and 2 are summed, rows first, then
    columns.  That is the same function with 52 column entries per output
    in place of 117; the tap sums of the weights in place of sums of the
    products move the output and the table's gradient in their low bits.
    The weight keeps its shape and receives each folded tap's gradient at
    every tap folded into it.  At block 1 it is conv2d's computation.

    It builds the columns conv2d builds from that concatenation and keeps
    them, not the embedded or concatenated input.  The table receives only
    the gradient of the E embedding channels, scattered as `gather`
    scatters a row lookup's; the planes are a constant.  The column
    gradients still come from conv2d's GEMM over every channel: a GEMM
    over the E channels' weight columns alone, or over the columns
    reordered, need not give the same bits."""
    table, weight = as_tensor(table), as_tensor(weight)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    planes = np.asarray(planes, dtype=table.data.dtype)
    n, h, w = class_ids.shape
    kh, kw = weight.data.shape[2:]
    if h != w or kh != kw or stride % block:
        raise ValueError(f"embed_conv2d takes square maps and kernels and a block that "
                         f"divides the stride: {h}x{w} maps, {kh}x{kw} kernel, "
                         f"block {block}, stride {stride}")
    taps, step, pads = _block_geometry(kh, stride, pad, block, h)
    k = int(taps[-1]) + 1
    emb = table.data[class_ids].transpose(0, 3, 1, 2)
    cols, ho, wo = _window_columns((emb, planes), k, k, step, pads)
    e = emb.shape[1]
    shape = (n, e + planes.shape[1], h, w)
    return _conv(cols, n, ho, wo, table, weight, bias, lambda gcols: _scatter_rows(
        table.data.shape, class_ids, _col2im(gcols, shape, k, k, step, pads, ho, wo, e)), taps)
