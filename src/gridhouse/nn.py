"""Layers, losses, optimizer, finite-difference checks, checkpoints.

Everything here is built on the Tensor autodiff core.  Parameter
registration is ordered (insertion order) so checkpoints are stable and
bit-reproducible.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

PROB_EPS = 1e-7       # probabilities clamped to [PROB_EPS, 1 - PROB_EPS]
VAR_FLOOR = 1e-4      # variance floor applied via softplus parameterization
FOCAL_ALPHA = 2.0     # focal loss exponents (CenterNet)
FOCAL_BETA = 4.0
SIGMA_MIN = 1.0       # heatmap kernel width: max(SIGMA_MIN, radius / SIGMA_RADIUS_DIV)
SIGMA_RADIUS_DIV = 3.0
FD_STEP = 1e-5        # central-difference step of grad_check
FD_REL_FLOOR = 1e-3   # grad_check's relative-error denominator floor
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class ShapeMismatch(ValueError):
    pass


class CheckpointMismatch(ValueError):
    pass


class NotFloat64(TypeError):
    pass


class IndexOutOfRange(IndexError):
    pass


class NonPositiveVariance(ValueError):
    pass


# --------------------------------------------------------------------------
# modules


class Module:
    """Tiny parameter container: ordered name -> Tensor registry."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, Module] = {}

    def register(self, name, value):
        arr = np.asarray(value, dtype=T.DEFAULT_DTYPE)
        p = Tensor(arr, requires_grad=True)
        self._params[name] = p
        return p

    def add_child(self, name, module):
        self._children[name] = module
        return module

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_arrays(self):
        """{name: parameter array}, the live arrays themselves: Adam.step
        updates them in place, so copy any that must outlive a step (the
        CLI writes them to a checkpoint at once)."""
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays):
        """Load every parameter by name, cast to T.DEFAULT_DTYPE (a float64
        checkpoint loads rounded to float32).  The names must match
        exactly: a mismatch raises CheckpointMismatch listing the unknown
        and the missing names, and a shape mismatch raises ShapeMismatch.
        Either is raised before any parameter is loaded."""
        own = dict(self.named_parameters())
        unknown = sorted(set(arrays) - set(own))
        missing = sorted(set(own) - set(arrays))
        if unknown or missing:
            raise CheckpointMismatch(f"unknown parameters {unknown}, missing parameters {missing}")
        for name, arr in arrays.items():
            if own[name].data.shape != arr.shape:
                raise ShapeMismatch(f"{name}: {own[name].data.shape} vs {arr.shape}")
        for name, arr in arrays.items():
            own[name].data = arr.astype(T.DEFAULT_DTYPE, copy=True)


def _glorot(rng, shape, fan_in, fan_out):
    """Uniform(-s, s) draws in float32, s = sqrt(6 / (fan_in + fan_out))."""
    scale = np.float32(np.sqrt(6.0 / (fan_in + fan_out)))
    w = rng.random(shape, dtype=np.float32)
    w *= 2 * scale
    w -= scale
    return w


class Linear(Module):
    def __init__(self, rng, in_dim, out_dim):
        super().__init__()
        self.w = self.register("w", _glorot(rng, (out_dim, in_dim), in_dim, out_dim))
        self.b = self.register("b", np.zeros(out_dim))

    def __call__(self, x):
        return T.linear(x, self.w, self.b)


class Embedding(Module):
    def __init__(self, rng, num, dim):
        super().__init__()
        table = rng.standard_normal((num, dim), dtype=np.float32)
        table *= np.float32(0.1)
        self.table = self.register("table", table)

    def __call__(self, idx):
        return self.table[np.asarray(idx, dtype=np.int64)]


class Conv2d(Module):
    def __init__(self, rng, cin, cout, k=3, stride=1, pad=0):
        super().__init__()
        fan_in = cin * k * k
        self.w = self.register("w", _glorot(rng, (cout, cin, k, k), fan_in, cout))
        self.b = self.register("b", np.zeros(cout))
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return T.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad)


class GRUCell(Module):
    """Single-layer GRU cell, run by `gru_sequence` (and, a step at a time
    in rollouts, by `gru_recurrence`).

    Convention (fixed):
        z = sigmoid(W_z [x, h] + b_z)
        r = sigmoid(W_r [x, h] + b_r)
        hcand = tanh(W_h [x, r*h] + b_h)
        h' = (1 - z) * h + z * hcand

    Each gate's pre-activation is summed as (x @ W_x.T + b) + h @ W_h.T:
    its input block (the first in_dim columns) and bias first, over all
    steps at once, then its recurrent block.
    """

    def __init__(self, rng, in_dim, hidden_dim):
        super().__init__()
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        cat = in_dim + hidden_dim
        self.w_z = self.register("w_z", _glorot(rng, (hidden_dim, cat), cat, hidden_dim))
        self.b_z = self.register("b_z", np.zeros(hidden_dim))
        self.w_r = self.register("w_r", _glorot(rng, (hidden_dim, cat), cat, hidden_dim))
        self.b_r = self.register("b_r", np.zeros(hidden_dim))
        self.w_h = self.register("w_h", _glorot(rng, (hidden_dim, cat), cat, hidden_dim))
        self.b_h = self.register("b_h", np.zeros(hidden_dim))

    def blocks(self, start, stop=None):
        """Columns [start:stop] of w_z, w_r and w_h, as views: no copy."""
        return tuple(w.data[:, start:stop] for w in (self.w_z, self.w_r, self.w_h))


def gru_recurrence(xz, xr, xc, h, rec):
    """One step of the GRU recurrence from its input terms, biases
    included: (h', z, r, r * h, cand) as arrays.  `rec` holds the
    recurrent blocks of w_z, w_r and w_h (`cell.blocks(cell.in_dim)`)."""
    uz, ur, uh = rec
    z = T.logistic(xz + h @ uz.T)
    r = T.logistic(xr + h @ ur.T)
    rh = r * h
    cand = np.tanh(xc + rh @ uh.T)
    return (1.0 - z) * h + z * cand, z, r, rh, cand


def gru_sequence(cell, xs, h0):
    """Unroll over a (N, I) step sequence, N >= 1, from one initial hidden
    (D,), as one graph node whose backward runs backpropagation through
    time.  Returns the (N, D) hidden states after each step.

    The input projections of all steps run as one matmul per gate; only
    the (D x D) recurrent part runs stepwise, in `gru_recurrence`.  The
    backward runs the steps latest first for the pre-activation gradients
    and h's, then sums over the steps by matmul, in BLAS order: one per
    gate for its input block, its recurrent block (against the hidden
    states before each step, or r * h for the candidate) and xs.

    Rollouts run `gru_recurrence` a step at a time
    (`agents.HighLevelPolicy.rollout_step`).  A rollout reuses each gate's
    image-block product per equal observation and its context-block
    product per last action and previous sub-goal, which is exact because
    parameters and the task encoding are fixed within an episode, and adds
    the two and the bias; so its gate sums differ from this unroll's in
    their low bits.
    """
    xs, h0 = T.as_tensor(xs), T.as_tensor(h0)
    i, n = cell.in_dim, xs.shape[0]
    if xs.data.ndim != 2 or xs.shape[1] != i or h0.shape != (cell.hidden_dim,) or n == 0:
        raise ShapeMismatch(f"gru_sequence got xs{xs.shape}, h0{h0.shape} for "
                            f"I={i}, D={cell.hidden_dim}, N >= 1")
    (wxz, wxr, wxh), rec = cell.blocks(0, i), cell.blocks(i)
    whz, whr, whh = rec
    xz = xs.data @ wxz.T + cell.b_z.data
    xr = xs.data @ wxr.T + cell.b_r.data
    xc = xs.data @ wxh.T + cell.b_h.data
    hs, zs, rs, rhs, cands = [h0.data], [], [], [], []
    for t in range(n):
        h, z, r, rh, cand = gru_recurrence(xz[t], xr[t], xc[t], hs[-1], rec)
        hs.append(h)
        zs.append(z)
        rs.append(r)
        rhs.append(rh)
        cands.append(cand)

    def backward(g):
        # pre-activation gradients of z, r and the candidate, a row per step
        gz, gr, gc = (np.empty(xz.shape, xz.dtype) for _ in range(3))
        carry = 0.0       # step t+1's gradient of h_t
        for t in reversed(range(n)):
            gt = g[t] + carry
            h, z, r, cand = hs[t], zs[t], rs[t], cands[t]
            gc[t] = gac = gt * z * (1.0 - cand ** 2)
            grh = gac @ whh
            gr[t] = gar = grh * h * r * (1.0 - r)
            gz[t] = gaz = (gt * cand - gt * h) * z * (1.0 - z)
            carry = gt * (1.0 - z) + grh * r + gaz @ whz + gar @ whr
        if h0.requires_grad:
            T._acc(h0, carry)
        if xs.requires_grad:
            T._acc(xs, gz @ wxz + gr @ wxr + gc @ wxh)
        before = np.stack(hs[:-1])
        for w, b, rows, ins in ((cell.w_z, cell.b_z, gz, before),
                                (cell.w_r, cell.b_r, gr, before),
                                (cell.w_h, cell.b_h, gc, np.stack(rhs))):
            if w.requires_grad:
                T._acc(w, np.hstack((rows.T @ xs.data, rows.T @ ins)))
            if b.requires_grad:
                T._acc(b, rows.sum(axis=0))

    parents = (xs, h0, cell.w_z, cell.b_z, cell.w_r, cell.b_r, cell.w_h, cell.b_h)
    return T._make(np.stack(hs[1:], axis=0), parents, backward)


# --------------------------------------------------------------------------
# heatmap targets and losses


@dataclass
class HeatmapTarget:
    """Gaussian-smoothed center map plus per-center offset targets.

    heat: (C', H', W') with value 1.0 exactly at each center cell;
    overlapping kernels combine by elementwise max.
    """

    heat: np.ndarray
    centers: list = field(default_factory=list)  # (class_idx, cell_xy, offset_xy)


def kernel_sigma(footprint_radius):
    return max(SIGMA_MIN, footprint_radius / SIGMA_RADIUS_DIV)


def gaussian_kernel_targets(centers, grid_shape):
    """Build a HeatmapTarget.

    centers: iterable of (class_idx, (cx, cy), footprint_radius) where
    (cx, cy) are continuous coordinates in heatmap-grid units.  The peak
    cell is floor(cx), floor(cy); the offset target is the residual from
    that cell's center, in grid units.
    """
    nc, gh, gw = grid_shape
    heat = np.zeros((nc, gh, gw), dtype=T.DEFAULT_DTYPE)
    ys, xs = np.mgrid[0:gh, 0:gw]
    recorded = []
    for cls, (cx, cy), radius in centers:
        ix = min(int(np.floor(cx)), gw - 1)
        iy = min(int(np.floor(cy)), gh - 1)
        sigma = kernel_sigma(radius)
        kern = np.exp(-(((xs - ix) ** 2 + (ys - iy) ** 2) / (2.0 * sigma ** 2)))
        np.maximum(heat[cls], kern, out=heat[cls])
        recorded.append((cls, (ix, iy), (cx - (ix + 0.5), cy - (iy + 0.5))))
    return HeatmapTarget(heat=heat, centers=recorded)


def focal_loss_batched(pred, heat, inv_m):
    """Penalty-reduced pixelwise focal loss over center heatmaps
    (CenterNet, FOCAL_ALPHA = 2 and FOCAL_BETA = 4).

    pred/heat (N, C, H, W), pred holding probabilities (clamped to (0, 1)
    internally); inv_m (N,) holding each sample's 1/max(M,1) for its M
    centers.  Sum over samples of the per-sample loss."""
    pred = T.as_tensor(pred)
    if pred.shape != heat.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {heat.shape}")
    pos = (heat >= 1.0).astype(T.DEFAULT_DTYPE)
    neg = 1.0 - pos
    p = T.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    # (1-p)^alpha and p^alpha via exp(alpha*log(.)): p is clamped away from {0,1}
    pow_1mp = T.exp(T.mul(T.log(1.0 - p), FOCAL_ALPHA))
    pow_p = T.exp(T.mul(T.log(p), FOCAL_ALPHA))
    pos_term = T.mul(T.mul(pow_1mp, T.log(p)), pos)
    neg_term = T.mul((1.0 - heat ** FOCAL_BETA), T.mul(T.mul(pow_p, T.log(1.0 - p)), neg))
    per_sample = T.sum_(pos_term + neg_term, axis=(1, 2, 3))
    w = np.asarray(inv_m, dtype=T.DEFAULT_DTYPE)
    return T.mul(T.sum_(T.mul(per_sample, w)), -1.0)


def gaussian_log_terms(delta, mu, var):
    """Elementwise log density of `delta` under Normal(mu, var); callers
    sum the terms over the axes they need."""
    delta, mu, var = T.as_tensor(delta), T.as_tensor(mu), T.as_tensor(var)
    return -0.5 * np.log(2.0 * np.pi) - T.mul(T.log(var), 0.5) \
        - T.div(T.square(delta - mu), T.mul(var, 2.0))


def gaussian_log_likelihood(delta, mu, var):
    """Log density of `delta` under a diagonal 2-D Normal(mu, var).

    All arguments (..., 2); returns the summed log density (scalar for a
    single point, batch-summed otherwise divided by caller).
    """
    var = T.as_tensor(var)
    if np.any(var.data <= 0):
        raise NonPositiveVariance("variance must be positive")
    return T.sum_(gaussian_log_terms(delta, mu, var))


def cross_entropy_rows(logits, targets):
    """Batched CE: logits (N, K), targets (N,).

    Returns the SUM over rows (caller divides by its own N).
    """
    logits = T.as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:1]:
        raise ShapeMismatch(f"targets {targets.shape} for logits {logits.shape}")
    return T.mul(T.sum_(log_prob_rows(logits, targets)), -1.0)


def log_prob_rows(logits, targets):
    """Per-row log softmax picked at targets: (N,) tensor."""
    logits = T.as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n, k = logits.shape
    if np.any((targets < 0) | (targets >= k)):
        raise IndexOutOfRange("target index out of range")
    return T.gather(T.log_softmax(logits, axis=-1), (np.arange(n), targets))


def entropy_rows(logits):
    """Sum over rows of the categorical entropy."""
    logits = T.as_tensor(logits)
    logp = T.log_softmax(logits, axis=-1)
    return T.mul(T.sum_(T.mul(T.exp(logp), logp)), -1.0)


# --------------------------------------------------------------------------
# finite differences


def grad_check(fn, inputs, sample=None):
    """Compare reverse-mode grads of scalar fn(*inputs) to central
    differences at step FD_STEP.

    Returns the max guarded relative error |ad - fd| / max(|ad| + |fd|,
    FD_REL_FLOOR) over every input element, or, with `sample=(rng, n)`, over
    n elements that rng draws without replacement.  Inputs are perturbed
    in place, so fn may ignore its arguments and read the same arrays
    elsewhere (a module's live parameters).

    Central differences at FD_STEP = 1e-5 need float64: run the check inside
    `T.precision(np.float64)`.  Raises NotFloat64 when an input or the
    value of fn is not float64 (in float32 the errors read up to 1.0).
    """
    inputs = [T.as_tensor(x) for x in inputs]
    for x in inputs:
        x.requires_grad = True
        x.grad = None
    out = fn(*inputs)
    wrong = sorted({str(t.data.dtype) for t in inputs + [out]} - {"float64"})
    if wrong:
        raise NotFloat64(f"grad_check needs float64 inputs and value, got {wrong}; "
                         "run it inside T.precision(np.float64)")
    out.backward()
    grads = [np.zeros(x.data.size) if x.grad is None else x.grad.reshape(-1)
             for x in inputs]
    bounds = np.cumsum([x.data.size for x in inputs])
    total = int(bounds[-1])
    if sample is None:
        picks = range(total)
    else:
        rng, n = sample
        picks = rng.choice(total, size=min(n, total), replace=False)
    h = FD_STEP
    worst = 0.0
    with T.no_grad():
        for flat_idx in picks:
            which = int(np.searchsorted(bounds, flat_idx, side="right"))
            local = int(flat_idx - (bounds[which - 1] if which else 0))
            flat = inputs[which].data.reshape(-1)
            orig = flat[local]
            flat[local] = orig + h
            hi = fn(*inputs).item()
            flat[local] = orig - h
            lo = fn(*inputs).item()
            flat[local] = orig
            fd = (hi - lo) / (2.0 * h)
            ad = grads[which][local]
            worst = max(worst, float(abs(ad - fd) / max(abs(ad) + abs(fd), FD_REL_FLOOR)))
    return worst


# --------------------------------------------------------------------------
# optimizer


# Elements per block of Adam.step.  A block's gradient, moments, weights
# and three scratch arrays take 7 x 256 KB in float32, inside a 2 MiB L2.
# Chosen by an interleaved A/B of one clipped step over the 1,160,634
# sub-policy parameters of the default agent (2-vCPU Xeon, 2 MiB L2 per
# core, p50 of two 150-round runs): 4,096 8.9 / 9.4 ms, 16,384 6.4 / 6.8,
# 32,768 6.1 / 6.3, 65,536 5.9 / 6.2, 131,072 6.5 / 6.9, 262,144 7.2 / 7.2.
# The update is elementwise, so every size gives the same bits.
ADAM_BLOCK = 1 << 16


class Adam:
    """Adaptive-moment optimizer with global grad-norm clipping.

    Moments and parameters are updated in place (`p.data` keeps its
    array), block by block, with each element's float32 operations in the
    order of the plain formula: m = b1 m + (1 - b1) g, v = b2 v +
    (1 - b2) g g, p -= lr (m / bc1) / (sqrt(v / bc2) + eps), with
    (b1, b2) = ADAM_BETAS and eps = ADAM_EPS.

    `m[i]` and `v[i]` are None until the first step in which parameter i
    has a gradient, which allocates them as zeros; a parameter never
    updated (the high level during pre-training) holds none.  Moments
    allocated up front would have stayed zeros until then, so the update
    is the same bits."""

    def __init__(self, params, lr=3e-4, clip_norm=0.5):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self.m = [None] * len(self.params)
        self.v = [None] * len(self.params)

    def step(self):
        """Update parameters that received gradients; moment buffers of
        untouched parameters are left alone."""
        live = [(i, p, p.grad) for i, p in enumerate(self.params) if p.grad is not None]
        if not live:
            return
        scale = None
        if self.clip_norm:
            # a Python float: an np.float64 scale would upcast every float32
            # gradient, moment and parameter it touches
            total = float(np.sqrt(sum(float((g * g).sum()) for _, _, g in live)))
            if total > self.clip_norm:
                scale = self.clip_norm / (total + 1e-12)
        self.t += 1
        (b1, b2), lr, eps = ADAM_BETAS, self.lr, ADAM_EPS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for i, p, g in live:
            if not p.data.flags.c_contiguous:
                p.data = np.ascontiguousarray(p.data)
            if self.m[i] is None:
                self.m[i] = np.zeros(p.data.shape, p.data.dtype)
                self.v[i] = np.zeros(p.data.shape, p.data.dtype)
            w, m, v = p.data.reshape(-1), self.m[i].reshape(-1), self.v[i].reshape(-1)
            g = g.reshape(-1)
            gs, a, d = (np.empty(min(w.size, ADAM_BLOCK), w.dtype) for _ in range(3))
            for lo in range(0, w.size, ADAM_BLOCK):
                blk = slice(lo, lo + ADAM_BLOCK)
                gb, mb, vb, wb = g[blk], m[blk], v[blk], w[blk]
                k = gb.size
                ab, db = a[:k], d[:k]
                if scale is not None:
                    gb = np.multiply(gb, scale, out=gs[:k])
                mb *= b1
                mb += np.multiply(gb, 1.0 - b1, out=ab)
                vb *= b2
                np.multiply(gb, gb, out=ab)
                ab *= 1.0 - b2
                vb += ab
                np.divide(mb, bc1, out=ab)
                ab *= lr
                np.divide(vb, bc2, out=db)
                np.sqrt(db, out=db)
                db += eps
                ab /= db
                wb -= ab

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_arrays(self):
        """{"_t": step count, "m<i>"/"v<i>": moments} for every parameter i,
        the live moment arrays themselves; a parameter never updated gets
        new zeros of its shape and dtype."""
        out = {"_t": np.array([self.t], dtype=np.int64)}
        for i, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
            if m is None:
                m, v = (np.zeros(p.data.shape, p.data.dtype) for _ in range(2))
            out[f"m{i}"] = m
            out[f"v{i}"] = v
        return out


# --------------------------------------------------------------------------
# checkpoints: one numpy archive, an array per "<section>/<name>"


def save_checkpoint(path, sections):
    """sections: {section_name: {array_name: np.ndarray}}."""
    with open(path, "wb") as f:   # an open file: savez appends no ".npz"
        np.savez(f, **{f"{sec}/{name}": arr for sec, arrays in sections.items()
                       for name, arr in arrays.items()})


def load_checkpoint(path):
    """The {section: {name: array}} a `save_checkpoint` wrote, in the dtypes
    it wrote; any other file raises ValueError."""
    try:
        archive = np.load(path, allow_pickle=False)
        if isinstance(archive, np.lib.npyio.NpzFile):
            with archive:
                sections = {}
                for key in archive.files:
                    sec, name = key.split("/", 1)
                    sections.setdefault(sec, {})[name] = archive[key]
                return sections
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"not a checkpoint file: {path} ({e})") from None
    raise ValueError(f"not a checkpoint file: {path} (a bare array)")
