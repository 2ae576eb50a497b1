"""Losses vs naive references and hand-evaluated scalars; GRU convention;
checkpoint round trips."""

from __future__ import annotations

import math

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
                                 [1.0 / max(tgt.num_centers, 1)])


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
    assert tgt.num_centers == 2


def test_kernel_sigma_rule():
    assert nn.kernel_sigma(0.3) == 1.0          # floored at 1
    assert abs(nn.kernel_sigma(9.0) - 3.0) < 1e-12


# --------------------------------------------------------------------------
# focal loss


def test_focal_hand_scalars():
    # Y=1, pred=0.5: -(0.5)^2 ln 0.5 = 0.173287
    heat = np.ones((1, 1, 1))
    tgt = nn.HeatmapTarget(heat=heat, num_centers=1)
    loss = focal_one(np.array([[[0.5]]]), tgt)
    assert abs(loss.item() - 0.173287) < 1e-6

    # Y=0, pred=0.9: -(0.9)^2 ln 0.1 = 1.865094
    tgt0 = nn.HeatmapTarget(heat=np.zeros((1, 1, 1)), num_centers=1)
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
        want = focal_loss_reference(pred, tgt.heat, tgt.num_centers)
        assert abs(got - want) < 1e-9


def test_focal_shape_mismatch():
    tgt = nn.HeatmapTarget(heat=np.zeros((1, 2, 2)), num_centers=1)
    with pytest.raises(nn.ShapeMismatch):
        focal_one(np.zeros((1, 3, 3)), tgt)


# --------------------------------------------------------------------------
# offset L1


def test_offset_l1_hand_values():
    assert nn.offset_l1_loss(T.Tensor(np.array([[0.3, -0.2]])), np.array([[0.3, -0.2]])).item() == 0.0
    got = nn.offset_l1_loss(T.Tensor(np.array([[0.5, -0.5]])), np.array([[0.0, 0.0]])).item()
    assert abs(got - 1.0) < 1e-12


def test_offset_l1_gradient_sign():
    pred = T.Tensor(np.array([[0.5, -0.5], [0.0, 2.0]]), requires_grad=True)
    tgt = np.array([[0.0, 0.0], [0.0, 0.0]])
    nn.offset_l1_loss(pred, tgt).backward()
    np.testing.assert_allclose(pred.grad, np.array([[0.5, -0.5], [0.0, 0.5]]))


def test_offset_l1_count_mismatch():
    with pytest.raises(nn.CountMismatch):
        nn.offset_l1_loss(T.Tensor(np.zeros((2, 2))), np.zeros((3, 2)))


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


@pytest.mark.usefixtures("float64")
def test_cross_entropy_uniform_is_ln_k():
    assert abs(nn.cross_entropy(T.Tensor(np.zeros(10)), 3).item() - math.log(10)) < 1e-12
    assert abs(math.log(10) - 2.302585) < 1e-6


def test_cross_entropy_confident_limit():
    logits = np.zeros(5)
    logits[2] = 1e4
    assert nn.cross_entropy(T.Tensor(logits), 2).item() < 1e-9


@pytest.mark.usefixtures("float64")
def test_cross_entropy_matches_logsumexp_oracle():
    for _ in range(20):
        v = RNG.normal(size=(5,)) * 3
        k = int(RNG.integers(0, 5))
        shift = v.max()
        want = -(v[k] - shift - math.log(np.exp(v - shift).sum()))
        assert abs(nn.cross_entropy(T.Tensor(v), k).item() - want) < 1e-12


def test_cross_entropy_range_error():
    with pytest.raises(nn.IndexOutOfRange):
        nn.cross_entropy(T.Tensor(np.zeros(4)), 4)


@pytest.mark.usefixtures("float64")
def test_cross_entropy_rows_matches_singles():
    logits = RNG.normal(size=(6, 5))
    targets = RNG.integers(0, 5, size=6)
    got = nn.cross_entropy_rows(T.Tensor(logits), targets).item()
    want = sum(nn.cross_entropy(T.Tensor(logits[i]), targets[i]).item() for i in range(6))
    assert abs(got - want) < 1e-10


# --------------------------------------------------------------------------
# GRU


def test_gru_zero_params_halves_hidden():
    rng = np.random.default_rng(0)
    cell = nn.GRUCell(rng, 3, 4)
    for p in cell.parameters():
        p.data = np.zeros_like(p.data)
    h = np.array([0.4, -1.0, 2.0, 0.0])
    out = nn.gru_step(cell, np.ones(3), T.Tensor(h))
    np.testing.assert_allclose(out.data, 0.5 * h, atol=1e-15)


def test_gru_two_step_unroll_is_composition():
    rng = np.random.default_rng(5)
    cell = nn.GRUCell(rng, 3, 4)
    x1, x2 = RNG.normal(size=3), RNG.normal(size=3)
    h0 = RNG.normal(size=4)
    h1 = nn.gru_step(cell, x1, T.Tensor(h0))
    h2 = nn.gru_step(cell, x2, h1)
    h1b = nn.gru_step(cell, x1, T.Tensor(h0))
    h2b = nn.gru_step(cell, x2, T.Tensor(h1b.data))
    np.testing.assert_allclose(h2.data, h2b.data, atol=1e-15)


def test_gru_shape_mismatch():
    cell = nn.GRUCell(np.random.default_rng(1), 3, 4)
    with pytest.raises(nn.ShapeMismatch):
        nn.gru_step(cell, np.ones(5), np.ones(4))


@pytest.mark.usefixtures("float64")
def test_gru_batched_matches_rowwise():
    cell = nn.GRUCell(np.random.default_rng(2), 3, 4)
    x = RNG.normal(size=(5, 3))
    h = RNG.normal(size=(5, 4))
    batched = nn.gru_step(cell, x, h).data
    for i in range(5):
        row = nn.gru_step(cell, x[i], h[i]).data
        np.testing.assert_allclose(batched[i], row, atol=1e-12)


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
    x = RNG.normal(size=3)
    h = RNG.normal(size=4)

    def fn(wz, bz, wr, br, wh, bh):
        c = nn.GRUCell.__new__(nn.GRUCell)
        nn.Module.__init__(c)
        c.in_dim, c.hidden_dim = 3, 4
        c.w_z, c.b_z, c.w_r, c.b_r, c.w_h, c.b_h = wz, bz, wr, br, wh, bh
        return T.square(nn.gru_step(c, x, h)).sum()

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
    a = T.Tensor(np.ones(2), requires_grad=True)
    b = T.Tensor(np.ones(2), requires_grad=True)
    opt = nn.Adam([a, b], lr=0.1)
    opt.freeze([a])
    opt.zero_grad()
    (T.square(a).sum() + T.square(b).sum()).backward()
    opt.step()
    np.testing.assert_allclose(a.data, np.ones(2))
    assert not np.allclose(b.data, np.ones(2))


def _reference_adam_step(opt, params, grads, m, v, t):
    """The out-of-place update Adam.step made before it worked in place,
    on copies: returns the new (params, m, v) for the non-frozen
    parameters that have a gradient, the others as given."""
    live = [i for i, g in enumerate(grads) if g is not None and i not in opt.frozen]
    grads = list(grads)
    if opt.clip_norm:
        total = float(np.sqrt(sum(float((grads[i] * grads[i]).sum()) for i in live)))
        if total > opt.clip_norm:
            scale = opt.clip_norm / (total + 1e-12)
            for i in live:
                grads[i] = grads[i] * scale
    bc1 = 1.0 - opt.b1 ** t
    bc2 = 1.0 - opt.b2 ** t
    params, m, v = list(params), list(m), list(v)
    for i in live:
        g = grads[i]
        m[i] = opt.b1 * m[i] + (1.0 - opt.b1) * g
        v[i] = opt.b2 * v[i] + (1.0 - opt.b2) * (g * g)
        params[i] = params[i] - opt.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + opt.eps)
    return params, m, v


@pytest.mark.parametrize("clip_norm", [0.5, 0.0])
def test_adam_in_place_blocks_match_the_out_of_place_formula(clip_norm):
    # a parameter over two blocks long, a small one, a frozen one and one
    # that never gets a gradient (its moments stay zero), in float32
    rng = np.random.default_rng(8)
    shapes = [(3, nn.ADAM_BLOCK - 5), (7,), (4, 2), (5,)]
    params = [T.Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for s in shapes]
    opt = nn.Adam(params, lr=0.01, clip_norm=clip_norm)
    opt.freeze([params[2]])
    arrays = [p.data for p in params]
    ref_p = [a.copy() for a in arrays]
    ref_m = [m.copy() for m in opt.m]
    ref_v = [v.copy() for v in opt.v]
    for step in range(1, 6):
        grads = [rng.normal(size=s).astype(np.float32) * 3.0 for s in shapes[:3]] + [None]
        for p, g in zip(params, grads):
            p.grad = g
        ref_p, ref_m, ref_v = _reference_adam_step(opt, ref_p, grads, ref_m, ref_v, step)
        opt.step()
        for i, p in enumerate(params):
            assert p.data is arrays[i]          # updated in place
            assert p.data.dtype == opt.m[i].dtype == opt.v[i].dtype == np.float32
            np.testing.assert_array_equal(p.data, ref_p[i])
            np.testing.assert_array_equal(opt.m[i], ref_m[i])
            np.testing.assert_array_equal(opt.v[i], ref_v[i])
    assert not opt.m[3].any() and not opt.v[3].any()
    assert not opt.m[2].any()


def _checkpoint_dtypes(path):
    """{section: {array name: dtype}} from a checkpoint's json manifest."""
    import json

    with open(path, "rb") as f:
        f.read(len(nn.CHECKPOINT_MAGIC))
        head = f.read(int.from_bytes(f.read(8), "little"))
    return {sec: {name: meta["dtype"] for name, meta in arrays.items()}
            for sec, arrays in json.loads(head).items()}


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
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
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
