"""Autoencoder bundle, batch-norm behavior, optimizer, checkpoint round-trips."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from damage import flip_a_data_byte, set_first_value
from oracles import (
    finite_difference_gradients,
    max_relative_gradient_error,
    op_by_op_batchnorm_relu,
    op_by_op_linear,
    whole_array_adam,
)
from umclust.errors import CheckpointError, NumericalError, ShapeError
from umclust.losses import recon_orth_loss
from umclust.nn import Adam, Tensor, build_bundle, load_checkpoint, mlp, save_checkpoint
from umclust.nn.adam import CHUNK
from umclust.nn.checkpoint import FORMAT_VERSION
from umclust.nn.mlp import BatchNorm, Linear, relu
from umclust.nn.tensor import closed_form


def tiny_bundle(batchnorm=True, seed=0, dims=(3, 4), hidden=(5,), latent=2):
    return build_bundle(list(dims), latent, hidden, batchnorm, seed)


def weighted_sum(out: Tensor, weights) -> Tensor:
    """sum(out * weights) as one node: its gradient in `out` is `weights`."""
    weights = np.broadcast_to(np.asarray(weights, out.data.dtype), out.shape)
    return closed_form(float((out.data * weights).sum()), (out, weights))


def squared_error(x: np.ndarray, x_hat: Tensor, z: Tensor) -> Tensor:
    """||x_hat - x||^2 + ||z||^2 as one node."""
    diff = x_hat.data - x
    return closed_form(float((diff * diff).sum() + (z.data * z.data).sum()), (x_hat, 2.0 * diff), (z, 2.0 * z.data))


def test_decoder_layers_mirror_the_encoder():
    bundle = tiny_bundle(dims=(7, 4), hidden=(5, 3), latent=2)
    assert bundle.input_dims == [7, 4] and bundle.latent_dim == 2
    for v, d in enumerate((7, 4)):
        enc = [lin.weight.shape for lin in bundle.encoders[v].linears]
        dec = [lin.weight.shape for lin in bundle.decoders[v].linears]
        assert enc == [(d, 5), (5, 3), (3, 2)]
        assert dec == [w[::-1] for w in reversed(enc)]
        assert [n is None for n in bundle.decoders[v].norms] == [False, False, True]


def test_build_bundle_rejects_a_zero_dim():
    for dims, hidden, latent in [((3, 0), (5,), 2), ((3,), (5, 0), 2), ((3,), (5,), 0)]:
        with pytest.raises(ShapeError, match="dims must be >= 1"):
            tiny_bundle(dims=dims, hidden=hidden, latent=latent)


def test_zero_weight_network_gives_zero_latent():
    bundle = tiny_bundle(batchnorm=False)
    for p in bundle.named_parameters().values():
        p.data[...] = 0.0
    x = np.random.default_rng(0).normal(size=(6, 3))
    z = bundle.encode(0, x, train=False)
    assert np.allclose(z.data, 0.0)
    xhat = bundle.decode(0, z, train=False)
    assert np.allclose(xhat.data, 0.0)


def test_single_layer_relu_hand_case():
    # one hidden layer, no batchnorm; check ReLU(xW1+b1)W2+b2 by hand on 2x2
    bundle = tiny_bundle(batchnorm=False, dims=(2,), hidden=(2,), latent=2)
    enc = bundle.encoders[0]
    enc.linears[0].weight.data[...] = np.array([[1.0, -1.0], [0.5, 2.0]])
    enc.linears[0].bias.data[...] = np.array([0.0, -1.0])
    enc.linears[1].weight.data[...] = np.eye(2)
    enc.linears[1].bias.data[...] = np.zeros(2)
    x = np.array([[1.0, 2.0], [-1.0, 0.5]])
    hidden = np.maximum(x @ np.array([[1.0, -1.0], [0.5, 2.0]]) + np.array([0.0, -1.0]), 0.0)
    z = bundle.encode(0, x, train=False)
    assert np.allclose(z.data, hidden, atol=1e-12)


def test_hidden_relu_outputs_nonnegative():
    bundle = tiny_bundle()
    x = np.random.default_rng(1).normal(size=(8, 3))
    enc = bundle.encoders[0]
    h = Tensor(x)
    h = enc.linears[0](h)
    h = enc.norms[0](h, True)
    h = relu(h)
    assert (h.data >= 0).all()


def test_encode_shape_checks():
    bundle = tiny_bundle()
    with pytest.raises(ShapeError):
        bundle.encode(0, np.zeros((4, 7)), train=False)
    with pytest.raises(ShapeError):
        bundle.decode(1, np.zeros((4, 7)), train=False)


def test_roundtrip_shapes():
    rng = np.random.default_rng(3)
    for dims, hidden, latent in [((6, 9), (8, 4), 3), ((5,), (), 2)]:
        bundle = tiny_bundle(dims=dims, hidden=hidden, latent=latent)
        for v, d in enumerate(dims):
            x = rng.normal(size=(7, d))
            out = bundle.decode(v, bundle.encode(v, x, train=False), train=False)
            assert out.data.shape == x.shape


def _check_batchnorm_eval_is_affine(atol_mix: float, atol_row: float) -> None:
    bundle = tiny_bundle(seed=5)
    rng = np.random.default_rng(5)
    # drive running stats away from the init
    for _ in range(3):
        bundle.encode(0, rng.normal(size=(16, 3)), train=True)
    x1 = rng.normal(size=(4, 3))
    x2 = rng.normal(size=(4, 3))
    lam = 0.3
    f = lambda x: bundle.encode(0, x, train=False).data
    # eval-mode output of the first (linear+BN) block is affine in the input
    # before the layer's ReLU; lifting beta puts every pre-activation above
    # zero, so the ReLU passes the affine map through unchanged, and taking
    # the lift back off compares at the unlifted O(1) scale
    enc = bundle.encoders[0]
    enc.norms[0].beta.data[...] = 100.0
    lifted = lambda x: enc.norms[0](enc.linears[0](Tensor(x.astype(bundle.dtype))), False).data
    assert (lifted(x1) > 0).all() and (lifted(x2) > 0).all()
    block = lambda x: lifted(x) - 100.0
    lhs = block(lam * x1 + (1 - lam) * x2)
    rhs = lam * block(x1) + (1 - lam) * block(x2)
    assert np.allclose(lhs, rhs, atol=atol_mix)
    # and per-row: no batch coupling
    single = np.vstack([block(x1[i : i + 1]) for i in range(4)])
    assert np.allclose(single, block(x1), atol=atol_row)


def test_batchnorm_eval_is_affine(float64_model):
    _check_batchnorm_eval_is_affine(1e-10, 1e-12)


def test_batchnorm_eval_is_affine_in_float32():
    # the lifted values are near 100, where a float32 step is 7.6e-6
    assert tiny_bundle().dtype == np.float32
    _check_batchnorm_eval_is_affine(1e-4, 1e-4)


def test_batchnorm_batch_of_one_uses_variance_floor():
    bundle = tiny_bundle(seed=2)
    x = np.random.default_rng(2).normal(size=(1, 3))
    z = bundle.encode(0, x, train=True)  # would divide by zero without the floor
    assert np.isfinite(z.data).all()


def test_batchnorm_running_stats_update_only_in_train():
    bundle = tiny_bundle(seed=4)
    bn = bundle.encoders[0].norms[0]
    before = bn.running_mean.copy()
    x = np.random.default_rng(4).normal(size=(10, 3))
    bundle.encode(0, x, train=False)
    assert np.array_equal(bn.running_mean, before)
    bundle.encode(0, x, train=True)
    assert not np.array_equal(bn.running_mean, before)


def test_same_seed_same_parameters():
    b1 = tiny_bundle(seed=11)
    b2 = tiny_bundle(seed=11)
    for (n1, p1), (n2, p2) in zip(b1.named_parameters().items(), b2.named_parameters().items()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_nonfinite_activation_reports_layer():
    # layer 0 is hidden: its ReLU, or the one that ends its batch-norm
    # node, maps NaN and -inf to 0, so the check has to come before it
    for value, batchnorm, train in itertools.product((np.nan, -np.inf, np.inf), (True, False), (True, False)):
        bundle = tiny_bundle(batchnorm=batchnorm)
        bundle.encoders[0].linears[0].weight.data[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="layer 0"):
                bundle.encode(0, np.ones((2, 3)), train=train)


def test_backward_matches_finite_differences_through_batchnorm(float64_model):
    bundle = tiny_bundle(seed=9)
    x = np.random.default_rng(9).normal(size=(6, 3))

    def loss_value():
        z = bundle.encode(0, x, train=True)
        xh = bundle.decode(0, z, train=True)
        return squared_error(x, xh, z).item()

    params = {k: v for k, v in bundle.named_parameters().items() if k.startswith("v0")}
    # batchnorm running stats drift per forward call; freeze them for the check
    for mlp in bundle.encoders + bundle.decoders:
        for norm in mlp.norms:
            if norm is not None:
                norm.momentum = 1.0
    bundle.zero_grad()
    z = bundle.encode(0, x, train=True)
    xh = bundle.decode(0, z, train=True)
    squared_error(x, xh, z).backward()
    analytic = {k: p.grad if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()}
    numeric = finite_difference_gradients(params, loss_value)
    assert max_relative_gradient_error(analytic, numeric) < 1e-4


def _encoder_decoder_gradients(bundle, x) -> dict[str, np.ndarray]:
    bundle.zero_grad()
    z = bundle.encode(0, x, train=True)
    xh = bundle.decode(0, z, train=True)
    squared_error(x, xh, z).backward()
    return {k: p.grad for k, p in bundle.named_parameters().items() if k.startswith("v0")}


def test_float32_backward_through_batchnorm_matches_the_float64_one(monkeypatch):
    # the float64 backward is checked against finite differences above;
    # the float32 one, from the same weights, must agree with it to
    # float32 precision
    x = np.random.default_rng(9).normal(size=(6, 3))
    narrow = tiny_bundle(seed=9)
    assert narrow.dtype == np.float32
    monkeypatch.setattr(mlp, "DTYPE", np.float64)
    wide = tiny_bundle(seed=9)
    for k, p in wide.named_parameters().items():
        p.data[...] = narrow.named_parameters()[k].data
    got = _encoder_decoder_gradients(narrow, x.astype(np.float32))
    want = _encoder_decoder_gradients(wide, x.astype(np.float32).astype(np.float64))
    assert all(g.dtype == np.float32 for g in got.values())
    # entries reach 50; rounding leaves ~1e-6 on those that nearly cancel
    assert max_relative_gradient_error(got, want, floor=1.0) < 1e-4


@pytest.mark.parametrize("train", [True, False], ids=["train_mode", "eval_mode"])
def test_encode_all_matches_a_recorded_forward_and_keeps_no_graph(monkeypatch, train):
    bundle = tiny_bundle()
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(9, 3)), rng.normal(size=(7, 4))]
    stats = {k: v.copy() for k, v in bundle.named_stats().items()}
    recorded = [bundle.encode(v, m, train=train, update_stats=False).data for v, m in enumerate(mats)]

    made = []
    result = Tensor._result

    def spy(data, parents, backward):
        out = result(data, parents, backward)
        made.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    latents = bundle.encode_all(mats, train=train)
    assert all(np.array_equal(z, r) for z, r in zip(latents, recorded))
    assert made and all(t._parents == () and t._backward is None for t in made)
    for name, value in bundle.named_stats().items():
        assert np.array_equal(value, stats[name]), name


def test_named_maps_are_built_once_and_hold_live_stats(float64_model):
    bundle = tiny_bundle(seed=6)
    params, stats = bundle.named_parameters(), bundle.named_stats()
    assert bundle.named_parameters() is params and bundle.named_stats() is stats
    # the checkpoint and optimizer keys: per view, encoder then decoder, linears then norms
    assert [k for k in params if k.startswith("v0.enc")] == [
        "v0.enc.lin0.weight", "v0.enc.lin0.bias", "v0.enc.lin1.weight", "v0.enc.lin1.bias",
        "v0.enc.bn0.gamma", "v0.enc.bn0.beta",
    ]
    assert list(stats) == [
        f"v{v}.{part}.bn0.{name}"
        for v in (0, 1) for part in ("enc", "dec") for name in ("running_mean", "running_var")
    ]
    x = np.random.default_rng(6).normal(size=(8, 3))
    hidden = bundle.encoders[0].linears[0](Tensor(x)).data
    bundle.encode(0, x, train=True)
    assert np.allclose(stats["v0.enc.bn0.running_mean"], 0.1 * hidden.mean(axis=0), rtol=0, atol=1e-15)
    assert bundle.named_stats()["v0.enc.bn0.running_mean"] is bundle.encoders[0].norms[0].running_mean


def _model_checkpoint(path, bundle, **changes):
    """Save `bundle`'s parameters and statistics as a finished run would."""
    payload = dict(
        config_hash="abc123",
        epoch=7,
        adam_t=1,
        params={k: p.data for k, p in bundle.named_parameters().items()},
        stats=bundle.named_stats(),
        adam_arrays={},
        warm_centroids={},
    )
    save_checkpoint(path, **{**payload, **changes})
    return path


def _param_arrays(bundle):
    return {k: p.data for k, p in bundle.named_parameters().items()}


@pytest.mark.parametrize("edit", ["missing", "shape"])
def test_load_arrays_refuses_mismatched_stats_and_writes_nothing(tmp_path, edit):
    # the checkpoint loader, given the bundle's arrays as destinations
    source = tiny_bundle(seed=7)
    stats = {k: s.copy() for k, s in source.named_stats().items()}
    if edit == "missing":
        del stats["v1.dec.bn0.running_var"]
    else:
        stats["v0.enc.bn0.running_mean"] = np.zeros(6)
    path = _model_checkpoint(tmp_path / "ck.npz", source, stats=stats)
    target = tiny_bundle(seed=8)
    before = {k: p.data.copy() for k, p in target.named_parameters().items()}
    stats_before = {k: s.copy() for k, s in target.named_stats().items()}
    with pytest.raises(ShapeError, match="statistic"):
        load_checkpoint(path, params=_param_arrays(target), stats=target.named_stats())
    assert all(np.array_equal(p.data, before[k]) for k, p in target.named_parameters().items())
    assert all(np.array_equal(s, stats_before[k]) for k, s in target.named_stats().items())


def test_load_arrays_gives_adam_parameters_it_can_update_in_place(tmp_path):
    # Adam writes through each parameter's flat view, which for a
    # Fortran-ordered array would be a copy and lose the update
    bundle = tiny_bundle(seed=7)
    params = {k: np.array(p.data, order="F") for k, p in bundle.named_parameters().items()}
    path = _model_checkpoint(tmp_path / "ck.npz", bundle, params=params)
    with np.load(path, allow_pickle=False) as npz:
        assert not npz["param/v0.enc.lin0.weight"].flags.c_contiguous
    load_checkpoint(path, params=_param_arrays(bundle), stats=bundle.named_stats())
    opt = Adam(bundle.named_parameters(), lr=0.1)
    for p in bundle.named_parameters().values():
        assert p.data.flags.c_contiguous
        p.grad = np.ones(p.shape)
    opt.step()
    assert all(np.array_equal(p.data, params[k] - 0.1 / (1 + 1e-8)) for k, p in bundle.named_parameters().items())


def test_gradient_off_path_is_zero():
    # step 1 reaches view 0's decoder, step 2 stops at its encoder: every
    # parameter off that path has no gradient and takes Adam's update for a
    # zero one (decayed moments; none at all where the moments are zero)
    bundle = tiny_bundle()
    params = bundle.named_parameters()
    opt = Adam(params, lr=0.1)
    x = np.random.default_rng(1).normal(size=(4, 3))
    bundle.zero_grad()
    weighted_sum(bundle.decode(0, bundle.encode(0, x, train=True), train=True), 1.0).backward()
    opt.step()
    bundle.zero_grad()
    weighted_sum(bundle.encode(0, x, train=True), 1.0).backward()
    assert [k for k, p in params.items() if p.grad is not None] == [k for k in params if k.startswith("v0.enc")]
    before = {k: p.data.copy() for k, p in params.items()}
    m = {k: 0.9 * opt.state_arrays()[f"m/{k}"] for k in params}
    v = {k: 0.999 * opt.state_arrays()[f"v/{k}"] for k in params}
    opt.step()
    for k, p in params.items():
        if not k.startswith("v0.enc"):
            expected = before[k] - 0.1 * (m[k] / (1 - 0.9**2)) / (np.sqrt(v[k] / (1 - 0.999**2)) + 1e-8)
            assert np.allclose(p.data, expected, rtol=0, atol=1e-15), k
    assert all(np.array_equal(p.data, before[k]) for k, p in params.items() if k.startswith("v1"))
    assert not np.array_equal(params["v0.dec.lin1.weight"].data, before["v0.dec.lin1.weight"])


# ---------------------------------------------------------------------------
# one-node layers: the forward pass bit for bit the op-by-op numpy
# reference, the gradients those of finite differences


def _layer_input(case, rng):
    """(data, requires_grad) of a 6x4 input, or of the named edge case."""
    if case == "batch_of_one":  # train-mode batch norm divides by the epsilon floor
        return rng.normal(size=(1, 4)), True
    x = rng.normal(size=(6, 4))
    if case == "zero_row":
        x[2] = 0.0
    return x, case != "input_without_grad"


LAYER_CASES = ["batch", "batch_of_one", "zero_row", "input_without_grad"]


def _assert_gradients_match_finite_differences(forward, leaves, upstream):
    """Backward of sum(forward() * upstream) against central differences
    in every leaf that requires a gradient; the others get none."""
    weighted_sum(forward(), upstream).backward()
    params = {name: t for name, t in leaves.items() if t.requires_grad}
    numeric = finite_difference_gradients(params, lambda: float((forward().data * upstream).sum()))
    assert max_relative_gradient_error({name: t.grad for name, t in params.items()}, numeric) < 1e-6
    assert all(t.grad is None for t in leaves.values() if not t.requires_grad)


@pytest.mark.parametrize("case", LAYER_CASES)
def test_linear_node_matches_the_op_by_op_graph_bit_for_bit(float64_model, case):
    rng = np.random.default_rng(21)
    lin = Linear(4, 5, rng)
    lin.bias.data[...] = rng.normal(size=5)
    data, requires_grad = _layer_input(case, rng)
    x = Tensor(data, requires_grad=requires_grad)
    out = lin(x)
    assert np.array_equal(out.data, op_by_op_linear(data, lin.weight.data, lin.bias.data))
    upstream = rng.normal(size=out.shape)
    _assert_gradients_match_finite_differences(
        lambda: lin(x), {"x": x, "weight": lin.weight, "bias": lin.bias}, upstream
    )


@pytest.mark.parametrize("update_stats", [True, False], ids=["update_stats", "frozen_stats"])
@pytest.mark.parametrize("case", LAYER_CASES)
def test_train_batchnorm_node_matches_the_op_by_op_graph_bit_for_bit(float64_model, case, update_stats):
    rng = np.random.default_rng(22)
    norm = BatchNorm(4)
    norm.gamma.data[...] = rng.normal(size=4)
    norm.beta.data[...] = rng.normal(size=4)
    norm.running_mean[...] = rng.normal(size=4)
    norm.running_var[...] = rng.uniform(0.5, 2.0, size=4)
    ref_mean, ref_var = norm.running_mean.copy(), norm.running_var.copy()
    data, requires_grad = _layer_input(case, rng)
    x = Tensor(data, requires_grad=requires_grad)
    out = norm(x, train=True, update_stats=update_stats)
    ref = op_by_op_batchnorm_relu(
        data, norm.gamma.data, norm.beta.data, ref_mean, ref_var, norm.momentum, norm.eps, update_stats
    )
    assert np.array_equal(out.data, ref)
    assert (out.data == 0).any() and (out.data > 0).any()
    assert np.array_equal(norm.running_mean, ref_mean) and np.array_equal(norm.running_var, ref_var)
    upstream = rng.normal(size=out.shape)
    _assert_gradients_match_finite_differences(
        lambda: norm(x, train=True, update_stats=False),
        {"x": x, "gamma": norm.gamma, "beta": norm.beta},
        upstream,
    )


def test_recon_orth_backward_stays_within_its_memory_bound():
    # allocations of one loss plus backward: the parameters' gradients plus a
    # fixed number of batch-sized arrays per hidden layer. Measured: 3.1 such
    # arrays with one node per layer and backward freeing each node's
    # gradient and saved arrays once used, 7.1 when it kept them, 17.5 with
    # the op-by-op graph.
    dims, batch, width = (32, 48), 64, 256
    bundle = build_bundle(list(dims), 32, (width, width), True, 0)
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=(batch, d)) for d in dims]
    param_bytes = sum(p.data.nbytes for p in bundle.named_parameters().values())
    hidden_layers = 2 * len(dims) * 2  # encoder and decoder of every view
    tracemalloc.start()
    try:
        loss, _ = recon_orth_loss(xs, bundle, 0.1)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= param_bytes + 5 * hidden_layers * batch * width * bundle.dtype.itemsize


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    p.grad = np.zeros(2)
    opt.step()
    p.zero_grad()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_single_scalar_hand_update():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([0.5])
    opt.step()
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, [expected], atol=1e-15)


def test_adam_two_runs_bit_identical():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        for _ in range(5):
            p.grad = rng.normal(size=3)
            opt.step()
        return p.data

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(NumericalError):
        Adam({"p": p}, lr=1e-3).step()


_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _check_chunked_adam_matches_the_whole_array_update(size: int, dtype) -> None:
    rng = np.random.default_rng(size)
    params = {
        "flat": Tensor(rng.normal(size=size).astype(dtype), requires_grad=True),
        "matrix": Tensor(rng.normal(size=(size, 2)).astype(dtype), requires_grad=True),
        "unreached": Tensor(rng.normal(size=size).astype(dtype), requires_grad=True),
    }
    ref = {k: [p.data.copy(), np.zeros(p.shape, dtype), np.zeros(p.shape, dtype)] for k, p in params.items()}
    opt = Adam(params, lr=0.01)
    for t in (1, 2, 3):
        for k, p in params.items():
            p.grad = None if k == "unreached" else rng.normal(size=p.shape).astype(dtype)
            g = np.zeros(p.shape, dtype) if p.grad is None else p.grad
            pr, mr, vr = ref[k]
            whole_array_adam(pr, g, mr, vr, t, 0.01)
        opt.step()
        for k, p in params.items():
            pr, mr, vr = ref[k]
            assert np.array_equal(p.data, pr), k
            assert np.array_equal(opt.state_arrays()[f"m/{k}"], mr), k
            assert np.array_equal(opt.state_arrays()[f"v/{k}"], vr), k
    assert all(a.dtype == dtype for a in opt.state_arrays().values())
    assert opt.t == 3


@pytest.mark.parametrize("size", _SIZES)
def test_adam_chunked_step_matches_the_whole_array_update_bit_for_bit(size):
    _check_chunked_adam_matches_the_whole_array_update(size, np.float64)


@pytest.mark.parametrize("size", _SIZES)
def test_adam_chunked_float32_step_matches_the_whole_array_update_bit_for_bit(size):
    _check_chunked_adam_matches_the_whole_array_update(size, np.float32)


def test_adam_refuses_a_bad_last_gradient_before_moving_anything():
    params = {"a": Tensor(np.ones(3), requires_grad=True), "b": Tensor(np.ones(2), requires_grad=True)}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = np.full(p.shape, 0.5)
    opt.step()
    before = {k: p.data.copy() for k, p in params.items()}
    moments = {k: a.copy() for k, a in opt.state_arrays().items()}
    params["a"].grad = np.full(3, 0.25)
    params["b"].grad = np.array([1.0, np.nan])
    with pytest.raises(NumericalError, match="for b"):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(p.data, before[k]) for k, p in params.items())
    assert all(np.array_equal(a, moments[k]) for k, a in opt.state_arrays().items())


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    # a Fortran-ordered parameter's flat view would be a copy, so an update
    # written through it would be lost without a word
    params = {"a": Tensor(np.ones(3), requires_grad=True), "w": Tensor(np.asfortranarray(np.ones((2, 3))), requires_grad=True)}
    opt = Adam(params, lr=0.1)
    for p in params.values():
        p.grad = np.full(p.shape, 0.5)
    with pytest.raises(ShapeError, match="w is not C-contiguous"):
        opt.step()
    assert opt.t == 0
    assert all(np.array_equal(p.data, np.ones(p.shape)) for p in params.values())
    assert not any(a.any() for a in opt.state_arrays().values())


def _stepped_adam(bundle):
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    bundle.zero_grad()
    z = bundle.encode(0, np.random.default_rng(4).normal(size=(5, 3)), train=True)
    weighted_sum(z, z.data).backward()
    opt.step()
    return opt


def test_adam_load_state_restores_saved_moments(tmp_path):
    # the checkpoint loader fills the optimizer's own moments in place
    bundle = tiny_bundle(seed=3)
    saved = _stepped_adam(bundle)
    path = _model_checkpoint(tmp_path / "ck.npz", bundle, adam_t=saved.t, adam_arrays=saved.state_arrays())
    fresh = Adam(bundle.named_parameters(), lr=1e-3)
    assert fresh.t == 0 and fresh.state_arrays().keys() == saved.state_arrays().keys()
    assert not any(a.any() for a in fresh.state_arrays().values())
    moments = dict(fresh.state_arrays())
    ck = load_checkpoint(path, adam_arrays=fresh.state_arrays())
    assert ck.adam_t == 1 and ck.adam_arrays is fresh.state_arrays()
    for k, a in fresh.state_arrays().items():
        assert a is moments[k]
        assert np.array_equal(a, saved.state_arrays()[k]) and a is not saved.state_arrays()[k]


@pytest.mark.parametrize("edit", ["extra_axis", "missing", "stray"])
def test_adam_load_state_refuses_mismatched_moments_and_changes_nothing(tmp_path, edit):
    source_bundle = tiny_bundle(seed=3)
    source = _stepped_adam(source_bundle)
    arrays = {k: a.copy() for k, a in source.state_arrays().items()}
    if edit == "extra_axis":
        arrays["m/v0.enc.lin0.weight"] = arrays["m/v0.enc.lin0.weight"][None]
    elif edit == "missing":
        del arrays["v/v1.dec.lin0.bias"]
    else:
        arrays["x/v0.enc.lin0.weight"] = arrays["m/v0.enc.lin0.weight"]
    path = _model_checkpoint(tmp_path / "ck.npz", source_bundle, adam_t=source.t + 1, adam_arrays=arrays)
    target_bundle = tiny_bundle(seed=5)
    target = _stepped_adam(target_bundle)
    before = {k: a.copy() for k, a in target.state_arrays().items()}
    params_before = {k: p.data.copy() for k, p in target_bundle.named_parameters().items()}
    with pytest.raises(ShapeError, match="Adam moment"):
        load_checkpoint(
            path,
            params=_param_arrays(target_bundle),
            stats=target_bundle.named_stats(),
            adam_arrays=target.state_arrays(),
        )
    assert target.t == 1
    assert all(np.array_equal(a, before[k]) for k, a in target.state_arrays().items())
    assert all(np.array_equal(p.data, params_before[k]) for k, p in target_bundle.named_parameters().items())


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_payload(bundle, opt):
    return dict(
        config_hash="abc123",
        epoch=7,
        adam_t=opt.t,
        params={k: p.data for k, p in bundle.named_parameters().items()},
        stats=bundle.named_stats(),
        adam_arrays=opt.state_arrays(),
        warm_centroids={("common", 2): np.ones((2, 2))},
    )


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    bundle = tiny_bundle(seed=3)
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    x = np.random.default_rng(3).normal(size=(5, 3))
    bundle.zero_grad()
    z = bundle.encode(0, x, train=True)
    weighted_sum(z, z.data).backward()
    opt.step()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, **_checkpoint_payload(bundle, opt))
    ck = load_checkpoint(path, expect_config_hash="abc123")
    assert ck.epoch == 7 and ck.adam_t == 1
    for k, p in bundle.named_parameters().items():
        assert np.array_equal(ck.params[k], p.data)
    for k, s in bundle.named_stats().items():
        assert np.array_equal(ck.stats[k], s)
    assert np.array_equal(ck.warm_centroids[("common", 2)], np.ones((2, 2)))
    fresh = tiny_bundle(seed=99)
    destinations = _param_arrays(fresh)
    ck = load_checkpoint(path, params=destinations, stats=fresh.named_stats())
    assert ck.params is destinations and ck.stats is fresh.named_stats()
    for k, p in fresh.named_parameters().items():
        assert p.data is destinations[k]
        assert np.array_equal(p.data, bundle.named_parameters()[k].data)
    for k, s in fresh.named_stats().items():
        assert np.array_equal(s, bundle.named_stats()[k])


def test_checkpoint_hash_mismatch_refused(tmp_path):
    bundle = tiny_bundle()
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, **_checkpoint_payload(bundle, opt))
    with pytest.raises(CheckpointError, match="different configuration"):
        load_checkpoint(path, expect_config_hash="zzz")


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    bundle = tiny_bundle()
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, **_checkpoint_payload(bundle, opt))

    def crash_mid_write(fh, **arrays):
        fh.write(b"PK\x03\x04 partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", crash_mid_write)
    payload = {**_checkpoint_payload(bundle, opt), "epoch": 8}
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, **payload)
    monkeypatch.undo()
    assert load_checkpoint(path, expect_config_hash="abc123").epoch == 7
    assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


def test_checkpoint_corrupted_file(tmp_path):
    path = tmp_path / "ck.npz"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
def test_truncated_or_empty_checkpoint_is_refused(tmp_path, keep):
    path = tmp_path / "ck.npz"
    bundle = tiny_bundle()
    save_checkpoint(path, **_checkpoint_payload(bundle, Adam(bundle.named_parameters(), lr=1e-3)))
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * keep)])
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(path)


_META = {"format": FORMAT_VERSION, "config_hash": "abc123", "epoch": 7, "adam_t": 0}


@pytest.mark.parametrize(
    "meta, entry",
    [
        ({"format": FORMAT_VERSION}, "param/p"),
        ([1], "param/p"),
        ({**_META, "epoch": "x"}, "param/p"),
        (_META, "warm/view0/abc"),
    ],
    ids=["no_config_hash", "meta_not_an_object", "epoch_not_an_int", "warm_level_not_an_int"],
)
def test_malformed_checkpoint_is_refused(tmp_path, meta, entry):
    path = tmp_path / "ck.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **{entry: np.ones(2)})
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(path)


_NONFINITE_ENTRIES = ["param/v0.enc.lin0.weight", "param/v1.dec.lin0.weight", "stat/v0.enc.bn0.running_var"]


@pytest.mark.parametrize("into", ["fresh_arrays", "destinations"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", _NONFINITE_ENTRIES)
def test_checkpoint_with_a_nonfinite_entry_is_refused(tmp_path, entry, value, into):
    bundle = tiny_bundle(seed=3)
    path = _model_checkpoint(tmp_path / "ck.npz", bundle)
    set_first_value(path, entry, value)
    target = tiny_bundle(seed=4)
    destinations = {} if into == "fresh_arrays" else dict(params=_param_arrays(target), stats=target.named_stats())
    with pytest.raises(CheckpointError, match=f"non-finite values in checkpoint entry '{entry}'"):
        load_checkpoint(path, **destinations)


@pytest.mark.parametrize("into", ["fresh_arrays", "destinations"])
def test_checkpoint_with_a_flipped_data_byte_is_refused(tmp_path, into):
    bundle = tiny_bundle(seed=3)
    path = _model_checkpoint(tmp_path / "ck.npz", bundle)
    flip_a_data_byte(path, "param/v0.enc.lin0.weight")
    target = tiny_bundle(seed=4)
    destinations = {} if into == "fresh_arrays" else dict(params=_param_arrays(target), stats=target.named_stats())
    with pytest.raises(CheckpointError, match="unreadable checkpoint .* Bad CRC-32"):
        load_checkpoint(path, **destinations)


def test_names_and_shapes_are_checked_before_any_entry_data_is_read(tmp_path):
    # a stray statistic after a parameter whose data fails its CRC: the
    # name check, from the member headers, refuses the file first (the
    # weight is 16 KiB, more than a header read buffers, so reading its
    # header does not reach the end of its data, where the CRC is checked)
    bundle = tiny_bundle(seed=3, dims=(32, 4), hidden=(64,))
    stats = {**bundle.named_stats(), "v9.enc.bn0.running_mean": np.zeros(5)}
    path = _model_checkpoint(tmp_path / "ck.npz", bundle, stats=stats)
    flip_a_data_byte(path, "param/v0.enc.lin0.weight")
    target = tiny_bundle(seed=4, dims=(32, 4), hidden=(64,))
    before = {k: p.data.copy() for k, p in target.named_parameters().items()}
    with pytest.raises(ShapeError, match="statistic name set mismatch"):
        load_checkpoint(path, params=_param_arrays(target), stats=target.named_stats())
    assert all(np.array_equal(p.data, before[k]) for k, p in target.named_parameters().items())


@pytest.mark.parametrize("entry", ["param/v1.dec.lin0.bias", "stat/v0.enc.bn0.running_mean", "adam/v/v0.enc.lin0.weight"])
def test_an_entry_of_another_dtype_is_refused_before_any_entry_data_is_read(tmp_path, entry):
    # each comes after parameters that a check at read time would already have written
    bundle = tiny_bundle(seed=3)
    opt = _stepped_adam(bundle)
    moments = {k: a.copy() for k, a in opt.state_arrays().items()}
    path = _model_checkpoint(tmp_path / "ck.npz", bundle, adam_arrays=moments)
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays[entry] = arrays[entry].astype(np.float64)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    target = tiny_bundle(seed=4)
    target_opt = Adam(target.named_parameters(), lr=1e-3)
    before = {k: p.data.copy() for k, p in target.named_parameters().items()}
    kind, _, name = entry.partition("/")
    label = {"param": "parameter", "stat": "statistic", "adam": "Adam moment"}[kind]
    with pytest.raises(CheckpointError, match=f"dtype mismatch for {label} {name} .*: float64, not float32"):
        load_checkpoint(
            path, params=_param_arrays(target), stats=target.named_stats(), adam_arrays=target_opt.state_arrays()
        )
    assert all(np.array_equal(p.data, before[k]) for k, p in target.named_parameters().items())
    assert not any(a.any() for a in target_opt.state_arrays().values())


# Wide enough that holding every entry at once overshoots the bound below:
# the largest entry is a float32 512 x 512 weight (1 MiB) of 8.6 MiB in all.
_WIDE = dict(dims=(64, 48), hidden=(512, 512, 512), latent=16)
_SLACK = 1 << 20


def _load_peak(path, **destinations) -> int:
    """Bytes `load_checkpoint` allocates at its peak beyond what already existed."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load_checkpoint(path, **destinations)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _largest_entry(bundle) -> int:
    return max(p.data.nbytes for p in bundle.named_parameters().values())


def test_loading_into_a_bundle_holds_at_most_one_entry_at_a_time(tmp_path):
    saved = tiny_bundle(seed=3, **_WIDE)
    path = _model_checkpoint(tmp_path / "ck.npz", saved)
    bundle = tiny_bundle(seed=4, **_WIDE)
    model = sum(p.data.nbytes for p in bundle.named_parameters().values())
    assert model > 3 * (_largest_entry(bundle) + _SLACK)
    peak = _load_peak(path, params=_param_arrays(bundle), stats=bundle.named_stats())
    assert peak <= _largest_entry(bundle) + _SLACK
    assert all(np.array_equal(p.data, saved.named_parameters()[k].data) for k, p in bundle.named_parameters().items())


def test_resuming_into_a_bundle_and_its_adam_holds_at_most_one_entry_at_a_time(tmp_path):
    saved = tiny_bundle(seed=3, **_WIDE)
    moments = {k: np.full_like(a, 0.5) for k, a in Adam(saved.named_parameters(), lr=1e-3).state_arrays().items()}
    path = _model_checkpoint(
        tmp_path / "ck.npz", saved, adam_arrays=moments, warm_centroids={("common", 3): np.ones((3, 16))}
    )
    bundle = tiny_bundle(seed=4, **_WIDE)
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    peak = _load_peak(
        path, params=_param_arrays(bundle), stats=bundle.named_stats(), adam_arrays=opt.state_arrays()
    )
    assert peak <= _largest_entry(bundle) + _SLACK
    assert all((a == 0.5).all() for a in opt.state_arrays().values())


@pytest.mark.parametrize("batchnorm", [True, False])
def test_the_eval_model_holds_the_encoders_and_names_the_decoder_entries(batchnorm):
    full = tiny_bundle(batchnorm=batchnorm, hidden=(5, 6))
    enc = build_bundle([3, 4], 2, (5, 6), batchnorm, 0, encoders_only=True)
    assert enc.decoders == [] and full.unbuilt == {}
    assert {k: p.shape for k, p in enc.named_parameters().items()} == {
        k: p.shape for k, p in full.named_parameters().items() if ".enc." in k
    }
    assert {k: s.shape for k, s in enc.named_stats().items()} == {
        k: s.shape for k, s in full.named_stats().items() if ".enc." in k
    }
    decoder_entries = {f"param/{k}": (p.shape, p.data.dtype) for k, p in full.named_parameters().items() if ".dec." in k}
    decoder_entries.update({f"stat/{k}": (s.shape, s.dtype) for k, s in full.named_stats().items() if ".dec." in k})
    assert enc.unbuilt == decoder_entries


@pytest.mark.parametrize("edit", ["missing", "wrong_shape", "nan"])
def test_dropped_entries_are_checked_like_kept_ones(tmp_path, edit):
    saved = tiny_bundle(seed=3)
    stats = dict(saved.named_stats())
    if edit == "missing":
        del stats["v1.dec.bn0.running_var"]
    elif edit == "wrong_shape":
        stats["v1.dec.bn0.running_var"] = np.ones(7)
    path = _model_checkpoint(tmp_path / "ck.npz", saved, stats=stats)
    if edit == "nan":
        set_first_value(path, "stat/v1.dec.bn0.running_var", np.nan)
    bundle = build_bundle([3, 4], 2, (5,), True, 0, encoders_only=True)
    before = {k: p.data.copy() for k, p in bundle.named_parameters().items()}
    expected = {
        "missing": (ShapeError, "statistic name set mismatch"),
        "wrong_shape": (ShapeError, "shape mismatch for statistic v1.dec.bn0.running_var"),
        "nan": (CheckpointError, "non-finite values in checkpoint entry 'stat/v1.dec.bn0.running_var'"),
    }[edit]
    with pytest.raises(expected[0], match=expected[1]):
        load_checkpoint(path, params=_param_arrays(bundle), stats=bundle.named_stats(), drop=bundle.unbuilt)
    if edit != "nan":  # refused from the member headers, before any entry data is read
        assert all(np.array_equal(p.data, before[k], equal_nan=True) for k, p in bundle.named_parameters().items())
