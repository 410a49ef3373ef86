"""Autoencoder bundle, batch-norm behavior, optimizer, checkpoint round-trips."""

import functools
import itertools
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from damage import flip_a_data_byte, rewrite_entries, set_first_value
from oracles import (
    finite_difference_gradients,
    max_relative_gradient_error,
    op_by_op_batchnorm_relu,
    op_by_op_linear,
    two_phase_adam_step,
    whole_array_adam,
)
from umclust.errors import CheckpointError, NumericalError, ShapeError
from umclust.losses import recon_orth_loss
from umclust.nn import Adam, Tensor, build_bundle, load_checkpoint, mlp, save_checkpoint
from umclust.nn.adam import CHUNK
from umclust.nn.checkpoint import FORMAT_VERSION
from umclust.nn.mlp import BatchNorm, Linear, hidden_layer
from umclust.train import walk_back


def tiny_bundle(batchnorm=True, seed=0, dims=(3, 4), hidden=(5,), latent=2):
    return build_bundle(list(dims), latent, hidden, batchnorm, seed)


def gradient_step(*pairs):
    """A backward for `Adam.step` that hands over each (parameter, g) pair's
    gradient `g`, in order."""
    return lambda update: [update(p, g) for p, g in pairs]


def collected(backward) -> dict[int, np.ndarray]:
    """Every gradient `backward(update)` hands over, by parameter identity;
    each parameter at most once."""
    grads = {}

    def update(p, g):
        assert id(p) not in grads
        grads[id(p)] = g

    backward(update)
    return grads


def squared_error(bundle, x: np.ndarray):
    """||x_hat - x||^2 + ||z||^2 through view 0's encoder and decoder, in
    train mode: its value and the backward that walks the decoder, then
    the encoder."""
    z = bundle.encode(0, x, train=True)
    x_hat = bundle.decode(0, z.data, train=True)
    diff = x_hat.data - x
    value = float((diff * diff).sum() + (z.data * z.data).sum())
    return value, functools.partial(walk_back, [z], [x_hat], [(2.0 * diff, 2.0 * z.data)], [])


def recon_orth_walk(bundle, xs: list[np.ndarray], lambda1: float):
    """A recorded train-mode forward of every view's encoder and decoder
    on its batch in `xs`, as `train.step_objective` runs it: the encoder
    outputs, the decoder outputs, and the walk back from the
    reconstruction term alone."""
    zs = [bundle.encode(v, x, train=True) for v, x in enumerate(xs)]
    x_hats = [bundle.decode(v, z.data, train=True) for v, z in enumerate(zs)]
    _, ae_grads = recon_orth_loss(xs, [x.data for x in x_hats], [z.data for z in zs], lambda1)
    return zs, x_hats, functools.partial(walk_back, zs, x_hats, ae_grads, [])


def view0_gradients(bundle, backward) -> dict[str, np.ndarray]:
    """View 0's parameters' gradients from `backward`, by name: every one
    of them, each handed over once, and no other parameter's."""
    grads = collected(backward)
    params = {k: p for k, p in bundle.named_parameters().items() if k.startswith("v0")}
    assert set(grads) == {id(p) for p in params.values()}
    return {k: grads[id(p)] for k, p in params.items()}


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
        p[...] = 0.0
    x = np.random.default_rng(0).normal(size=(6, 3))
    z = bundle.encode(0, x, train=False)
    assert np.allclose(z.data, 0.0)
    xhat = bundle.decode(0, z.data, train=False)
    assert np.allclose(xhat.data, 0.0)


def test_single_layer_relu_hand_case():
    # one hidden layer, no batchnorm; check ReLU(xW1+b1)W2+b2 by hand on 2x2
    bundle = tiny_bundle(batchnorm=False, dims=(2,), hidden=(2,), latent=2)
    enc = bundle.encoders[0]
    enc.linears[0].weight[...] = np.array([[1.0, -1.0], [0.5, 2.0]])
    enc.linears[0].bias[...] = np.array([0.0, -1.0])
    enc.linears[1].weight[...] = np.eye(2)
    enc.linears[1].bias[...] = np.zeros(2)
    x = np.array([[1.0, 2.0], [-1.0, 0.5]])
    hidden = np.maximum(x @ np.array([[1.0, -1.0], [0.5, 2.0]]) + np.array([0.0, -1.0]), 0.0)
    z = bundle.encode(0, x, train=False)
    assert np.allclose(z.data, hidden, atol=1e-12)


def test_hidden_relu_outputs_nonnegative():
    bundle = tiny_bundle()
    x = np.random.default_rng(1).normal(size=(8, 3))
    enc = bundle.encoders[0]
    for norm in (enc.norms[0], None):
        h, _ = hidden_layer(x.astype(bundle.dtype), enc.linears[0], norm, train=True)
        assert (h >= 0).all() and (h > 0).any()


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
            out = bundle.decode(v, bundle.encode(v, x, train=False).data, train=False)
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
    enc.norms[0].beta[...] = 100.0
    lifted = lambda x: hidden_layer(x.astype(bundle.dtype), enc.linears[0], enc.norms[0], train=False)[0]
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
        assert np.array_equal(p1, p2)


def test_nonfinite_activation_reports_layer():
    # layer 0 is hidden: its ReLU, or the one that ends its batch-norm
    # node, maps NaN and -inf to 0, so the check has to come before it
    for value, batchnorm, train in itertools.product((np.nan, -np.inf, np.inf), (True, False), (True, False)):
        bundle = tiny_bundle(batchnorm=batchnorm)
        bundle.encoders[0].linears[0].weight[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="layer 0"):
                bundle.encode(0, np.ones((2, 3)), train=train)


def test_backward_matches_finite_differences_through_batchnorm(float64_model):
    bundle = tiny_bundle(seed=9)
    x = np.random.default_rng(9).normal(size=(6, 3))
    params = {k: v for k, v in bundle.named_parameters().items() if k.startswith("v0")}
    analytic = view0_gradients(bundle, squared_error(bundle, x)[1])
    numeric = finite_difference_gradients(params, lambda: squared_error(bundle, x)[0])
    assert max_relative_gradient_error(analytic, numeric) < 1e-4


def _encoder_decoder_gradients(bundle, x) -> dict[str, np.ndarray]:
    return view0_gradients(bundle, squared_error(bundle, x)[1])


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
        p[...] = narrow.named_parameters()[k]
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

    made = []
    tensor = mlp.Tensor

    def spy(*args, **kwargs):
        made.append(tensor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(mlp, "Tensor", spy)
    latents = bundle.encode_all(mats, train=train)
    assert made and all(t._rules is None for t in made)
    for name, value in bundle.named_stats().items():
        assert np.array_equal(value, stats[name]), name
    monkeypatch.undo()
    # the same values as a recorded forward, which keeps a rule per layer
    recorded = [bundle.encode(v, m, train=train) for v, m in enumerate(mats)]
    assert all(np.array_equal(z, r.data) for z, r in zip(latents, recorded))
    assert all(r._rules for r in recorded) == train


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
    hidden = bundle.encoders[0].linears[0].product(x)
    bundle.encode(0, x, train=True)
    assert np.allclose(stats["v0.enc.bn0.running_mean"], 0.1 * hidden.mean(axis=0), rtol=0, atol=1e-15)
    assert bundle.named_stats()["v0.enc.bn0.running_mean"] is bundle.encoders[0].norms[0].running_mean


def _model_checkpoint(path, bundle, **changes):
    """Save `bundle`'s parameters and statistics as a finished run would."""
    payload = dict(
        config_hash="abc123",
        epoch=7,
        adam_t=1,
        params=dict(bundle.named_parameters()),
        stats=bundle.named_stats(),
        adam_arrays={},
        warm_centroids={},
    )
    save_checkpoint(path, **{**payload, **changes})
    return path


def _param_arrays(bundle):
    return dict(bundle.named_parameters())


def _into(**destinations):
    """`load_checkpoint`'s `into` that gives `destinations` whatever the saved epoch."""
    return lambda epoch: destinations


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
    before = {k: p.copy() for k, p in target.named_parameters().items()}
    stats_before = {k: s.copy() for k, s in target.named_stats().items()}
    with pytest.raises(ShapeError, match="statistic"):
        load_checkpoint(path, into=_into(params=_param_arrays(target), stats=target.named_stats()))
    assert all(np.array_equal(p, before[k]) for k, p in target.named_parameters().items())
    assert all(np.array_equal(s, stats_before[k]) for k, s in target.named_stats().items())


def test_load_arrays_gives_adam_parameters_it_can_update_in_place(tmp_path):
    # Adam writes through each parameter's flat view, which for a
    # Fortran-ordered array would be a copy and lose the update
    bundle = tiny_bundle(seed=7)
    params = {k: np.array(p, order="F") for k, p in bundle.named_parameters().items()}
    path = _model_checkpoint(tmp_path / "ck.npz", bundle, params=params)
    with np.load(path, allow_pickle=False) as npz:
        assert not npz["param/v0.enc.lin0.weight"].flags.c_contiguous
    load_checkpoint(path, into=_into(params=_param_arrays(bundle), stats=bundle.named_stats()))
    opt = Adam(bundle.named_parameters(), lr=0.1)
    assert all(p.flags.c_contiguous for p in bundle.named_parameters().values())
    opt.step(gradient_step(*((p, np.ones(p.shape)) for p in bundle.named_parameters().values())))
    assert all(np.array_equal(p, params[k] - 0.1 / (1 + 1e-8)) for k, p in bundle.named_parameters().items())


class _Rule:
    """A layer's backward rule that hands over `param` with the upstream
    gradient, and returns upstream + 1 as its input gradient when asked."""

    def __init__(self, param, calls):
        self.param, self.calls = param, calls

    def __call__(self, grad, input_grad):
        self.calls.append((self.param.size, input_grad))
        return (grad + 1.0 if input_grad else None), [(self.param, grad)]


@pytest.mark.parametrize("input_grad", [False, True], ids=["encoder", "decoder"])
def test_backward_walks_once_and_drops_each_rule_before_its_update(input_grad):
    # rules run from the last layer to the first; each is gone (and with
    # it what its layer kept) before its parameters' gradients are handed
    # over; only the first layer may skip its input gradient
    params, calls, dead = [np.zeros(2), np.zeros(3)], [], []
    rules = [_Rule(p, calls) for p in params]
    refs = {id(p): weakref.ref(r) for p, r in zip(params, rules)}
    out = Tensor(np.zeros((1, 1)), rules)
    del rules
    result = out.backward(
        np.zeros((1, 1)), lambda p, g: dead.append((p.size, float(g[0, 0]), refs[id(p)]() is None)), input_grad
    )
    assert calls == [(3, True), (2, input_grad)]
    assert dead == [(3, 0.0, True), (2, 1.0, True)]
    assert (result is None) != input_grad and (result is None or result[0, 0] == 2.0)
    with pytest.raises(RuntimeError, match="walked already"):
        out.backward(np.zeros((1, 1)), None)


# ---------------------------------------------------------------------------
# layers: the forward pass bit for bit the op-by-op numpy reference, the
# gradients of the backward rule those of finite differences


def _layer_input(case, rng):
    """(data, input_grad) of a 6x4 input, or of the named edge case."""
    if case == "batch_of_one":  # train-mode batch norm divides by the epsilon floor
        return rng.normal(size=(1, 4)), True
    x = rng.normal(size=(6, 4))
    if case == "zero_row":
        x[2] = 0.0
    return x, case != "input_without_grad"


LAYER_CASES = ["batch", "batch_of_one", "zero_row", "input_without_grad"]


def _assert_gradients_match_finite_differences(recorded, forward, leaves, upstream, input_grad):
    """The rule of `recorded()` (output, rule), given `upstream`, against
    central differences of sum(forward() * upstream) in every parameter of
    `leaves`, each handed over once, and in x only with `input_grad`."""
    grad_x, pairs = recorded()[1](upstream, input_grad)
    names = {id(a): name for name, a in leaves.items()}
    grads = {names[id(p)]: g for p, g in pairs}
    assert len(pairs) == len(grads) == len(leaves) - 1 and "x" not in grads
    if input_grad:
        grads["x"] = grad_x
    else:
        assert grad_x is None
        leaves = {name: a for name, a in leaves.items() if name != "x"}
    numeric = finite_difference_gradients(leaves, lambda: float((forward() * upstream).sum()))
    assert max_relative_gradient_error(grads, numeric) < 1e-6


@pytest.mark.parametrize("case", LAYER_CASES)
def test_linear_node_matches_the_op_by_op_graph_bit_for_bit(float64_model, case):
    rng = np.random.default_rng(21)
    lin = Linear(4, 5, rng)
    lin.bias[...] = rng.normal(size=5)
    x, input_grad = _layer_input(case, rng)
    out = lin.product(x)
    assert np.array_equal(out, op_by_op_linear(x, lin.weight, lin.bias))
    upstream = rng.normal(size=out.shape)
    _assert_gradients_match_finite_differences(
        lambda: (lin.product(x), functools.partial(lin.backward, x)),
        lambda: lin.product(x),
        {"x": x, "weight": lin.weight, "bias": lin.bias},
        upstream,
        input_grad,
    )


def _hidden_layer_params(rng, batchnorm=True):
    """A 4 -> 5 hidden layer's Linear and BatchNorm (None without batch
    norm), every parameter and running statistic drawn from `rng`."""
    lin = Linear(4, 5, rng)
    lin.bias[...] = rng.normal(size=5)
    if not batchnorm:
        return lin, None
    norm = BatchNorm(5)
    norm.gamma[...] = rng.normal(size=5)
    norm.beta[...] = rng.normal(size=5)
    norm.running_mean[...] = rng.normal(size=5)
    norm.running_var[...] = rng.uniform(0.5, 2.0, size=5)
    return lin, norm


@pytest.mark.parametrize("update_stats", [True, False], ids=["update_stats", "frozen_stats"])
@pytest.mark.parametrize("case", LAYER_CASES)
def test_train_batchnorm_node_matches_the_op_by_op_graph_bit_for_bit(float64_model, case, update_stats):
    # the hidden layer: Linear, batch norm and ReLU in one; a recorded
    # forward moves the running statistics, an unrecorded one does not.
    # Train-mode output does not read them, so the finite differences
    # run unrecorded
    rng = np.random.default_rng(22)
    lin, norm = _hidden_layer_params(rng)
    ref_mean, ref_var = norm.running_mean.copy(), norm.running_var.copy()
    x, input_grad = _layer_input(case, rng)
    out, rule = hidden_layer(x, lin, norm, train=True, record=update_stats)
    assert (rule is not None) == update_stats
    ref = op_by_op_batchnorm_relu(
        op_by_op_linear(x, lin.weight, lin.bias),
        norm.gamma,
        norm.beta,
        ref_mean,
        ref_var,
        norm.momentum,
        norm.eps,
        update_stats,
    )
    assert np.array_equal(out, ref)
    assert (out == 0).any() and (out > 0).any()
    assert np.array_equal(norm.running_mean, ref_mean) and np.array_equal(norm.running_var, ref_var)
    upstream = rng.normal(size=out.shape)
    _assert_gradients_match_finite_differences(
        lambda: hidden_layer(x, lin, norm, train=True),
        lambda: hidden_layer(x, lin, norm, train=True, record=False)[0],
        {"x": x, "weight": lin.weight, "bias": lin.bias, "gamma": norm.gamma, "beta": norm.beta},
        upstream,
        input_grad,
    )


@pytest.mark.parametrize("case", LAYER_CASES)
def test_relu_hidden_layer_node_matches_the_op_by_op_graph_bit_for_bit(float64_model, case):
    rng = np.random.default_rng(23)
    lin, _ = _hidden_layer_params(rng, batchnorm=False)
    x, input_grad = _layer_input(case, rng)
    out, _ = hidden_layer(x, lin, None, train=True)
    linear = op_by_op_linear(x, lin.weight, lin.bias)
    assert np.array_equal(out, np.where(linear > 0, linear, 0.0))
    assert (out == 0).any() and (out > 0).any()
    upstream = rng.normal(size=out.shape)
    _assert_gradients_match_finite_differences(
        lambda: hidden_layer(x, lin, None, train=True),
        lambda: hidden_layer(x, lin, None, train=True)[0],
        {"x": x, "weight": lin.weight, "bias": lin.bias},
        upstream,
        input_grad,
    )


@pytest.mark.parametrize("batchnorm", [True, False], ids=["batchnorm", "relu"])
@pytest.mark.parametrize("train", [True, False], ids=["train_mode", "eval_mode"])
def test_hidden_layer_node_leaves_its_input_untouched(batchnorm, train):
    # the layer normalizes and applies its ReLU in its own array, never in
    # the previous layer's output it reads; its backward rule (train mode
    # only) leaves that output alone too
    rng = np.random.default_rng(24)
    lin, norm = _hidden_layer_params(rng, batchnorm)
    data = rng.normal(size=(6, 4)).astype(lin.weight.dtype)
    before = data.copy()
    out, rule = hidden_layer(data, lin, norm, train=train)
    assert not np.shares_memory(out, data)
    assert np.array_equal(data, before)
    assert (rule is not None) == train
    if rule is not None:
        rule(rng.normal(size=out.shape), True)
    assert np.array_equal(data, before)


def _memory_case(batchnorm: bool):
    """(bundle, batches, per_layer): two hidden layers of width 256 in every
    encoder and decoder, a batch of 64 rows per view, and `per_layer`,
    which gives a byte count in batch x width arrays per hidden layer."""
    dims, batch, width = (32, 48), 64, 256
    bundle = build_bundle(list(dims), 32, (width, width), batchnorm, 0)
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=(batch, d)) for d in dims]
    hidden_layers = 2 * len(dims) * 2  # encoder and decoder of every view
    return bundle, xs, lambda nbytes: nbytes / (hidden_layers * batch * width * bundle.dtype.itemsize)


@pytest.mark.parametrize("batchnorm, bound", [(True, 2.5), (False, 1.5)], ids=["batchnorm", "relu"])
def test_a_recorded_forward_keeps_only_what_the_hidden_layers_backward_reads(batchnorm, bound):
    # until its walk, a hidden layer's backward rule holds its output and,
    # with batch norm, its centered linear output. Measured: 2.2 arrays
    # per layer with batch norm and 1.2 without; 4.5 and 2.5 with the
    # linear output, batch norm and ReLU as separate autodiff nodes, each
    # keeping its own
    bundle, xs, per_layer = _memory_case(batchnorm)
    tracemalloc.start()
    try:
        zs, x_hats, walk = recon_orth_walk(bundle, xs, 0.1)  # the walk holds l_ae's gradients, as in a step
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(t._rules for t in zs + x_hats)
    assert per_layer(held) <= bound


def test_recon_orth_backward_stays_within_its_memory_bound():
    # allocations of one loss plus its walk back, every gradient kept: the
    # parameters' gradients plus a fixed number of batch-sized arrays per
    # hidden layer. Measured: 1.7 such arrays with one autodiff node per
    # hidden layer keeping only what its backward reads, as the walk's
    # rules do; 2.8 with the linear output and batch norm as separate
    # nodes; 7.1 when backward kept each node's gradient and saved arrays
    # once used; 17.5 with the op-by-op graph.
    bundle, xs, per_layer = _memory_case(True)
    param_bytes = sum(p.nbytes for p in bundle.named_parameters().values())
    tracemalloc.start()
    try:
        grads = collected(recon_orth_walk(bundle, xs, 0.1)[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grads) == len(bundle.named_parameters())
    assert per_layer(peak - param_bytes) <= 2.25


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_parameters():
    p = np.array([1.0, -2.0])
    opt = Adam({"p": p}, lr=0.1)
    before = p.copy()
    opt.step(gradient_step((p, np.zeros(2))))
    opt.step(gradient_step((p, np.zeros(2))))
    assert np.array_equal(p, before)


def test_adam_single_scalar_hand_update():
    p = np.array([1.0])
    opt = Adam({"p": p}, lr=0.1)
    opt.step(gradient_step((p, np.array([0.5]))))
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p, [expected], atol=1e-15)


def test_adam_two_runs_bit_identical():
    def run():
        rng = np.random.default_rng(0)
        p = np.ones(3)
        opt = Adam({"p": p}, lr=0.01)
        for _ in range(5):
            opt.step(gradient_step((p, rng.normal(size=3))))
        return p

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    p = np.ones(2)
    with pytest.raises(NumericalError, match="for p"):
        Adam({"p": p}, lr=1e-3).step(gradient_step((p, np.array([1.0, np.nan]))))


_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _check_chunked_adam_matches_the_whole_array_update(size: int, dtype) -> None:
    rng = np.random.default_rng(size)
    params = {
        "flat": rng.normal(size=size).astype(dtype),
        "matrix": rng.normal(size=(size, 2)).astype(dtype),
        "zero": rng.normal(size=size).astype(dtype),
    }
    ref = {k: [p.copy(), np.zeros(p.shape, dtype), np.zeros(p.shape, dtype)] for k, p in params.items()}
    opt = Adam(params, lr=0.01)
    for t in (1, 2, 3):
        grads = {k: rng.normal(size=p.shape).astype(dtype) for k, p in params.items() if k != "zero"}
        grads["zero"] = np.zeros(params["zero"].shape, dtype)
        for k, p in params.items():
            pr, mr, vr = ref[k]
            whole_array_adam(pr, grads[k], mr, vr, t, 0.01)
        opt.step(gradient_step(*((params[k], g) for k, g in grads.items())))
        for k, p in params.items():
            pr, mr, vr = ref[k]
            assert np.array_equal(p, pr), k
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


@pytest.mark.parametrize("batchnorm", [True, False], ids=["batchnorm", "relu"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_fused_adam_step_matches_the_two_phase_step_bit_for_bit(monkeypatch, dtype, batchnorm):
    # the fused step updates each parameter inside the walk, as soon as
    # the walk has passed its layer; a full walk with every gradient kept,
    # followed by a whole-array update per parameter, must land on the
    # same bits. Each step walks every view's decoder and encoder
    monkeypatch.setattr(mlp, "DTYPE", dtype)
    fused, reference = (tiny_bundle(batchnorm=batchnorm, seed=5, hidden=(5, 4)) for _ in range(2))
    initial = {k: p.copy() for k, p in fused.named_parameters().items()}
    opt = Adam(fused.named_parameters(), lr=0.01)
    moments = {k: np.zeros_like(a) for k, a in opt.state_arrays().items()}
    rng = np.random.default_rng(6)
    for t in range(1, 5):
        xs = [rng.normal(size=(6, 3)), rng.normal(size=(6, 4))]
        walks = []
        for bundle in (fused, reference):
            walks.append(recon_orth_walk(bundle, xs, 0.5)[2])
        opt.step(walks[0])
        two_phase_adam_step(reference.named_parameters(), moments, t, 0.01, walks[1])
        for k, p in fused.named_parameters().items():
            assert np.array_equal(p, reference.named_parameters()[k]), (t, k)
        assert all(np.array_equal(a, moments[k]) for k, a in opt.state_arrays().items()), t
    assert opt.t == 4
    for k, p in fused.named_parameters().items():
        assert p.dtype == dtype
        assert not np.array_equal(p, initial[k]), k


@pytest.mark.parametrize("bad", ["a", "b"])
def test_adam_refuses_a_bad_gradient_before_its_parameter_moves(bad):
    # the update is fused into backward, so a parameter updated earlier in
    # the walk has moved; the one with the bad gradient, named in the
    # error, and its moments have not
    params = {"a": np.ones(3), "b": np.ones(2)}
    opt = Adam(params, lr=0.1)
    opt.step(gradient_step(*((p, np.full(p.shape, 0.5)) for p in params.values())))
    before = {k: p.copy() for k, p in params.items()}
    moments = {k: a.copy() for k, a in opt.state_arrays().items()}
    grads = {k: np.full(p.shape, 0.25) for k, p in params.items()}
    grads[bad][-1] = np.nan
    with pytest.raises(NumericalError, match=f"non-finite gradient for {bad}$"):
        opt.step(gradient_step(*((params[k], g) for k, g in grads.items())))
    assert np.array_equal(params[bad], before[bad])
    assert all(np.array_equal(opt.state_arrays()[f"{kind}/{bad}"], moments[f"{kind}/{bad}"]) for kind in "mv")


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    # a Fortran-ordered parameter's flat view would be a copy, so an update
    # written through it would be lost without a word
    params = {"a": np.ones(3), "w": np.asfortranarray(np.ones((2, 3)))}
    opt = Adam(params, lr=0.1)
    with pytest.raises(ShapeError, match="w is not C-contiguous"):
        opt.step(gradient_step(*((p, np.full(p.shape, 0.5)) for p in params.values())))
    assert opt.t == 0
    assert all(np.array_equal(p, np.ones(p.shape)) for p in params.values())
    assert not any(a.any() for a in opt.state_arrays().values())


def _stepped_adam(bundle):
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    z = bundle.encode(0, np.random.default_rng(4).normal(size=(5, 3)), train=True)
    opt.step(lambda update: z.backward(z.data.copy(), update))
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
    ck = load_checkpoint(path, into=_into(adam_arrays=fresh.state_arrays()))
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
    params_before = {k: p.copy() for k, p in target_bundle.named_parameters().items()}
    with pytest.raises(ShapeError, match="Adam moment"):
        load_checkpoint(
            path,
            into=_into(
                params=_param_arrays(target_bundle),
                stats=target_bundle.named_stats(),
                adam_arrays=target.state_arrays(),
            ),
        )
    assert target.t == 1
    assert all(np.array_equal(a, before[k]) for k, a in target.state_arrays().items())
    assert all(np.array_equal(p, params_before[k]) for k, p in target_bundle.named_parameters().items())


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_payload(bundle, opt):
    return dict(
        config_hash="abc123",
        epoch=7,
        adam_t=opt.t,
        params=dict(bundle.named_parameters()),
        stats=bundle.named_stats(),
        adam_arrays=opt.state_arrays(),
        warm_centroids={"common/2": np.ones((2, 2))},
    )


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    bundle = tiny_bundle(seed=3)
    opt = Adam(bundle.named_parameters(), lr=1e-3)
    x = np.random.default_rng(3).normal(size=(5, 3))
    z = bundle.encode(0, x, train=True)
    opt.step(lambda update: z.backward(z.data.copy(), update))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, **_checkpoint_payload(bundle, opt))
    ck = load_checkpoint(path, expect_config_hash="abc123")
    assert ck.epoch == 7 and ck.adam_t == 1
    for k, p in bundle.named_parameters().items():
        assert np.array_equal(ck.params[k], p)
    for k, s in bundle.named_stats().items():
        assert np.array_equal(ck.stats[k], s)
    assert np.array_equal(ck.warm_centroids["common/2"], np.ones((2, 2)))
    fresh = tiny_bundle(seed=99)
    destinations = _param_arrays(fresh)
    ck = load_checkpoint(path, into=_into(params=destinations, stats=fresh.named_stats()))
    assert ck.params is destinations and ck.stats is fresh.named_stats()
    for k, p in fresh.named_parameters().items():
        assert p is destinations[k]
        assert np.array_equal(p, bundle.named_parameters()[k])
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
    ],
    ids=["no_config_hash", "meta_not_an_object", "epoch_not_an_int"],
)
def test_malformed_checkpoint_is_refused(tmp_path, meta, entry):
    path = tmp_path / "ck.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **{entry: np.ones(2)})
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry", ["param/", "warm/", "param", "optim/m"])
@pytest.mark.parametrize("into", ["fresh_arrays", "destinations"])
def test_an_entry_of_no_known_kind_or_with_no_name_is_refused(tmp_path, entry, into):
    # names are opaque, so an empty one after the kind is the one malformed
    # name left; it is refused as an unknown kind is, in every load
    bundle = tiny_bundle()
    path = _model_checkpoint(tmp_path / "ck.npz", bundle)
    rewrite_entries(path, lambda arrays: arrays.update({entry: np.ones(2)}))
    destinations = {} if into == "fresh_arrays" else dict(params=_param_arrays(bundle), stats=bundle.named_stats())
    with pytest.raises(CheckpointError, match=f"unrecognized checkpoint entry '{entry}'"):
        load_checkpoint(path, into=_into(**destinations))


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
        load_checkpoint(path, into=_into(**destinations))


@pytest.mark.parametrize("into", ["fresh_arrays", "destinations"])
def test_checkpoint_with_a_flipped_data_byte_is_refused(tmp_path, into):
    bundle = tiny_bundle(seed=3)
    path = _model_checkpoint(tmp_path / "ck.npz", bundle)
    flip_a_data_byte(path, "param/v0.enc.lin0.weight")
    target = tiny_bundle(seed=4)
    destinations = {} if into == "fresh_arrays" else dict(params=_param_arrays(target), stats=target.named_stats())
    with pytest.raises(CheckpointError, match="unreadable checkpoint .* Bad CRC-32"):
        load_checkpoint(path, into=_into(**destinations))


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
    before = {k: p.copy() for k, p in target.named_parameters().items()}
    with pytest.raises(ShapeError, match="statistic name set mismatch"):
        load_checkpoint(path, into=_into(params=_param_arrays(target), stats=target.named_stats()))
    assert all(np.array_equal(p, before[k]) for k, p in target.named_parameters().items())


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
    before = {k: p.copy() for k, p in target.named_parameters().items()}
    kind, _, name = entry.partition("/")
    label = {"param": "parameter", "stat": "statistic", "adam": "Adam moment"}[kind]
    with pytest.raises(CheckpointError, match=f"dtype mismatch for {label} {name} .*: float64, not float32"):
        load_checkpoint(path, into=_into(
            params=_param_arrays(target), stats=target.named_stats(), adam_arrays=target_opt.state_arrays()
        ))
    assert all(np.array_equal(p, before[k]) for k, p in target.named_parameters().items())
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
        load_checkpoint(path, into=_into(**destinations))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _largest_entry(bundle) -> int:
    return max(p.nbytes for p in bundle.named_parameters().values())


def test_loading_into_a_bundle_holds_at_most_one_entry_at_a_time(tmp_path):
    saved = tiny_bundle(seed=3, **_WIDE)
    path = _model_checkpoint(tmp_path / "ck.npz", saved)
    bundle = tiny_bundle(seed=4, **_WIDE)
    model = sum(p.nbytes for p in bundle.named_parameters().values())
    assert model > 3 * (_largest_entry(bundle) + _SLACK)
    peak = _load_peak(path, params=_param_arrays(bundle), stats=bundle.named_stats())
    assert peak <= _largest_entry(bundle) + _SLACK
    assert all(np.array_equal(p, saved.named_parameters()[k]) for k, p in bundle.named_parameters().items())


def test_resuming_into_a_bundle_and_its_adam_holds_at_most_one_entry_at_a_time(tmp_path):
    saved = tiny_bundle(seed=3, **_WIDE)
    moments = {k: np.full_like(a, 0.5) for k, a in Adam(saved.named_parameters(), lr=1e-3).state_arrays().items()}
    path = _model_checkpoint(
        tmp_path / "ck.npz", saved, adam_arrays=moments, warm_centroids={"common/3": np.ones((3, 16))}
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
    # the full model's encoder half is the eval model's arrays, name for
    # name, and what it leaves out is exactly the decoders'
    full = tiny_bundle(batchnorm=batchnorm, hidden=(5, 6))
    enc = build_bundle([3, 4], 2, (5, 6), batchnorm, 0, encoders_only=True)
    assert enc.decoders == []
    assert {k: p.shape for k, p in enc.named_parameters().items()} == {
        k: p.shape for k, p in full.named_parameters().items() if ".enc." in k
    }
    assert {k: s.shape for k, s in enc.named_stats().items()} == {
        k: s.shape for k, s in full.named_stats().items() if ".enc." in k
    }
    for kept, own, every in zip(full.model_arrays(encoders_only=True), enc.model_arrays(), full.model_arrays()):
        assert kept.keys() == own.keys()
        assert all(kept[k] is every[k] for k in kept)
        assert set(every) - set(kept) == {k for k in every if ".dec." in k}
    params, stats = full.model_arrays()
    assert all(params[k] is p for k, p in full.named_parameters().items())
    assert stats == full.named_stats()


@pytest.mark.parametrize("edit", ["missing", "wrong_shape", "nan"])
def test_an_encoders_only_load_checks_every_entry(tmp_path, edit):
    saved = tiny_bundle(seed=3)
    params, stats = saved.model_arrays(encoders_only=True)
    stats = dict(stats)
    if edit == "missing":
        del stats["v1.enc.bn0.running_var"]
    elif edit == "wrong_shape":
        stats["v1.enc.bn0.running_var"] = np.ones(7, np.float32)
    path = _model_checkpoint(tmp_path / "ck.npz", saved, params=params, stats=stats)
    if edit == "nan":
        set_first_value(path, "stat/v1.enc.bn0.running_var", np.nan)
    bundle = build_bundle([3, 4], 2, (5,), True, 0, encoders_only=True)
    before = {k: p.copy() for k, p in bundle.named_parameters().items()}
    expected = {
        "missing": (ShapeError, "statistic name set mismatch"),
        "wrong_shape": (ShapeError, "shape mismatch for statistic v1.enc.bn0.running_var"),
        "nan": (CheckpointError, "non-finite values in checkpoint entry 'stat/v1.enc.bn0.running_var'"),
    }[edit]
    params, stats = bundle.model_arrays()
    with pytest.raises(expected[0], match=expected[1]):
        load_checkpoint(path, into=_into(params=params, stats=stats))
    if edit != "nan":  # refused from the member headers, before any entry data is read
        assert all(np.array_equal(p, before[k], equal_nan=True) for k, p in bundle.named_parameters().items())
