"""Autoencoder bundle, batch-norm behavior, optimizer, checkpoint round-trips."""

import numpy as np
import pytest

from oracles import finite_difference_gradients, max_relative_gradient_error
from umclust.errors import CheckpointError, NumericalError, ShapeError
from umclust.nn import (
    Adam,
    AutoencoderBundle,
    MlpSpec,
    Tensor,
    build_bundle,
    load_checkpoint,
    save_checkpoint,
)


def tiny_bundle(batchnorm=True, seed=0, dims=(3, 4), hidden=(5,), latent=2):
    return build_bundle(list(dims), latent, hidden, batchnorm, seed)


def test_mirrored_spec():
    spec = MlpSpec(input_dim=7, hidden_dims=(5, 3), output_dim=2)
    mirror = spec.mirrored()
    assert mirror.input_dim == 2 and mirror.output_dim == 7 and mirror.hidden_dims == (3, 5)


def test_spec_rejects_bad_dims():
    with pytest.raises(ShapeError):
        MlpSpec(input_dim=0, hidden_dims=(4,), output_dim=2)


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
    bundle = AutoencoderBundle([MlpSpec(2, (2,), 2, batchnorm=False)], seed=0)
    enc = bundle.views[0].encoder
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
    enc = bundle.views[0].encoder
    h = Tensor(x)
    h = enc.linears[0](h)
    h = enc.norms[0](h, True)
    h = h.relu()
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


def test_batchnorm_eval_is_affine():
    bundle = tiny_bundle(seed=5)
    rng = np.random.default_rng(5)
    # drive running stats away from the init
    for _ in range(3):
        bundle.encode(0, rng.normal(size=(16, 3)), train=True)
    x1 = rng.normal(size=(4, 3))
    x2 = rng.normal(size=(4, 3))
    lam = 0.3
    f = lambda x: bundle.encode(0, x, train=False).data
    # eval-mode output of the first (linear+BN) block is affine in the input;
    # the full encoder is not (ReLU), so check the affine layer directly
    enc = bundle.views[0].encoder
    block = lambda x: enc.norms[0](enc.linears[0](Tensor(x)), False).data
    lhs = block(lam * x1 + (1 - lam) * x2)
    rhs = lam * block(x1) + (1 - lam) * block(x2)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # and per-row: no batch coupling
    single = np.vstack([block(x1[i : i + 1]) for i in range(4)])
    assert np.allclose(single, block(x1), atol=1e-12)


def test_batchnorm_batch_of_one_uses_variance_floor():
    bundle = tiny_bundle(seed=2)
    x = np.random.default_rng(2).normal(size=(1, 3))
    z = bundle.encode(0, x, train=True)  # would divide by zero without the floor
    assert np.isfinite(z.data).all()


def test_batchnorm_running_stats_update_only_in_train():
    bundle = tiny_bundle(seed=4)
    bn = bundle.views[0].encoder.norms[0]
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
    bundle = tiny_bundle(batchnorm=False)
    bundle.views[0].encoder.linears[0].weight.data[...] = np.inf
    with pytest.raises(NumericalError, match="layer 0"):
        bundle.encode(0, np.ones((2, 3)), train=False)


def test_backward_matches_finite_differences_through_batchnorm():
    bundle = tiny_bundle(seed=9)
    x = np.random.default_rng(9).normal(size=(6, 3))

    def loss_value():
        z = bundle.encode(0, x, train=True)
        xh = bundle.decode(0, z, train=True)
        return ((Tensor(x) - xh).square().sum() + z.square().sum()).item()

    params = {k: v for k, v in bundle.named_parameters().items() if k.startswith("v0")}
    # batchnorm running stats drift per forward call; freeze them for the check
    for ae in bundle.views:
        for norm in ae.encoder.norms + ae.decoder.norms:
            if norm is not None:
                norm.momentum = 1.0
    bundle.zero_grad()
    z = bundle.encode(0, x, train=True)
    xh = bundle.decode(0, z, train=True)
    ((Tensor(x) - xh).square().sum() + z.square().sum()).backward()
    analytic = {k: p.grad if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()}
    numeric = finite_difference_gradients(params, loss_value)
    assert max_relative_gradient_error(analytic, numeric) < 1e-4


def test_named_maps_are_built_once_and_hold_live_stats():
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
    hidden = bundle.views[0].encoder.linears[0](Tensor(x)).data
    bundle.encode(0, x, train=True)
    assert np.allclose(stats["v0.enc.bn0.running_mean"], 0.1 * hidden.mean(axis=0), rtol=0, atol=1e-15)
    assert bundle.named_stats()["v0.enc.bn0.running_mean"] is bundle.views[0].encoder.norms[0].running_mean


@pytest.mark.parametrize("edit", ["missing", "shape"])
def test_load_arrays_refuses_mismatched_stats_and_writes_nothing(edit):
    source = tiny_bundle(seed=7)
    params = {k: p.data.copy() for k, p in source.named_parameters().items()}
    stats = {k: s.copy() for k, s in source.named_stats().items()}
    if edit == "missing":
        del stats["v1.dec.bn0.running_var"]
    else:
        stats["v0.enc.bn0.running_mean"] = np.zeros(6)
    target = tiny_bundle(seed=8)
    before = {k: p.data.copy() for k, p in target.named_parameters().items()}
    with pytest.raises(ShapeError, match="statistic"):
        target.load_arrays(params, stats)
    assert all(np.array_equal(p.data, before[k]) for k, p in target.named_parameters().items())


def test_gradient_off_path_is_zero():
    bundle = tiny_bundle()
    x = np.random.default_rng(1).normal(size=(4, 3))
    bundle.zero_grad()
    z = bundle.encode(0, x, train=True)
    z.sum().backward()
    grads = bundle.gradients()
    assert all(np.all(grads[k] == 0) for k in grads if k.startswith("v0.dec") or k.startswith("v1"))
    assert any(np.any(grads[k] != 0) for k in grads if k.startswith("v0.enc"))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam(lr=0.1)
    before = p.data.copy()
    opt.step({"p": p}, {"p": np.zeros(2)})
    assert np.array_equal(p.data, before)


def test_adam_single_scalar_hand_update():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam(lr=0.1)
    g = np.array([0.5])
    opt.step({"p": p}, {"p": g})
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, [expected], atol=1e-15)


def test_adam_two_runs_bit_identical():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam(lr=0.01)
        for _ in range(5):
            opt.step({"p": p}, {"p": rng.normal(size=3)})
        return p.data

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    p = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(NumericalError):
        Adam(lr=1e-3).step({"p": p}, {"p": np.array([1.0, np.nan])})


def _stepped_adam(bundle):
    opt = Adam(lr=1e-3)
    bundle.zero_grad()
    bundle.encode(0, np.random.default_rng(4).normal(size=(5, 3)), train=True).square().sum().backward()
    opt.step(bundle.named_parameters(), bundle.gradients())
    return opt


def test_adam_load_state_restores_saved_moments():
    bundle = tiny_bundle(seed=3)
    saved = _stepped_adam(bundle)
    opt = Adam(lr=1e-3)
    opt.load_state(saved.t, saved.state_arrays(), bundle.named_parameters())
    assert opt.t == 1
    assert opt.state_arrays().keys() == saved.state_arrays().keys()
    assert all(np.array_equal(a, saved.state_arrays()[k]) for k, a in opt.state_arrays().items())
    fresh = Adam(lr=1e-3)
    fresh.load_state(0, {}, bundle.named_parameters())
    assert fresh.t == 0 and fresh.state_arrays() == {}


@pytest.mark.parametrize("edit", ["extra_axis", "missing", "stray", "before_first_step"])
def test_adam_load_state_refuses_mismatched_moments_and_changes_nothing(edit):
    bundle = tiny_bundle(seed=3)
    source = _stepped_adam(bundle)
    arrays = {k: a.copy() for k, a in source.state_arrays().items()}
    t = source.t
    if edit == "extra_axis":
        arrays["m/v0.enc.lin0.weight"] = arrays["m/v0.enc.lin0.weight"][None]
    elif edit == "missing":
        del arrays["v/v1.dec.lin0.bias"]
    elif edit == "stray":
        arrays["x/v0.enc.lin0.weight"] = arrays["m/v0.enc.lin0.weight"]
    else:
        t = 0
    target = _stepped_adam(tiny_bundle(seed=5))
    before = {k: a.copy() for k, a in target.state_arrays().items()}
    with pytest.raises(ShapeError, match="Adam moment"):
        target.load_state(t, arrays, bundle.named_parameters())
    assert target.t == 1
    assert all(np.array_equal(a, before[k]) for k, a in target.state_arrays().items())


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
    opt = Adam(lr=1e-3)
    x = np.random.default_rng(3).normal(size=(5, 3))
    bundle.zero_grad()
    bundle.encode(0, x, train=True).square().sum().backward()
    opt.step(bundle.named_parameters(), bundle.gradients())
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
    fresh.load_arrays(ck.params, ck.stats)
    for k, p in fresh.named_parameters().items():
        assert np.array_equal(p.data, bundle.named_parameters()[k].data)


def test_checkpoint_hash_mismatch_refused(tmp_path):
    bundle = tiny_bundle()
    opt = Adam(lr=1e-3)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, **_checkpoint_payload(bundle, opt))
    with pytest.raises(CheckpointError, match="different configuration"):
        load_checkpoint(path, expect_config_hash="zzz")


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    bundle = tiny_bundle()
    opt = Adam(lr=1e-3)
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
    save_checkpoint(path, **_checkpoint_payload(tiny_bundle(), Adam(lr=1e-3)))
    raw = path.read_bytes()
    path.write_bytes(raw[: int(len(raw) * keep)])
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(path)
