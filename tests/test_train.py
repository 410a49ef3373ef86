"""Schedule, refresh, guidance in every epoch, determinism, resume, ablation.

The guidance term is no longer gated on per-view silhouettes: the gate
kept it at 0 for whole runs, so it was removed.
"""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from damage import flip_a_data_byte, rewrite_entries
from oracles import finite_difference_gradients, max_relative_gradient_error
from umclust.cluster import kmeans
from umclust.data import MultiViewDataset, SyntheticSpec, ViewData, scale_dataset, synthesize, view_batches
from umclust.errors import CheckpointError, DataError, NumericalError, ShapeError
from umclust import losses
from umclust.losses import LossWeights, recon_orth_loss
from umclust.metrics import nmi
from umclust import train as train_module
from umclust.nn import Adam, Tensor, build_bundle, load_checkpoint
from umclust.nn.mlp import Linear
from umclust.train import (
    ClusterSet,
    TrainConfig,
    refresh_level_state,
    run_hash,
    step_objective,
    train,
    walk_back,
)


def small_dataset(seed=0, clusters=3, views=2, spc=20, separation=8.0):
    spec = SyntheticSpec(
        clusters=clusters, views=views, dims=(6, 7)[:views] or (6,),
        samples_per_cluster=spc, separation=separation, noise_std=1.0, seed=seed,
    )
    return synthesize(spec)


def small_config(**overrides):
    base = dict(
        epochs=8,
        batch_size=32,
        latent_dim=8,
        hidden_dims=(16,),
        batchnorm=True,
        learning_rate=1e-3,
        weights=LossWeights(lambda1=1.0, lambda2=0.01, lambda3=0.01, lambda4=10.0),
        seed=1,
        final_restarts=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# schedule


FOUR_LEVELS = ClusterSet((2, 3, 4, 5))


def test_schedule_quarter_boundaries_epochs_4():
    assert [FOUR_LEVELS.active(t, 4) for t in range(1, 5)] == [(2,), (2, 3), (2, 3, 4, 5), (2, 3, 4, 5)]


def test_schedule_quarter_boundaries_epochs_8():
    lengths = [len(FOUR_LEVELS.active(t, 8)) for t in range(1, 9)]
    assert lengths == [1, 1, 2, 2, 4, 4, 4, 4]


def test_schedule_quarter_boundaries_epochs_200():
    active = [FOUR_LEVELS.active(t, 200) for t in range(1, 201)]
    assert active[:50] == [(2,)] * 50
    assert active[50:100] == [(2, 3)] * 50
    assert active[100:] == [(2, 3, 4, 5)] * 100


def test_config_validation():
    with pytest.raises(Exception):
        small_config(epochs=3)
    with pytest.raises(Exception):
        small_config(batch_size=0)


# ---------------------------------------------------------------------------
# refresh


def test_refresh_holds_one_active_level_plus_final():
    ds = small_dataset()
    cfg = small_config()
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    cs = ClusterSet.default(ds.n_clusters)  # (2, 3)
    state, latents = refresh_level_state(bundle, ds.feature_matrices(), cs, active=(2,), config=cfg, warm={})
    assert state.active == (2,) and state.final == 3
    assert sorted(state.view_labels) == [2, 3]  # final level always present
    assert sorted(state.common_labels) == [2, 3]
    assert len(latents) == ds.n_views
    for level, groups in state.view_labels.items():
        assert len(groups) == len(state.common_labels[level]) == ds.n_views
        for v, (labels, common) in enumerate(zip(groups, state.common_labels[level])):
            assert labels.shape == common.shape == (ds.views[v].n,)
            # the common labels relabel each view's clusters one-to-one
            pairs = np.unique(np.stack([labels, common]), axis=1)
            assert pairs.shape[1] == level
            assert sorted(pairs[0]) == sorted(pairs[1]) == list(range(level))


def test_refresh_deterministic():
    ds = small_dataset()
    cfg = small_config()
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    cs = ClusterSet.default(ds.n_clusters)
    s1, _ = refresh_level_state(bundle, ds.feature_matrices(), cs, (2, 3), cfg, {})
    s2, _ = refresh_level_state(bundle, ds.feature_matrices(), cs, (2, 3), cfg, {})
    assert np.array_equal(s1.final_centroids, s2.final_centroids)
    for level in s1.common_labels:
        for maps in ("view_labels", "common_labels"):
            for a, b in zip(getattr(s1, maps)[level], getattr(s2, maps)[level], strict=True):
                assert np.array_equal(a, b)


def test_refresh_holds_no_n_by_n_array():
    # two views of 1,600 rows: one n x n float64 array would be 19.5 MiB
    ds = small_dataset(clusters=4, spc=400)
    n = ds.views[0].n
    cfg = small_config()
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    cs = ClusterSet.default(ds.n_clusters)
    warm = {}
    refresh_level_state(bundle, ds.feature_matrices(), cs, cs.levels, cfg, warm)
    tracemalloc.start()
    try:
        refresh_level_state(bundle, ds.feature_matrices(), cs, cs.levels, cfg, warm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8 / 4


# ---------------------------------------------------------------------------
# dtype


class _NumpySpy:
    """numpy as seen from a module it replaces: every call runs as usual,
    and each floating array it returns or writes through `out=` is logged."""

    def __init__(self, seen: list):
        self._seen = seen

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            for array in (result, kwargs.get("out")):
                if isinstance(array, np.ndarray) and array.dtype.kind == "f":
                    self._seen.append((name, array.shape, array.dtype))
            return result

        return call


def test_one_float32_step_holds_every_model_array_in_float32(monkeypatch):
    # one training step as `train` takes it: no loss constant may promote
    # a node, a gradient or an array the losses make to float64, while
    # what the refresh clusters stays float64
    ds = small_dataset()
    cfg = small_config()
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    assert bundle.dtype == np.float32
    features = [m.astype(np.float32) for m in ds.feature_matrices()]
    cs = ClusterSet.default(ds.n_clusters)
    state, latents = refresh_level_state(bundle, features, cs, cs.levels, cfg, {})
    assert all(z.dtype == np.float64 for z in latents) and state.final_centroids.dtype == np.float64

    walked, handed, arrays = [], [], []
    backward = Tensor.backward

    def record_walk(self, grad, update, input_grad=False):
        def record_update(p, g):
            handed.append(g.dtype)
            update(p, g)

        walked.append((self.data.dtype, grad.dtype))
        grad_in = backward(self, grad, record_update, input_grad)
        walked.append(None if grad_in is None else grad_in.dtype)
        return grad_in

    monkeypatch.setattr(Tensor, "backward", record_walk)
    monkeypatch.setattr(losses, "np", _NumpySpy(arrays))
    batch = [np.arange(cfg.batch_size) for _ in ds.views]
    terms, walk = step_objective(bundle, features, batch, state, cfg.weights)
    assert all(t.dtype == np.float32 for t in terms)
    assert arrays and [a for a in arrays if a[2] != np.float32] == []
    opt = Adam(bundle.named_parameters(), cfg.learning_rate)
    opt.step(walk)
    f32 = np.dtype(np.float32)
    assert walked and set(walked) == {(f32, f32), f32, None}
    assert len(handed) == len(bundle.named_parameters()) and set(handed) == {f32}
    assert all(p.dtype == np.float32 for p in bundle.named_parameters().values())
    assert all(a.dtype == np.float32 for a in opt.state_arrays().values())
    assert all(z.dtype == np.float64 for z in bundle.encode_all(features, train=False))


def test_train_rejects_view_smaller_than_top_level():
    ds = MultiViewDataset(
        name="tiny", n_clusters=3,
        views=[
            ViewData(0, np.arange(2), np.random.default_rng(0).normal(size=(2, 4)), np.array([0, 1])),
            ViewData(1, np.arange(2, 12), np.random.default_rng(1).normal(size=(10, 4)),
                     np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])),
        ],
    )
    with pytest.raises(DataError, match="fewer than the top level"):
        train(small_config(), ds)


# ---------------------------------------------------------------------------
# training runs


def test_last_phase_activates_every_one_of_four_levels():
    ds = small_dataset(clusters=5, spc=10)
    artifacts = train(small_config(epochs=4, cluster_levels=(2, 3, 4, 5)), ds)
    assert artifacts.level_trace == [(2,), (2, 3), (2, 3, 4, 5), (2, 3, 4, 5)]


def test_train_records_schedule_and_guidance_in_every_epoch(tmp_path):
    ds = small_dataset()
    artifacts = train(small_config(), ds, out_dir=tmp_path)
    assert [len(a) for a in artifacts.level_trace] == [1, 1, 2, 2, 2, 2, 2, 2]  # K=3 has 2 levels
    assert artifacts.loss_table.shape == (8, 6)
    assert (artifacts.loss_table[:, 4] > 0).all()  # l_cr guides from epoch 1
    header = (tmp_path / "loss_curve.csv").read_text().splitlines()[0]
    assert header == "epoch,l_ae,l_in,l_co,l_cr,total"
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "embeddings.csv").exists()
    assert (tmp_path / "checkpoint.npz").exists()
    n_rows = (tmp_path / "embeddings.csv").read_text().strip().count("\n") + 1
    assert n_rows == ds.total_samples
    assert artifacts.final_assignment.labels.shape[0] == ds.total_samples


def test_train_deterministic_artifacts():
    ds = small_dataset()
    a1 = train(small_config(), ds)
    a2 = train(small_config(), ds)
    assert np.array_equal(a1.loss_table, a2.loss_table)
    assert np.array_equal(a1.final_assignment.labels, a2.final_assignment.labels)
    assert a1.report.to_json().replace(a1.report.to_json().split('"runtime_seconds": ')[1].split(",")[0], "X") == \
           a2.report.to_json().replace(a2.report.to_json().split('"runtime_seconds": ')[1].split(",")[0], "X")


def test_ablated_run_equals_plain_autoencoder(tmp_path):
    # view 1 keeps every other row: 45 rows make two batches a pass, view 0's
    # 90 make three, so view 1 serves its third batch from a second pass
    full = small_dataset(spc=30)
    short = full.views[1]
    keep = np.arange(0, short.n, 2)
    ds = MultiViewDataset(
        name=full.name, n_clusters=full.n_clusters,
        views=[full.views[0], ViewData(short.view_id, short.ids[keep], short.features[keep], short.labels[keep])],
    )
    cfg = small_config(weights=LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0, lambda4=0.0), epochs=4)
    artifacts = train(cfg, ds, out_dir=tmp_path)
    # total column equals the reconstruction column when all weights vanish
    assert np.allclose(artifacts.loss_table[:, 5], artifacts.loss_table[:, 1], atol=1e-12)

    # replicate the optimization manually: reconstruction-only steps
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, cfg.batchnorm, cfg.seed)
    opt = Adam(bundle.named_parameters(), cfg.learning_rate)
    feats = ds.feature_matrices()
    for epoch in range(1, cfg.epochs + 1):
        streams = [view_batches(cfg.seed + 1, cfg.batch_size, epoch, v, ds.views[v].n) for v in range(ds.n_views)]
        for _ in range(3):
            xb = [feats[v][next(streams[v])] for v in range(ds.n_views)]
            zs = [bundle.encode(v, x, train=True) for v, x in enumerate(xb)]
            x_hats = [bundle.decode(v, z.data, train=True) for v, z in enumerate(zs)]
            _, ae_grads = recon_orth_loss(xb, [x.data for x in x_hats], [z.data for z in zs], 0.0)
            opt.step(functools.partial(walk_back, zs, x_hats, ae_grads, []))
    # the trainer run must land on numerically identical parameters; its
    # finished checkpoint holds the encoders, which every decoder step moved
    params, _ = bundle.model_arrays(encoders_only=True)
    with np.load(tmp_path / "checkpoint.npz", allow_pickle=False) as ck:
        assert {k for k in ck.files if k.startswith("param/")} == {f"param/{name}" for name in params}
        for name, p in params.items():
            assert np.array_equal(ck[f"param/{name}"], p), name


def _spy_on_gradients(monkeypatch):
    """Weak references to every parameter gradient the training steps
    hand to Adam, and a list that gets each bundle `train` builds."""
    built, handed = [], []
    real_build, real_walk = train_module.build_bundle, train_module.walk_back

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def walk(*args):
        *walk_args, update = args

        def spy(p, g):
            handed.append((weakref.ref(g), g.nbytes))
            update(p, g)

        real_walk(*walk_args, spy)

    monkeypatch.setattr(train_module, "build_bundle", build)
    monkeypatch.setattr(train_module, "walk_back", walk)
    return built, handed


def _alive_bytes(handed) -> int:
    return sum(nbytes for ref, nbytes in handed if ref() is not None)


def test_no_parameter_gradient_outlives_its_step(tmp_path, monkeypatch):
    # every refresh, the final scoring and the checkpoint write run with no
    # gradient alive, and none is left when train() returns
    built, handed = _spy_on_gradients(monkeypatch)
    seen = []

    def alive_then(name, fn):
        def wrapped(*args, **kwargs):
            seen.append((name, _alive_bytes(handed)))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("refresh_level_state", "evaluate", "save_checkpoint"):
        monkeypatch.setattr(train_module, name, alive_then(name, getattr(train_module, name)))
    train(small_config(epochs=4), small_dataset(), out_dir=tmp_path)
    assert [name for name, _ in seen] == ["refresh_level_state"] * 4 + ["evaluate", "save_checkpoint"]
    assert handed and all(alive == 0 for _, alive in seen), seen
    assert _alive_bytes(handed) == 0


@pytest.mark.parametrize("batchnorm", [True, False], ids=["batchnorm", "relu"])
def test_one_step_hands_update_the_finite_difference_gradient_of_the_total_loss(float64_model, batchnorm):
    # one float64 step of three views at nonzero weights, as `train` takes
    # it: the walk hands every parameter its gradient exactly once, and
    # each is that of central differences of the total loss. Biases start
    # off zero, so no latent row is exactly zero, where ReLU and the row
    # normalization have kinks
    spec = SyntheticSpec(clusters=3, views=3, dims=(4, 5, 3), samples_per_cluster=4, separation=8.0, noise_std=1.0)
    ds = scale_dataset(synthesize(spec), "minmax")
    weights = LossWeights(lambda1=0.7, lambda2=0.3, lambda3=0.2, lambda4=0.5)
    cfg = small_config(latent_dim=3, hidden_dims=(4,), batchnorm=batchnorm, weights=weights)
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, batchnorm, cfg.seed)
    assert bundle.dtype == np.float64
    rng = np.random.default_rng(3)
    for name, p in bundle.named_parameters().items():
        if name.endswith(("bias", "beta")):
            p[...] = rng.normal(scale=0.1, size=p.shape)
    features = ds.feature_matrices()
    cs = ClusterSet.default(ds.n_clusters)
    state, _ = refresh_level_state(bundle, features, cs, cs.levels, cfg, {})
    batch = [np.arange(0, v.n, 2) for v in ds.views]

    def objective():
        return step_objective(bundle, features, batch, state, weights)

    terms, walk = objective()
    assert all(t != 0 for t in terms)
    params = bundle.named_parameters()
    grads = {}

    def update(p, g):
        assert id(p) not in grads
        grads[id(p)] = g

    walk(update)
    assert set(grads) == {id(p) for p in params.values()}
    numeric = finite_difference_gradients(params, lambda: float(objective()[0][-1]))
    analytic = {name: grads[id(p)] for name, p in params.items()}
    assert max_relative_gradient_error(analytic, numeric) < 1e-5


def test_a_training_step_holds_the_parameter_gradients_of_one_node_at_a_time(monkeypatch):
    # the walk hands each parameter's gradient to Adam and frees it once
    # applied, so the parameter gradients alive at any update never
    # outweigh the parameters of the largest layer (weight, bias, and a
    # hidden layer's gamma and beta), let alone the whole model, and none
    # is alive while the next layer's rule computes
    built, handed = _spy_on_gradients(monkeypatch)
    alive, between = [], []
    update, linear_backward = Adam._update, Linear.backward

    def record(self, *args):
        alive.append(_alive_bytes(handed))
        update(self, *args)

    def record_rule(self, *args):
        between.append(_alive_bytes(handed))
        return linear_backward(self, *args)

    monkeypatch.setattr(Adam, "_update", record)
    monkeypatch.setattr(Linear, "backward", record_rule)
    train(small_config(epochs=4, hidden_dims=(16, 16)), small_dataset())
    assert between and max(between) == 0
    bundle = built[0]
    largest = max(
        sum(p.nbytes for p in (lin.weight, lin.bias, *((norm.gamma, norm.beta) if norm else ())))
        for net in bundle.encoders + bundle.decoders
        for lin, norm in zip(net.linears, net.norms)
    )
    assert 0 < max(alive) <= largest
    assert largest < sum(p.nbytes for p in bundle.named_parameters().values()) / 4


def _assert_resume_bit_identical(tmp_path, ds, cfg, stop: int) -> None:
    """A run stopped after epoch `stop` and resumed ends exactly as the straight run."""
    straight = train(cfg, ds, out_dir=tmp_path / "straight")
    train(cfg, ds, out_dir=tmp_path / "partial", stop_after_epoch=stop)
    resumed = train(cfg, ds, out_dir=tmp_path / "resumed", resume=tmp_path / "partial" / "checkpoint.npz")
    with np.load(tmp_path / "straight" / "checkpoint.npz", allow_pickle=False) as s, \
            np.load(tmp_path / "resumed" / "checkpoint.npz", allow_pickle=False) as r:
        assert sorted(s.files) == sorted(r.files)
        for key in s.files:
            if key == "__meta__":
                continue
            assert np.array_equal(s[key], r[key]), key
    assert np.array_equal(straight.final_assignment.labels, resumed.final_assignment.labels)
    assert np.array_equal(straight.loss_table[stop:], resumed.loss_table)


def test_checkpoint_resume_bit_identical(tmp_path):
    _assert_resume_bit_identical(tmp_path, small_dataset(), small_config(), stop=4)


@pytest.mark.parametrize("stop", [0, 2, 4, 7])
def test_checkpoint_resume_bit_identical_on_three_levels(tmp_path, stop):
    # of 8 epochs on levels (2, 3, 4): a stop at 0 has refreshed nothing,
    # and one at 2 resumes into epoch 3, whose level 3 starts cold
    _assert_resume_bit_identical(tmp_path, small_dataset(clusters=4), small_config(cluster_levels=(2, 3, 4)), stop)


def test_a_resumed_run_stopped_again_saves_the_straight_runs_checkpoint_byte_for_byte(tmp_path):
    # stopped at 2 and again at 6 of 8 on levels (2, 3, 4): level 3 joins the
    # warm centroids in epoch 3, after levels 2 and 4, in both runs
    ds = small_dataset(clusters=4)
    cfg = small_config(cluster_levels=(2, 3, 4))
    train(cfg, ds, out_dir=tmp_path / "straight", stop_after_epoch=6)
    train(cfg, ds, out_dir=tmp_path / "first", stop_after_epoch=2)
    train(cfg, ds, out_dir=tmp_path / "again", stop_after_epoch=6, resume=tmp_path / "first" / "checkpoint.npz")
    straight = (tmp_path / "straight" / "checkpoint.npz").read_bytes()
    assert (tmp_path / "again" / "checkpoint.npz").read_bytes() == straight


def _checkpoint_names(path):
    with np.load(path, allow_pickle=False) as npz:
        return set(npz.files)


def test_only_an_unfinished_run_saves_optimizer_state(tmp_path):
    # a finished run saves the eval model's arrays, by its names; one that
    # stopped early keeps the whole model, decoders too, to resume from
    ds = small_dataset()
    cfg = small_config()
    train(cfg, ds, out_dir=tmp_path / "straight")
    train(cfg, ds, out_dir=tmp_path / "partial", stop_after_epoch=4)
    finished = _checkpoint_names(tmp_path / "straight" / "checkpoint.npz")
    partial = _checkpoint_names(tmp_path / "partial" / "checkpoint.npz")
    assert {key.partition("/")[0] for key in finished} == {"__meta__", "param", "stat"}
    assert {key.partition("/")[0] for key in partial} == {"__meta__", "param", "stat", "adam", "warm"}
    params, stats = build_bundle(
        ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, cfg.batchnorm, cfg.seed, encoders_only=True
    ).model_arrays()
    assert finished == {"__meta__", *(f"param/{k}" for k in params), *(f"stat/{k}" for k in stats)}
    full = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, cfg.batchnorm, cfg.seed)
    decoders = {f"param/{k}" for k in full.named_parameters() if ".dec." in k}
    decoders |= {f"stat/{k}" for k in full.named_stats() if ".dec." in k}
    assert decoders and decoders <= partial
    # epoch 4 of 8 refreshed both levels, (2, 3), in each view, named by its position as the parameters are
    assert {k for k in partial if k.startswith("warm/")} == {f"warm/v{v}/{k}" for v in (0, 1) for k in (2, 3)}


def test_finished_checkpoint_is_about_the_size_of_the_model(tmp_path):
    # the encoders alone: the decoders, or Adam's two moments, would each
    # add about as many bytes again
    ds = small_dataset()
    cfg = small_config(epochs=4, hidden_dims=(64,), latent_dim=16)
    train(cfg, ds, out_dir=tmp_path)
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, cfg.batchnorm, cfg.seed)
    params, stats = bundle.model_arrays(encoders_only=True)
    encoder_bytes = sum(a.nbytes for a in [*params.values(), *stats.values()])
    assert (tmp_path / "checkpoint.npz").stat().st_size <= encoder_bytes + 16 * 1024


def test_resuming_a_finished_run_trains_nothing_and_saves_the_same_model(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    straight = train(cfg, ds, out_dir=tmp_path / "straight")
    finished = tmp_path / "straight" / "checkpoint.npz"
    for name, stop in (("resumed", None), ("resumed_early_stop", 4)):
        resumed = train(cfg, ds, out_dir=tmp_path / name, resume=finished, stop_after_epoch=stop)
        assert resumed.loss_table.shape[0] == 0
        assert np.array_equal(straight.final_assignment.labels, resumed.final_assignment.labels)
        s, r = load_checkpoint(finished), load_checkpoint(tmp_path / name / "checkpoint.npz")
        assert (r.epoch, r.adam_t) == (s.epoch, s.adam_t) == (cfg.epochs, cfg.epochs * 2)  # 60 rows, batches of 32
        assert r.adam_arrays == {} and r.warm_centroids == {}
        for kind in ("params", "stats"):
            saved, again = getattr(s, kind), getattr(r, kind)
            assert saved.keys() == again.keys()
            assert all(np.array_equal(saved[k], again[k]) for k in saved), kind


def test_resume_refuses_a_partial_checkpoint_without_its_moments(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    train(cfg, ds, out_dir=tmp_path, stop_after_epoch=4)
    path = tmp_path / "checkpoint.npz"
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files if not k.startswith("adam/")}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ShapeError, match="Adam moment name set mismatch"):
        train(cfg, ds, resume=path)


@pytest.mark.parametrize(
    "edit, error, message",
    [
        ("missing", ShapeError, "warm centroid name set mismatch"),
        ("extra", ShapeError, "warm centroid name set mismatch"),
        ("shape", ShapeError, "shape mismatch for warm centroid v0/2$"),
        ("dtype", CheckpointError, "dtype mismatch for warm centroid v1/2 .*: float32, not float64"),
    ],
    ids=["missing", "extra", "shape", "dtype"],
)
def test_resume_refuses_a_missing_extra_or_misshaped_warm_centroid(tmp_path, no_entry_data_read, edit, error, message):
    # epoch 2 of 8 on levels (2, 3, 4) refreshed each view at levels 2 and 4
    ds = small_dataset(clusters=4)
    cfg = small_config(cluster_levels=(2, 3, 4))
    train(cfg, ds, out_dir=tmp_path, stop_after_epoch=2)
    path = tmp_path / "checkpoint.npz"

    def damage(arrays):
        if edit == "missing":
            del arrays["warm/v1/4"]
        elif edit == "extra":  # level 3 is not active before epoch 3
            arrays["warm/v0/3"] = arrays["warm/v0/4"][:3]
        elif edit == "shape":
            arrays["warm/v0/2"] = arrays["warm/v0/2"][:, :-1]
        else:
            arrays["warm/v1/2"] = arrays["warm/v1/2"].astype(np.float32)

    rewrite_entries(path, damage)
    no_entry_data_read()
    with pytest.raises(error, match=message):
        train(cfg, ds, resume=path)


def test_resume_with_altered_config_refused(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    train(cfg, ds, out_dir=tmp_path, stop_after_epoch=4)
    altered = small_config(learning_rate=5e-3)
    with pytest.raises(CheckpointError, match="different configuration"):
        train(altered, ds, resume=tmp_path / "checkpoint.npz")


def test_resume_refuses_an_adam_moment_with_an_extra_axis(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    train(cfg, ds, out_dir=tmp_path, stop_after_epoch=4)
    path = tmp_path / "checkpoint.npz"
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays["adam/m/v0.enc.lin0.weight"] = arrays["adam/m/v0.enc.lin0.weight"][None]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ShapeError, match="Adam moment m/v0.enc.lin0.weight"):
        train(cfg, ds, resume=path)


def test_resume_refuses_a_checkpoint_whose_data_fails_its_crc(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    train(cfg, ds, out_dir=tmp_path, stop_after_epoch=4)
    path = tmp_path / "checkpoint.npz"
    flip_a_data_byte(path, "param/v0.enc.lin0.weight")
    with pytest.raises(CheckpointError, match="Bad CRC-32"):
        train(cfg, ds, resume=path)


def test_run_hash_depends_on_dataset_and_config():
    ds = small_dataset()
    cfg = small_config()
    assert run_hash(cfg, ds) == run_hash(cfg, ds)
    assert run_hash(cfg, ds) != run_hash(small_config(learning_rate=2e-3), ds)
    assert run_hash(cfg, ds) != run_hash(cfg, small_dataset(seed=1))


def test_run_hash_of_a_fixed_run_is_pinned():
    # hashing the feature arrays in place must give the digest of their bytes
    assert run_hash(small_config(), small_dataset()) == "7eb80bbe0f144c15478378bc4ead7e0583fb3afe93b52fd770d9abfdece8a428"


def test_nonfinite_loss_aborts_with_context():
    # Adam steps are bounded by the learning rate, so only an absurd rate
    # drives activations past the float range; numpy warns of the overflow.
    # The rate is a float32 number: a larger one would be inf in Adam's
    # float32 update, which then warns of 0 * inf first
    ds = small_dataset()
    cfg = small_config(learning_rate=1e30, epochs=4)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError):
        train(cfg, ds)


def test_training_separates_easy_synthetic():
    # after convergence on well-separated blobs, per-view level-K clustering
    # of the latents recovers the classes
    ds = small_dataset(spc=30, separation=10.0)
    cfg = small_config(epochs=12, weights=LossWeights(lambda1=1.0, lambda2=0.01, lambda3=0.01, lambda4=10.0))
    artifacts = train(cfg, ds)
    for v, z in enumerate(artifacts.latents):
        assignment, _ = kmeans(z, ds.n_clusters, seed=7, restarts=5)
        assert nmi(assignment.labels, ds.views[v].labels) >= 0.9
    assert artifacts.report.scope("all-view").nmi >= 0.9
    assert len(artifacts.report.scopes) == ds.n_views + 1
