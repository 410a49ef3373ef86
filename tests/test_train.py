"""Schedule, reliability decay, refresh, determinism, resume, ablation."""

import numpy as np
import pytest

from umclust.cluster import kmeans
from umclust.data import MultiViewDataset, SyntheticSpec, ViewData, synthesize, view_batches
from umclust.errors import CheckpointError, DataError, NumericalError, ShapeError
from umclust.losses import ClusterSet, LossWeights, recon_orth_loss
from umclust.metrics import nmi
from umclust.nn import Adam, build_bundle
from umclust.train import (
    TrainConfig,
    refresh_level_state,
    reliability_coeff,
    run_hash,
    train,
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
# schedule and reliability


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


def test_reliability_trace_formula():
    for t in range(1, 250):
        assert reliability_coeff(t) == max(1.0, 1.5 * 0.99 ** (t - 1))
    assert reliability_coeff(1) == 1.5
    assert reliability_coeff(200) == 1.0


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
    state, latents = refresh_level_state(bundle, ds, cs, active=(2,), config=cfg, warm={})
    assert sorted(state.view_labels) == [2, 3]  # final level always present
    assert sorted(state.common_labels) == [2, 3]
    assert state.silhouettes.shape == (ds.n_views,)
    assert len(latents) == ds.n_views
    offsets = ds.row_offsets()
    for level, groups in state.view_labels.items():
        for v, labels in enumerate(groups):
            assert labels.shape[0] == ds.views[v].n
            # the common labels relabel each view's clusters one-to-one
            common = state.common_labels[level][offsets[v]:offsets[v] + ds.views[v].n]
            pairs = np.unique(np.stack([labels, common]), axis=1)
            assert pairs.shape[1] == level
            assert sorted(pairs[0]) == sorted(pairs[1]) == list(range(level))


def test_refresh_deterministic():
    ds = small_dataset()
    cfg = small_config()
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    cs = ClusterSet.default(ds.n_clusters)
    s1, _ = refresh_level_state(bundle, ds, cs, (2, 3), cfg, {})
    s2, _ = refresh_level_state(bundle, ds, cs, (2, 3), cfg, {})
    assert np.array_equal(s1.final_centroids, s2.final_centroids)
    for level in s1.common_labels:
        assert np.array_equal(s1.common_labels[level], s2.common_labels[level])
        for a, b in zip(s1.view_labels[level], s2.view_labels[level]):
            assert np.array_equal(a, b)


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


def test_train_records_schedule_and_reliability(tmp_path):
    ds = small_dataset()
    artifacts = train(small_config(), ds, out_dir=tmp_path)
    assert [len(a) for a in artifacts.level_trace] == [1, 1, 2, 2, 2, 2, 2, 2]  # K=3 has 2 levels
    expected = [max(1.0, 1.5 * 0.99 ** (t - 1)) for t in range(1, 9)]
    assert np.array_equal(artifacts.loss_table[:, 6], expected)  # the reliability_coeff column
    assert artifacts.loss_table.shape == (8, 7 + ds.n_views)
    assert (tmp_path / "loss_curve.csv").exists()
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
            bundle.zero_grad()
            loss, _ = recon_orth_loss(xb, bundle, 0.0)
            loss.backward()
            opt.step()
    # the trainer run must land on numerically identical parameters
    with np.load(tmp_path / "checkpoint.npz", allow_pickle=False) as ck:
        for name, p in bundle.named_parameters().items():
            assert np.array_equal(ck[f"param/{name}"], p.data), name


def test_checkpoint_resume_bit_identical(tmp_path):
    ds = small_dataset()
    cfg = small_config()
    straight = train(cfg, ds, out_dir=tmp_path / "straight")
    partial = train(cfg, ds, out_dir=tmp_path / "partial", stop_after_epoch=4)
    resumed = train(cfg, ds, out_dir=tmp_path / "resumed", resume=tmp_path / "partial" / "checkpoint.npz")
    s = np.load(tmp_path / "straight" / "checkpoint.npz", allow_pickle=False)
    r = np.load(tmp_path / "resumed" / "checkpoint.npz", allow_pickle=False)
    for key in s.files:
        if key == "__meta__":
            continue
        assert np.array_equal(s[key], r[key]), key
    assert np.array_equal(straight.final_assignment.labels, resumed.final_assignment.labels)
    assert np.array_equal(straight.loss_table[4:], resumed.loss_table)


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


def test_run_hash_depends_on_dataset_and_config():
    ds = small_dataset()
    cfg = small_config()
    assert run_hash(cfg, ds) == run_hash(cfg, ds)
    assert run_hash(cfg, ds) != run_hash(small_config(learning_rate=2e-3), ds)
    assert run_hash(cfg, ds) != run_hash(cfg, small_dataset(seed=1))


def test_nonfinite_loss_aborts_with_context():
    # Adam steps are bounded by the learning rate, so only an absurd rate
    # drives activations past the float range; numpy warns of the overflow
    ds = small_dataset()
    cfg = small_config(learning_rate=1e200, epochs=4)
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
