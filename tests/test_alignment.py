"""Cross-view correspondence from cluster structure, the common view built on
it, and the training-free baseline that uses it on raw features."""

import numpy as np
import pytest

from umclust.baselines import structure_matched_kmeans
from umclust.cluster import centroid_distances, match_structure, match_views
from umclust.data import SyntheticSpec, synthesize
from umclust.errors import ShapeError
from umclust.losses import ClusterSet
from umclust.metrics import nmi
from umclust.nn import build_bundle
from umclust.train import TrainConfig, refresh_level_state

# four class centres with pairwise-distinct distances, so the structure
# identifies every class
CENTRES = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 25.0], [30.0, 30.0]])


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def two_views(spc=15, seed=0):
    """Same classes seen through a different rotation, scale and shift per
    view; each view's cluster ids are a different permutation of the class."""
    rng = np.random.default_rng(seed)
    feats, classes, ids = [], [], []
    for angle, scale, shift, perm in [(0.3, 1.0, 0.0, [2, 0, 3, 1]), (2.1, 4.0, 50.0, [1, 3, 0, 2])]:
        y = np.repeat(np.arange(4), spc)
        x = CENTRES[y] + rng.normal(scale=0.5, size=(y.size, 2))
        feats.append(scale * x @ _rotation(angle).T + shift)
        classes.append(y)
        ids.append(np.array(perm)[y])
    return feats, classes, ids


def test_centroid_distances_scale_and_rotation_invariant():
    feats, _, ids = two_views()
    d0 = centroid_distances(feats[0], ids[0], 4)
    assert np.allclose(np.diag(d0), 0.0)
    assert d0[~np.eye(4, dtype=bool)].mean() == pytest.approx(1.0)
    same = centroid_distances(3.0 * feats[0] @ _rotation(1.0).T - 7.0, ids[0], 4)
    assert np.allclose(d0, same)


def test_centroid_distances_rejects_empty_cluster():
    with pytest.raises(ShapeError):
        centroid_distances(np.zeros((3, 2)), np.array([0, 0, 2]), 3)


def test_match_structure_recovers_permutation():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(7, 3))
    ref = centroid_distances(points, np.arange(7), 7)
    perm = rng.permutation(7)
    view = ref[np.ix_(perm, perm)]  # view cluster j is reference cluster perm[j]
    match = match_structure(ref, view)
    assert np.array_equal(np.sort(match), np.arange(7))
    assert np.array_equal(perm[match], np.arange(7))


def test_match_structure_identity_and_shape_checks():
    ref = centroid_distances(CENTRES, np.arange(4), 4)
    assert np.array_equal(match_structure(ref, ref), np.arange(4))
    with pytest.raises(ShapeError):
        match_structure(ref, ref[:3, :3])


def test_match_views_joins_views_at_every_level():
    feats, classes, ids = two_views()
    # the views need not share a dimension: lift view 1 into 3-D
    feats[1] = np.hstack([feats[1], np.zeros((feats[1].shape[0], 1))]) @ np.linalg.qr(
        np.random.default_rng(1).normal(size=(3, 3))
    )[0]
    # level 2 merges classes {0, 1} and {2, 3}; each view numbers the halves differently
    coarse = [np.array([0, 0, 1, 1])[classes[0]], np.array([1, 1, 0, 0])[classes[1]]]
    view_labels = {2: coarse, 4: ids}
    common = match_views(feats, view_labels, final=4)
    assert list(common) == [2, 4]
    truth = np.concatenate(classes)
    assert nmi(common[4], truth) == pytest.approx(1.0)
    assert nmi(common[2], truth // 2) == pytest.approx(1.0)
    ends = np.cumsum([y.size for y in classes])[:-1]
    for level in (2, 4):
        # each view's clusters map one-to-one onto the common clusters
        for labels, joined in zip(view_labels[level], np.split(common[level], ends)):
            pairs = np.unique(np.stack([labels, joined]), axis=1)
            assert sorted(pairs[0]) == sorted(pairs[1]) == list(range(level))
    # view 0 names the common clusters
    assert np.array_equal(common[4][: ids[0].size], ids[0])


def test_refresh_final_centroids_are_latent_means_of_joined_clusters():
    ds = synthesize(SyntheticSpec(clusters=3, views=2, dims=(6, 7), samples_per_cluster=10, separation=8.0, noise_std=1.0, seed=0))
    cfg = TrainConfig(epochs=4, latent_dim=4, hidden_dims=(8,))
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    state, latents = refresh_level_state(bundle, ds, ClusterSet((2, 3)), (2, 3), cfg, {})
    z = np.concatenate(latents)
    common = match_views(latents, state.view_labels, final=3)
    for level in (2, 3):
        assert np.array_equal(state.common_labels[level], common[level])
    assert state.final_centroids.shape == (3, 4)
    for c in range(3):
        assert np.allclose(state.final_centroids[c], z[state.common_labels[3] == c].mean(axis=0))


def test_structure_matched_baseline_aligns_unpaired_views():
    feats, classes, _ = two_views()
    assignment = structure_matched_kmeans(feats, 4, seed=5, restarts=3)
    assert assignment.k == 4
    assert nmi(assignment.labels, np.concatenate(classes)) == pytest.approx(1.0)
