"""Cross-view correspondence from cluster structure, the common view built on
it, and the training-free baseline that uses it on raw features."""

import itertools

import numpy as np
import pytest

from umclust import cluster
from umclust.baselines import structure_matched_kmeans
from umclust.cluster import centroid_distances, match_structure, match_views
from umclust.data import SyntheticSpec, synthesize
from umclust.errors import ShapeError
from umclust.metrics import nmi
from umclust.nn import build_bundle
from umclust.train import ClusterSet, TrainConfig, refresh_level_state

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
    assert nmi(np.concatenate(common[4]), truth) == pytest.approx(1.0)
    assert nmi(np.concatenate(common[2]), truth // 2) == pytest.approx(1.0)
    for level in (2, 4):
        # each view's clusters map one-to-one onto the common clusters
        for labels, joined in zip(view_labels[level], common[level], strict=True):
            assert joined.shape == labels.shape
            pairs = np.unique(np.stack([labels, joined]), axis=1)
            assert sorted(pairs[0]) == sorted(pairs[1]) == list(range(level))
    # view 0 names the common clusters
    assert np.array_equal(common[4][0], ids[0])


def test_refresh_final_centroids_are_latent_means_of_joined_clusters():
    ds = synthesize(SyntheticSpec(clusters=3, views=2, dims=(6, 7), samples_per_cluster=10, separation=8.0, noise_std=1.0, seed=0))
    cfg = TrainConfig(epochs=4, latent_dim=4, hidden_dims=(8,))
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    state, latents = refresh_level_state(bundle, ds.feature_matrices(), ClusterSet((2, 3)), (2, 3), cfg, {})
    common = match_views(latents, state.view_labels, final=3)
    for level in (2, 3):
        for labels, joined in zip(state.common_labels[level], common[level], strict=True):
            assert np.array_equal(labels, joined)
    assert state.final_centroids.shape == (3, 4)
    for c in range(3):
        members = np.concatenate([z[labels == c] for z, labels in zip(latents, state.common_labels[3])])
        assert np.allclose(state.final_centroids[c], members.mean(axis=0))


def _three_views():
    return synthesize(SyntheticSpec(clusters=4, views=3, dims=(5, 6, 7), samples_per_cluster=8, separation=6.0, noise_std=1.0, seed=3))


def _refresh_per_view(ds):
    """One refresh of an untrained model on `ds` at levels (2, 3, 4): per
    level, each view's cluster labels and common labels."""
    cfg = TrainConfig(epochs=4, latent_dim=4, hidden_dims=(8,))
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    state, _ = refresh_level_state(bundle, ds.feature_matrices(), ClusterSet((2, 3, 4)), (2, 3, 4), cfg, {})
    return state.view_labels, state.common_labels


def _count_calls(monkeypatch, name, counts):
    real = getattr(cluster, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(cluster, name, counted)


def test_one_refresh_matches_every_view_but_the_first(monkeypatch):
    counts = {"match_structure": 0, "hungarian_max": 0}
    for name in counts:
        _count_calls(monkeypatch, name, counts)
    view_labels, common = _refresh_per_view(_three_views())
    # views 1 and 2 are matched at the final level and joined at the 2 coarse ones
    assert counts == {"match_structure": 2, "hungarian_max": 2 * 3}
    for level in (2, 3, 4):
        assert np.array_equal(common[level][0], view_labels[level][0])


def test_a_swapped_correspondence_names_the_final_level_and_joins_the_coarse_ones(monkeypatch):
    ds = _three_views()
    classes = [v.labels for v in ds.views]
    monkeypatch.setattr(cluster, "correspondence", lambda spaces, labels, k: classes)
    view_labels, common = _refresh_per_view(ds)
    for joined, y in zip(common[4], classes):
        assert np.array_equal(joined, y)
    for level in (2, 3):
        assert np.array_equal(common[level][0], view_labels[level][0])
        mixes = [
            np.array([np.bincount(y[labels == c], minlength=4) for c in range(level)], dtype=float)
            for labels, y in zip(view_labels[level], classes)
        ]
        mixes = [m / np.linalg.norm(m, axis=1, keepdims=True) for m in mixes]
        for labels, joined, mix in zip(view_labels[level][1:], common[level][1:], mixes[1:]):
            # each view cluster joins one common cluster, one-to-one ...
            to_common = np.array([joined[labels == c][0] for c in range(level)])
            assert np.array_equal(joined, to_common[labels])
            assert sorted(to_common) == list(range(level))
            # ... the one whose class mix in view 0 is most alike
            agreement = mix @ mixes[0].T
            best = max(agreement[range(level), list(p)].sum() for p in itertools.permutations(range(level)))
            assert agreement[range(level), to_common].sum() == pytest.approx(best, rel=1e-12)


def test_structure_matched_baseline_aligns_unpaired_views():
    feats, classes, _ = two_views()
    assignment = structure_matched_kmeans(feats, 4, seed=5, restarts=3)
    assert assignment.k == 4
    assert nmi(assignment.labels, np.concatenate(classes)) == pytest.approx(1.0)
