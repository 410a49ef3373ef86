"""K-means, cosine, silhouette and Hungarian matching against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _brute_cosine,
    brute_hungarian,
    brute_pairwise_distances,
    brute_silhouette,
    brute_two_partition_kmeans,
    exhaustive_match_structure,
    reference_lloyd,
)
from umclust import cluster
from umclust.cluster import (
    Assignment,
    _kmeanspp_init,
    _pairwise_distances,
    cluster_means,
    cosine_matrix,
    hungarian_max,
    kmeans,
    silhouette_view,
)
from umclust.errors import ShapeError


# ---------------------------------------------------------------------------
# cosine


def test_cosine_basic_values():
    m = cosine_matrix(np.array([[1.0, 0.0], [2.0, 2.0], [1.0, 2.0]]), np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]))
    assert m[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert m[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert m[2, 2] == pytest.approx(0.8, abs=1e-12)


def test_cosine_zero_vector_convention():
    m = cosine_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert np.array_equal(m, np.zeros((1, 2)))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.floats(0.1, 50),
    st.floats(0.1, 50),
)
def test_cosine_symmetric_and_scale_invariant(a, b, alpha, beta):
    a = np.array([a])
    b = np.array([b])
    ab = cosine_matrix(a, b)[0, 0]
    assert ab == pytest.approx(cosine_matrix(b, a)[0, 0], abs=1e-12)
    assert cosine_matrix(alpha * a, beta * b)[0, 0] == pytest.approx(ab, abs=1e-9)
    assert -1.0 - 1e-12 <= ab <= 1.0 + 1e-12


def test_cosine_matrix_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(5, 3))
    a[1] = 0.0
    m = cosine_matrix(a, b)
    for i in range(4):
        for j in range(5):
            assert m[i, j] == pytest.approx(_brute_cosine(a[i], b[j]), abs=1e-12)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k_equals_rows_zero_inertia():
    z = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    assignment, centers = kmeans(z, 4, seed=0)
    assert assignment.inertia == pytest.approx(0.0, abs=1e-20)
    assert len(set(assignment.labels.tolist())) == 4


def test_kmeans_two_separated_pairs_match_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        z = rng.normal(size=(4, 2))
        z[2:] += 8.0
        assignment, centers = kmeans(z, 2, seed=trial)
        assert assignment.inertia == pytest.approx(brute_two_partition_kmeans(z), rel=1e-9)
        assert assignment.labels[0] == assignment.labels[1]
        assert assignment.labels[2] == assignment.labels[3]


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(60, 5))
    assignment, _ = kmeans(z, 4, seed=3)
    hist = assignment.inertia_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(50, 3))
    a1, c1 = kmeans(z, 5, seed=42)
    a2, c2 = kmeans(z, 5, seed=42)
    assert np.array_equal(a1.labels, a2.labels)
    assert np.array_equal(c1, c2)


def test_kmeans_rejects_too_few_rows():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3)


def test_kmeans_warm_start_and_empty_repair():
    z = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    # second centroid starts absurdly far: its cluster is empty on the first
    # assignment and must seize the farthest point
    init = np.array([[0.05, 0.0], [1000.0, 0.0]])
    assignment, centers = kmeans(z, 2, init_centroids=init, max_iter=50)
    assert sorted(np.bincount(assignment.labels, minlength=2).tolist()) == [2, 2]
    assert assignment.inertia == pytest.approx(brute_two_partition_kmeans(z), rel=1e-9)


def test_kmeans_restarts_keep_best():
    rng = np.random.default_rng(5)
    z = np.vstack([rng.normal(size=(20, 2)) + off for off in ([0, 0], [6, 0], [0, 6], [6, 6])])
    single, _ = kmeans(z, 4, seed=9, restarts=1)
    multi, _ = kmeans(z, 4, seed=9, restarts=8)
    assert multi.inertia <= single.inertia + 1e-12


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cluster_means_equal_scatter_add_over_counts(data):
    k = data.draw(st.integers(1, 8))
    n = k + data.draw(st.integers(0, 40))
    d = data.draw(st.integers(1, 6))
    # every cluster gets a row, the rest of the labels are free
    drawn = data.draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(data.draw(st.permutations(list(range(k)) + drawn)), dtype=np.int64)
    values = data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n * d, max_size=n * d))
    x = np.array(values, dtype=np.float64).reshape(n, d)
    expected = np.zeros((k, d))
    np.add.at(expected, labels, x)
    expected /= np.bincount(labels, minlength=k)[:, None]
    assert np.array_equal(cluster_means(x, labels, k), expected)


def test_kmeans_warm_start_matches_reference_lloyd():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(300, 5))
    init = z[rng.choice(300, size=7, replace=False)] + rng.normal(scale=0.1, size=(7, 5))
    init[6] = 1e3  # starts empty and is repaired
    assignment, centers = kmeans(z, 7, init_centroids=init, max_iter=50)
    labels, ref_centers, history = reference_lloyd(z, init.copy(), max_iter=50)
    assert np.array_equal(assignment.labels, labels)
    assert np.array_equal(centers, ref_centers)
    assert assignment.inertia_history == history
    assert len(history) > 2


def test_kmeans_restarts_match_reference_lloyd():
    rng = np.random.default_rng(12)
    z = rng.uniform(size=(250, 4))
    assignment, centers = kmeans(z, 6, seed=3, max_iter=40, restarts=3)
    runs = []
    for r in range(3):
        init = _kmeanspp_init(z, 6, np.random.default_rng(np.random.SeedSequence([3, r])))
        runs.append(reference_lloyd(z, init, max_iter=40))
    labels, ref_centers, history = min(runs, key=lambda run: run[2][-1])  # earliest among ties
    assert np.array_equal(assignment.labels, labels)
    assert np.array_equal(centers, ref_centers)
    assert assignment.inertia_history == history


def test_kmeans_stops_once_labels_repeat_and_computes_row_norms_once(monkeypatch):
    # four far-apart blobs warm-started near their centers: the second
    # assignment returns the labels the centroids were averaged from
    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 30.0, 0.0], [0.0, 0.0, 30.0]])
    z = (centers[:, None, :] + rng.normal(size=(4, 40, 3))).reshape(-1, 3)
    init = centers + rng.normal(scale=2.0, size=centers.shape)
    calls = []
    real_sqdist = cluster._sqdist

    def counting(*args):
        calls.append(args)
        return real_sqdist(*args)

    monkeypatch.setattr(cluster, "_sqdist", counting)
    assignment, got = kmeans(z, 4, init_centroids=init, max_iter=50)
    labels, ref_centers, history = reference_lloyd(z, init.copy(), max_iter=50)
    assert np.array_equal(assignment.labels, labels)
    assert np.array_equal(got, ref_centers)
    assert assignment.inertia_history == history == [history[0], history[1]]
    assert len(calls) == len(history)
    assert all(args[1] is calls[0][1] for args in calls)

    calls.clear()
    kmeans(z, 4, seed=1, max_iter=50, restarts=3)  # k-means++ and Lloyd share one set of row norms
    assert len(calls) > 3 * 4 and all(args[1] is calls[0][1] for args in calls)


def test_kmeans_history_has_one_inertia_per_assignment(monkeypatch):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(200, 4))
    calls = []
    real_assign = cluster._assign_with_repair

    def counting(*args):
        calls.append(args)
        return real_assign(*args)

    monkeypatch.setattr(cluster, "_assign_with_repair", counting)
    assignment, centers = kmeans(z, 5, seed=2, max_iter=100)
    iterations = len(assignment.inertia_history) - 1
    assert 2 < iterations < 100  # converged, after more than two iterations
    assert iterations == len(calls) - 1
    # labels at a fixed point: the centroids are their own means
    assert np.array_equal(centers, cluster_means(z, assignment.labels, 5))

    capped, _ = kmeans(z, 5, seed=2, max_iter=2)
    assert len(capped.inertia_history) == 2 + 1


# ---------------------------------------------------------------------------
# pairwise distances


def _assert_distances_exact(z):
    got = _pairwise_distances(z)
    ref = brute_pairwise_distances(z)
    assert np.array_equal(got == 0, ref == 0)
    nonzero = ref > 0
    assert np.allclose(got[nonzero], ref[nonzero], rtol=1e-12, atol=0.0)


def test_pairwise_distances_near_duplicate_rows():
    rng = np.random.default_rng(13)
    base = rng.normal(size=(12, 5))
    _assert_distances_exact(np.vstack([base, base + 1e-9 * rng.normal(size=base.shape)]))


def test_pairwise_distances_far_from_origin():
    # d2 / (|z_i|^2 + |z_j|^2) is about 1e-14 here: an unguarded Gram form cancels
    rng = np.random.default_rng(14)
    _assert_distances_exact(1e4 + 1e-3 * rng.normal(size=(25, 4)))


def test_pairwise_distances_repeated_rows_are_zero():
    rng = np.random.default_rng(15)
    base = rng.normal(size=(6, 3)) * 100.0
    z = base[[0, 1, 0, 2, 3, 1, 4, 5, 0]]
    got = _pairwise_distances(z)
    same = (z[:, None, :] == z[None, :, :]).all(axis=2)
    assert np.array_equal(got[same], np.zeros(int(same.sum())))
    _assert_distances_exact(z)


def test_silhouette_far_from_origin_matches_oracle():
    rng = np.random.default_rng(16)
    centers = rng.normal(size=(3, 4))
    labels = np.repeat(np.arange(3), 8)
    z = 1e4 + 1e-3 * (centers[labels] + 0.3 * rng.normal(size=(24, 4)))
    mine = silhouette_view(z, Assignment(labels=labels, k=3, inertia=0.0))
    assert mine == pytest.approx(brute_silhouette(z, labels, 3), abs=1e-12)
    assert mine > 0.5


# ---------------------------------------------------------------------------
# silhouette


def test_silhouette_two_tight_far_clusters():
    rng = np.random.default_rng(6)
    z = np.vstack([rng.normal(scale=1e-3, size=(10, 3)), rng.normal(scale=1e-3, size=(10, 3)) + 100.0])
    labels = np.repeat([0, 1], 10)
    value = silhouette_view(z, Assignment(labels=labels, k=2, inertia=0.0))
    assert value >= 0.99


def test_silhouette_identical_points_zero():
    z = np.zeros((6, 2))
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert silhouette_view(z, Assignment(labels=labels, k=2, inertia=0.0)) == 0.0


def test_silhouette_matches_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(2, 4))
        z = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        mine = silhouette_view(z, Assignment(labels=labels, k=k, inertia=0.0))
        assert mine == pytest.approx(brute_silhouette(z, labels, k), abs=1e-12)


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValueError):
        silhouette_view(np.zeros((3, 2)), Assignment(labels=np.zeros(3, dtype=int), k=1, inertia=0.0))


def test_silhouette_range():
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        v = silhouette_view(z, Assignment(labels=labels, k=3, inertia=0.0))
        assert -1.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# hungarian


def _total(weights, row_to_col):
    return float(weights[np.arange(weights.shape[0]), row_to_col].sum())


def test_hungarian_identity_dominant():
    w = np.eye(4) * 10 + np.random.default_rng(0).uniform(size=(4, 4))
    assert np.array_equal(hungarian_max(w), np.arange(4))


def test_hungarian_antidiagonal():
    a = hungarian_max(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(a, [1, 0])
    assert _total(np.array([[0.0, 1.0], [1.0, 0.0]]), a) == 2.0


def test_hungarian_matches_brute_force_values():
    rng = np.random.default_rng(9)
    for trial in range(100):
        k = int(rng.integers(2, 7))
        w = rng.uniform(size=(k, k))
        a = hungarian_max(w)
        best_value, _ = brute_hungarian(w)
        assert _total(w, a) == best_value


def test_hungarian_takes_each_column_once():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        row_to_col = hungarian_max(rng.normal(size=(k, k)))
        assert row_to_col.shape == (k,) and row_to_col.dtype == np.int64
        assert np.array_equal(np.sort(row_to_col), np.arange(k))
    assert np.array_equal(hungarian_max(np.zeros((0, 0))), np.zeros(0, dtype=np.int64))


def _assert_optimal_permutation(w, row_to_col):
    assert np.array_equal(np.sort(row_to_col), np.arange(w.shape[0]))
    assert _total(w, row_to_col) == brute_hungarian(w)[0]


def test_hungarian_tie_break_is_optimal_and_repeatable():
    tied = [
        np.ones((4, 4)),  # every map is optimal
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # (0->0, 1->1) and (0->1, 1->0)
        np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 5.0]]),  # rows 0 and 1 may swap
    ]
    for w in tied:
        row_to_col = hungarian_max(w)
        _assert_optimal_permutation(w, row_to_col)
        assert np.array_equal(hungarian_max(w.copy()), row_to_col)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_hungarian_tie_heavy_integer_weights_match_brute_force(data):
    k = data.draw(st.integers(1, 7))
    entries = data.draw(st.lists(st.integers(0, 2), min_size=k * k, max_size=k * k))
    w = np.array(entries, dtype=np.float64).reshape(k, k)
    _assert_optimal_permutation(w, hungarian_max(w))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_match_structure_takes_the_swaps_of_the_exhaustive_sweep(data):
    # symmetric matrices, either with entries from a few integer levels (many
    # swaps tie) or continuous; at a large scale tied swaps differ by rounding
    # alone, more than the 1e-12 a swap must gain
    k = data.draw(st.integers(1, 20))
    levels = data.draw(st.sampled_from([2, 3, None]))
    scale = data.draw(st.sampled_from([1.0, 1e6 / 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def symmetric():
        a = rng.integers(0, levels, (k, k)).astype(np.float64) if levels else rng.uniform(0, 2, (k, k))
        return scale * (a + a.T)

    ref, view = symmetric(), symmetric()
    assert np.array_equal(cluster.match_structure(ref, view), exhaustive_match_structure(ref, view))


def test_hungarian_beats_random_permutations_k50():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(50, 50))
    a = hungarian_max(w)
    mine = _total(w, a)
    rows = np.arange(50)
    for _ in range(10_000):
        perm = rng.permutation(50)
        assert mine >= float(w[rows, perm].sum()) - 1e-9


def test_hungarian_rejects_bad_input():
    with pytest.raises(ShapeError):
        hungarian_max(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hungarian_max(np.array([[np.inf, 0.0], [0.0, 1.0]]))
