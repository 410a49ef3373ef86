"""Non-differentiable clustering primitives.

Everything here is a pure function of its inputs and seed: seeded
k-means++ with Lloyd refinement and empty-cluster repair, cosine
similarity, the per-view mean silhouette coefficient, exact
maximum-weight bipartite matching, and cluster-structure matching
between views that share no space; each matching is an index map.

Training re-clusters every view at every level of every refresh, so
K-means carries the cost of a narrow-view train, mostly in `_sqdist`
and `cluster_means` (one `bincount` that adds rows in index order).
`_pairwise_distances` sees only k x k centroid distances.
`match_structure` screens all k^2 / 2 swaps of a sweep in O(k^3) and
computes the O(k^2) objective only for swaps that may lower it.
`silhouette_view` runs on no training path; it stays because the
benchmark's tracer (`bench/spans.py`) wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


# ---------------------------------------------------------------------------
# cosine similarity


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length, zero rows left at zero. Each row is
    first divided by its largest magnitude, so squaring it can neither
    underflow nor overflow."""
    peak = np.abs(m).max(axis=1, keepdims=True)
    m = m / np.where(peak > 0, peak, 1.0)
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norm > 0, norm, 1.0)


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine of rows of `a` against rows of `b`; zero rows give 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _unit_rows(a) @ _unit_rows(b).T


# ---------------------------------------------------------------------------
# k-means


@dataclass
class Assignment:
    """Cluster labels over one sample set, plus the final inertia.

    `inertia_history` holds the inertia after every assignment, the
    first from the initial centroids, so `len(inertia_history) - 1` is
    the number of Lloyd iterations run.
    """

    labels: np.ndarray
    k: int
    inertia: float
    inertia_history: list[float] = field(default_factory=list, repr=False)


def _row_sq_norms(z: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", z, z)


def _sqdist(z: np.ndarray, zz: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of `z` (squared norms `zz`) to `centers`."""
    cc = _row_sq_norms(centers)[None, :]
    d2 = zz[:, None] + cc - 2.0 * (z @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(z: np.ndarray, k: int, rng: np.random.Generator, zz: np.ndarray | None = None) -> np.ndarray:
    """k-means++ seeding; `zz` passes the squared row norms of `z` when
    the caller has them."""
    zz = _row_sq_norms(z) if zz is None else zz
    n = z.shape[0]
    centers = np.empty((k, z.shape[1]))
    chosen: set[int] = set()
    idx = int(rng.integers(n))
    centers[0] = z[idx]
    chosen.add(idx)
    d2 = _sqdist(z, zz, centers[0:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # remaining points coincide with chosen centers; take lowest free index
            idx = next(i for i in range(n) if i not in chosen)
        centers[c] = z[idx]
        chosen.add(idx)
        np.minimum(d2, _sqdist(z, zz, centers[c : c + 1])[:, 0], out=d2)
    return centers


def _assign_with_repair(z: np.ndarray, zz: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest-centroid labels; each empty cluster seizes the point farthest
    from its own centroid (ascending cluster index, each point seized once)."""
    k = centers.shape[0]
    d2 = _sqdist(z, zz, centers)
    labels = np.argmin(d2, axis=1)
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        own = d2[np.arange(z.shape[0]), labels].copy()
        for j in empties:
            p = int(np.argmax(own))
            labels[p] = j
            own[p] = -1.0
    inertia = float(d2[np.arange(z.shape[0]), labels].sum())
    return labels, inertia


def cluster_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) mean of the rows of `x` per label; an empty cluster's is NaN.

    The sums are one `np.bincount` over the flat index `label * d + col`.
    It adds the weights of each bin in index order, starting from 0, as
    the unbuffered scatter of `np.add` through `ufunc.at` does, so the
    sums are bit-identical to that scatter's.
    """
    d = x.shape[1]
    flat = np.asarray(labels, dtype=np.intp)[:, None] * d + np.arange(d)
    sums = np.bincount(flat.ravel(), weights=x.ravel(), minlength=k * d).reshape(k, d)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _lloyd(
    z: np.ndarray,
    zz: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
) -> tuple[Assignment, np.ndarray]:
    """Lloyd iterations until an assignment returns the labels the
    centroids were averaged from, or `max_iter` iterations.

    Such labels are a fixed point: averaging them again gives the same
    centroids bit for bit, which assign the same labels.
    """
    k = centers.shape[0]
    labels, inertia = _assign_with_repair(z, zz, centers)
    history = [inertia]
    for _ in range(max_iter):
        centers, averaged = cluster_means(z, labels, k), labels
        labels, inertia = _assign_with_repair(z, zz, centers)
        history.append(inertia)
        if np.array_equal(labels, averaged):
            break
    return Assignment(labels=labels, k=k, inertia=inertia, inertia_history=history), centers


def kmeans(
    z: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    init_centroids: np.ndarray | None = None,
    restarts: int = 1,
) -> tuple[Assignment, np.ndarray]:
    """Seeded k-means++ followed by Lloyd iterations, which stop at the
    first fixed point of the labels or after `max_iter` iterations.

    `init_centroids` warm-starts Lloyd and skips the seeded init (and any
    restarts). With `restarts` > 1 the run with the lowest inertia wins;
    ties keep the earliest restart.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError("kmeans expects a 2-D sample matrix")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if z.shape[0] < k:
        raise ValueError(f"kmeans needs at least k={k} rows, got {z.shape[0]}")
    zz = _row_sq_norms(z)
    if init_centroids is not None:
        init = np.asarray(init_centroids, dtype=np.float64)
        if init.shape != (k, z.shape[1]):
            raise ShapeError(f"warm-start centroids must be {(k, z.shape[1])}, got {init.shape}")
        return _lloyd(z, zz, init.copy(), max_iter)
    best: tuple[Assignment, np.ndarray] | None = None
    for r in range(int(restarts)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        assignment, centers = _lloyd(z, zz, _kmeanspp_init(z, k, rng, zz), max_iter)
        if best is None or assignment.inertia < best[0].inertia:
            best = (assignment, centers)
    return best


# ---------------------------------------------------------------------------
# silhouette


def _pairwise_distances(z: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances of the rows of `z`, from the Gram form.

    d2[i, j] = scale[i, j] - 2 z_i.z_j with scale[i, j] = |z_i|^2 + |z_j|^2.
    Its rounding error is of order eps * scale (eps = 2.2e-16), which
    swamps d2 where rows nearly coincide: the diagonal, duplicates, and
    rows close together far from the origin. Every pair with
    d2 <= 1e-6 * scale is therefore recomputed exactly from z_i - z_j.
    The pairs kept from the Gram form have a relative error in d2 of
    order 1e6 * eps at worst, and far less on well-separated rows. Rows
    are processed in blocks, so nothing but the (n, n) result grows with
    n^2.
    """
    n, d = z.shape
    sq = np.einsum("ij,ij->i", z, z)
    out = z @ z.T
    block = max(1, (1 << 22) // max(1, n * d))
    for start in range(0, n, block):
        rows = out[start : start + block]
        scale = sq[start : start + block, None] + sq[None, :]
        rows *= -2.0
        rows += scale
        i, j = np.nonzero(rows <= 1e-6 * scale)
        diff = z[start + i] - z[j]
        rows[i, j] = np.einsum("ij,ij->i", diff, diff)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def silhouette_view(z: np.ndarray, assignment: Assignment) -> float:
    """Mean silhouette coefficient over all samples, Euclidean distance.

    Per sample: a = mean distance to own cluster (excluding itself),
    b = smallest mean distance to any other non-empty cluster,
    score = (b - a) / max(a, b) with 0/0 -> 0. Samples in singleton
    clusters score 0.
    """
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(assignment.labels)
    k = int(assignment.k)
    if k < 2:
        raise ValueError(f"silhouette needs k >= 2, got {k}")
    n = z.shape[0]
    if labels.shape[0] != n:
        raise ShapeError("labels length must match sample count")
    d = _pairwise_distances(z)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    counts = onehot.sum(axis=0)
    cluster_dist_sums = d @ onehot  # (n, k) sum of distances to each cluster
    own = labels
    own_counts = counts[own]
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(own_counts > 1, cluster_dist_sums[np.arange(n), own] / np.maximum(own_counts - 1, 1), 0.0)
        mean_to_cluster = cluster_dist_sums / np.where(counts > 0, counts, 1.0)
    mean_to_cluster[:, counts == 0] = np.inf
    mean_to_cluster[np.arange(n), own] = np.inf
    b = mean_to_cluster.min(axis=1)
    b = np.where(np.isfinite(b), b, 0.0)
    denom = np.maximum(a, b)
    sil = np.zeros(n)
    ok = (denom > 0) & (own_counts > 1)
    sil[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(sil.mean())


# ---------------------------------------------------------------------------
# maximum-weight bipartite matching


def _lap_min(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment via shortest augmenting paths with
    potentials; returns the column -> row map."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.full(n + 1, -1, dtype=np.int64)  # column -> row; index n is virtual
    for i in range(n):
        match_row[n] = i
        j0 = n
        minv = np.full(n + 1, np.inf)
        way = np.full(n + 1, n, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            cur = cost[i0, :] - u[i0] - v[:n]
            improve = (cur < minv[:n]) & ~used[:n]
            minv[:n][improve] = cur[improve]
            way[:n][improve] = j0
            masked = np.where(used[:n], np.inf, minv[:n])
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            used_cols = np.flatnonzero(used)
            u[match_row[used_cols]] += delta
            v[used_cols] -= delta
            minv[~used[: n + 1]] -= delta
            j0 = j1
            if match_row[j0] == -1:
                break
        # unwind augmenting path
        while j0 != n:
            j1 = int(way[j0])
            match_row[j0] = match_row[j1]
            j0 = j1
    return match_row[:n].copy()


def hungarian_max(weights: np.ndarray) -> np.ndarray:
    """Row-to-column map (row i takes column `row_to_col[i]`) maximizing
    the total selected weight.

    Among several maximizing maps, the solver's augmenting order picks
    one; it is deterministic, so equal weights give the same map.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"hungarian_max expects a square matrix, got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("hungarian_max requires finite weights")
    return np.argsort(_lap_min(-w))


# ---------------------------------------------------------------------------
# cluster-structure matching


def centroid_distances(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Distances between the k cluster means of `x`, scaled so the mean
    off-diagonal entry is 1: views of any dimension and scale compare."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=k)
    if counts.shape[0] != k or (counts == 0).any():
        raise ShapeError(f"every one of the {k} clusters needs at least one row")
    d = _pairwise_distances(cluster_means(x, labels, k))
    off = d[~np.eye(k, dtype=bool)]
    scale = off.mean() if off.size and off.mean() > 0 else 1.0
    return d / scale


def _structure_cost(ref: np.ndarray, view: np.ndarray, perm: np.ndarray) -> float:
    return float(((ref - view[np.ix_(perm, perm)]) ** 2).sum())


def _swap_deltas(ref: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[i, j]: the objective change when positions i and j swap partners,
    `w` being the view matrix in the current order. A swap moves only rows
    and columns i and j, so each entry is O(k): the misfit of those four
    lines after the swap (Gram-form sums, the entries where they cross set
    to their swapped values) less their misfit before it."""
    rd, wd, e, r2, w2 = np.diagonal(ref)[:, None], np.diagonal(w)[None, :], (ref - w) ** 2, ref**2, w**2
    half = (
        (r2.sum(0) + r2.sum(1) - e.sum(0) - e.sum(1) + np.diagonal(e))[:, None] + (w2.sum(0) + w2.sum(1))[None, :]
        - 2.0 * (ref @ w.T + ref.T @ w) + e + (rd - wd) ** 2 + (ref - w.T) ** 2
        - (rd - w.T) ** 2 - (rd - w) ** 2 - (ref - wd) ** 2 - (ref - wd.T) ** 2
    )
    return half + half.T


def match_structure(ref_dist: np.ndarray, view_dist: np.ndarray) -> np.ndarray:
    """Index map `perm` pairing reference cluster i with view cluster
    perm[i] so the two centroid-distance matrices agree.

    The objective, sum over i, i' of (ref[i, i'] - view[p(i), p(i')])^2,
    is a quadratic assignment. A cluster's sorted distances to the
    others do not depend on labeling, so Hungarian matching of those
    profiles gives the start; swapping two clusters' partners while
    that lowers the objective refines it, swaps tried in (i, j) order.
    The full O(k^2) objective, which decides, is computed only for swaps
    whose O(k) change (`_swap_deltas`, all swaps at once and again after
    each swap taken) could lower it by more than 1e-12 given rounding.
    """
    ref = np.asarray(ref_dist, dtype=np.float64)
    view = np.asarray(view_dist, dtype=np.float64)
    if ref.shape != view.shape or ref.ndim != 2 or ref.shape[0] != ref.shape[1]:
        raise ShapeError(f"distance matrices must be equal and square, got {ref.shape} vs {view.shape}")
    k = ref.shape[0]
    ref_prof = np.sort(ref, axis=1)
    view_prof = np.sort(view, axis=1)
    profile_cost = ((ref_prof[:, None, :] - view_prof[None, :, :]) ** 2).sum(axis=2)
    perm = hungarian_max(-profile_cost)
    best = _structure_cost(ref, view, perm)
    # exceeds the rounding of a change and of the objective, O(k^2 eps) of this scale
    margin = 1e-9 * ((ref**2).sum() + (view**2).sum())
    improved = True
    while improved:
        improved, pair = False, 0  # pair: the next swap of this sweep, i * k + j
        while pair < k * k:
            screened = np.triu(_swap_deltas(ref, view[np.ix_(perm, perm)]) < margin - 1e-12, 1).ravel()
            candidates, pair = (pair + np.flatnonzero(screened[pair:])).tolist(), k * k
            for c in candidates:
                i, j = divmod(c, k)
                trial = perm.copy()
                trial[i], trial[j] = perm[j], perm[i]
                cost = _structure_cost(ref, view, trial)
                if cost < best - 1e-12:
                    perm, best, improved, pair = trial, cost, True, c + 1
                    break
    return perm


def correspondence(spaces: list[np.ndarray], labels: list[np.ndarray], k: int) -> list[np.ndarray]:
    """Common label of every sample, per view, for views that share no samples.

    View 0's k clusters name the common clusters. Every later view's
    cluster means in `spaces[v]` give a centroid-distance matrix, and
    `match_structure` pairs its clusters with view 0's.
    """
    ref = centroid_distances(spaces[0], labels[0], k)
    # perm maps common cluster -> view cluster, so its inverse labels the view's samples
    return [labels[0]] + [
        np.argsort(match_structure(ref, centroid_distances(x, view, k)))[view]
        for x, view in zip(spaces[1:], labels[1:])
    ]


def match_views(
    spaces: list[np.ndarray], view_labels: dict[int, list[np.ndarray]], final: int
) -> dict[int, list[np.ndarray]]:
    """Common label of every sample at every level of `view_labels`, in
    the layout of `view_labels`: per level, one (n_v,) array per view.

    The `final` level is the `correspondence` of the views' clusters. A
    coarser level inherits it: each coarse cluster of a later view joins
    view 0's coarse cluster whose mix of final-level common clusters is
    most alike, and view 0's coarse clusters name the common ones.
    """
    fine = correspondence(spaces, view_labels[final], final)
    common: dict[int, list[np.ndarray]] = {}
    for level, labels_per_view in view_labels.items():
        common[level] = fine
        if level != final:
            mixes = [
                np.bincount(labels * final + f, minlength=level * final).reshape(level, final).astype(np.float64)
                for labels, f in zip(labels_per_view, fine)
            ]
            common[level] = [labels_per_view[0]] + [
                np.argsort(hungarian_max(cosine_matrix(mixes[0], mix)))[labels]
                for mix, labels in zip(mixes[1:], labels_per_view[1:])
            ]
    return common
