"""Independent brute-force reference implementations.

Everything here is deliberately naive — nested loops, exhaustive
enumeration — and shares no code with the package internals it checks,
except the last sections: earlier implementations that a faster one
replaced, kept as references for it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from umclust.cluster import hungarian_max
from umclust.losses import _nt_xent_rows


def brute_hungarian(weights: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Exhaustive max-weight assignment: best (value, row-to-column map)."""
    n = weights.shape[0]
    best_value = -math.inf
    best_perm: tuple[int, ...] | None = None
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        value = float(weights[rows, list(perm)].sum())
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_value, best_perm


def brute_silhouette(z: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Per-sample silhouette, straight from the definition."""
    n = z.shape[0]
    points = [tuple(row) for row in z]
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = sum(math.dist(points[i], points[j]) for j in same) / len(same)
        b = math.inf
        for c in range(k):
            if c == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == c]
            if not members:
                continue
            b = min(b, sum(math.dist(points[i], points[j]) for j in members) / len(members))
        if not math.isfinite(b):
            scores.append(0.0)
            continue
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return sum(scores) / n


def brute_nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    n = len(pred)
    ps = sorted(set(pred.tolist()))
    ts = sorted(set(truth.tolist()))
    hp = 0.0
    for c in ps:
        p = sum(1 for x in pred if x == c) / n
        hp -= p * math.log(p)
    ht = 0.0
    for c in ts:
        p = sum(1 for x in truth if x == c) / n
        ht -= p * math.log(p)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    mi = 0.0
    for cp in ps:
        for ct in ts:
            joint = sum(1 for a, b in zip(pred, truth) if a == cp and b == ct) / n
            if joint > 0:
                pa = sum(1 for x in pred if x == cp) / n
                pb = sum(1 for x in truth if x == ct) / n
                mi += joint * math.log(joint / (pa * pb))
    denom = (hp + ht) / 2
    return 0.0 if denom == 0 else max(0.0, mi / denom)


def brute_acc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best cluster-to-class mapping over all permutations of the padded table."""
    kp = int(pred.max()) + 1
    kt = int(truth.max()) + 1
    k = max(kp, kt)
    table = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(pred, truth):
        table[a, b] += 1
    best = 0
    for perm in itertools.permutations(range(k)):
        best = max(best, sum(table[i, perm[i]] for i in range(k)))
    return best / len(pred)


def brute_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    n = len(pred)
    tp = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                tp += 1
            elif same_p:
                fp += 1
            elif same_t:
                fn += 1
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def brute_pair_sets(levels: list[np.ndarray], n: int) -> tuple[list[set[int]], list[set[int]]]:
    """Same/different-cluster relation intersected across levels, per sample."""
    tp: list[set[int]] = [set() for _ in range(n)]
    tn: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_everywhere = all(lv[i] == lv[j] for lv in levels)
            diff_everywhere = all(lv[i] != lv[j] for lv in levels)
            if same_everywhere:
                tp[i].add(j)
            if diff_everywhere:
                tn[i].add(j)
    return tp, tn


def _brute_cosine(a, b) -> float:
    """Cosine similarity of two rows; an all-zero row is similar to nothing."""
    na = math.sqrt(sum(float(x) * float(x) for x in a))
    nb = math.sqrt(sum(float(x) * float(x) for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return sum(float(x) * float(y) for x, y in zip(a, b)) / (na * nb)


def brute_inner_contrastive(
    z_batches: list[np.ndarray],
    tp_sets: list[list[set[int]]],
    tn_sets: list[list[set[int]]],
    temperature: float,
) -> float:
    """Inner-view NT-Xent straight from its definition.

    Per view of b rows: sum over anchors i, over positives j in tp(i), of
    -log(exp(s_ij/tau) / sum_{k in tn(i)} exp(s_ik/tau)) / (V * b * |tp(i)|),
    with s the cosine similarity; anchors lacking positives or negatives
    are skipped.
    """
    n_views = len(z_batches)
    total = 0.0
    for z, tp, tn in zip(z_batches, tp_sets, tn_sets):
        b = z.shape[0]
        for i in range(b):
            if not tp[i] or not tn[i]:
                continue
            denom = sum(math.exp(_brute_cosine(z[i], z[k]) / temperature) for k in tn[i])
            for j in tp[i]:
                term = -math.log(math.exp(_brute_cosine(z[i], z[j]) / temperature) / denom)
                total += term / (n_views * b * len(tp[i]))
    return total


def brute_common_contrastive(
    z_batches: list[np.ndarray],
    batch_common_labels: dict[int, np.ndarray],
    batch_view_labels: dict[int, list[np.ndarray]],
    matchings: dict[int, list[np.ndarray]],
    active_levels: tuple[int, ...],
    temperature: float,
) -> float:
    """Common-view NT-Xent straight from its definition.

    Anchors are the N rows of the concatenated batch. At each level, view
    sample j of view v is a positive of anchor i when the matching of v
    links i's common cluster to j's view cluster, a negative otherwise.
    Each positive pair adds -log(exp(s_ij/tau) / sum over i's negatives in
    every view of exp(s/tau)) / (N * V * b_v); anchors with no negative
    are skipped, and the levels are averaged.
    """
    n_views = len(z_batches)
    anchors = [row for z in z_batches for row in z]
    n_union = len(anchors)
    total = 0.0
    for level in active_levels:
        for i, anchor in enumerate(anchors):
            g = int(batch_common_labels[level][i])
            pos: list[tuple[int, int]] = []
            neg: list[tuple[int, int]] = []
            for v, z in enumerate(z_batches):
                for j in range(z.shape[0]):
                    linked = matchings[level][v][g][int(batch_view_labels[level][v][j])]
                    (pos if linked else neg).append((v, j))
            if not neg:
                continue
            denom = sum(math.exp(_brute_cosine(anchor, z_batches[v][j]) / temperature) for v, j in neg)
            for v, j in pos:
                term = -math.log(math.exp(_brute_cosine(anchor, z_batches[v][j]) / temperature) / denom)
                total += term / (n_union * n_views * z_batches[v].shape[0])
    return total / len(active_levels)


def brute_cross_view_guidance(
    z_batches: list[np.ndarray],
    centroids: np.ndarray,
    matchings: list[np.ndarray],
    view_labels: list[np.ndarray],
    floor: float = 1e-8,
) -> float:
    """Cross-view guidance straight from its definition.

    In every view v, sample i of view cluster c targets the one common
    cluster g that the matching of v links to c. Its heavy-tailed
    assignment
    q_ig = (1 + |z_i - mu_g|^2)^-1 / sum_h (1 + |z_i - mu_h|^2)^-1, floored
    at `floor`, adds -log(q_ig) / b_v, and the view's sum is weighted
    1 / V^2 once for each of the other V - 1 views.
    """
    n_views = len(z_batches)
    total = 0.0
    for v, z in enumerate(z_batches):
        view_sum = 0.0
        for i, row in enumerate(z):
            cluster = int(view_labels[v][i])
            (target,) = [g for g in range(len(centroids)) if matchings[v][g][cluster]]
            kernel = [1.0 / (1.0 + sum((a - m) ** 2 for a, m in zip(row, mu))) for mu in centroids]
            view_sum -= math.log(max(kernel[target] / sum(kernel), floor))
        total += view_sum / z.shape[0] * (n_views - 1) / n_views**2
    return total


def brute_two_partition_kmeans(z: np.ndarray) -> float:
    """Best 2-cluster within-cluster sum of squares by exhausting partitions."""
    n = z.shape[0]
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        groups = [[], []]
        for i in range(n):
            groups[(bits >> i) & 1].append(i)
        if not groups[0] or not groups[1]:
            continue
        cost = 0.0
        for members in groups:
            pts = z[members]
            cost += float(((pts - pts.mean(axis=0)) ** 2).sum())
        best = min(best, cost)
    return best


def finite_difference_gradients(params: dict, loss_fn, h: float = 1e-5) -> dict:
    """Central-difference gradient of loss_fn() w.r.t. every entry of every
    parameter array, each perturbed in place (so C-contiguous). loss_fn
    must re-run the full forward pass."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        assert np.shares_memory(flat, p), name
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_relative_gradient_error(analytic: dict, numeric: dict, floor: float = 1e-3) -> float:
    """Worst per-entry |a - b| / max(|a|, |b|, floor) over all parameters.

    The floor keeps central-difference roundoff on near-zero entries from
    registering as huge relative errors.
    """
    worst = 0.0
    for name in numeric:
        a = analytic[name]
        b = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def brute_pairwise_distances(z: np.ndarray) -> np.ndarray:
    """Euclidean distance of every pair of rows, one `math.dist` each."""
    points = [tuple(row) for row in z]
    return np.array([[math.dist(p, q) for q in points] for p in points])


def reference_lloyd(
    z: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's loop with the centroid sums scattered by `np.add.at`.

    Unlike the rest of this module it is vectorised: it pins down the
    package's summation order, so it repeats the package's assignment
    arithmetic (Gram-form squared distances, empty clusters in ascending
    order each seizing the point farthest from its own centroid) and
    must match `kmeans` bit for bit. Stops once an assignment returns
    the labels the centroids were averaged from, or after `max_iter`
    iterations. Returns labels, centroids and the inertia after every
    assignment.
    """
    n, k = z.shape[0], centers.shape[0]

    def assign(c):
        d2 = np.einsum("ij,ij->i", z, z)[:, None] + np.einsum("ij,ij->i", c, c)[None, :] - 2.0 * (z @ c.T)
        np.maximum(d2, 0.0, out=d2)
        labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), labels].copy()
        for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            p = int(np.argmax(own))
            labels[p] = j
            own[p] = -1.0
        return labels, float(d2[np.arange(n), labels].sum())

    labels, inertia = assign(centers)
    history = [inertia]
    for _ in range(max_iter):
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, z)
        centers = sums / np.bincount(labels, minlength=k).astype(np.float64)[:, None]
        averaged = labels
        labels, inertia = assign(centers)
        history.append(inertia)
        if np.array_equal(labels, averaged):
            break
    return labels, centers, history


# ---------------------------------------------------------------------------
# op-by-op layers and the whole-array Adam step: the bit-for-bit
# references for the forward pass of the one-node layers in
# `umclust.nn.mlp` and the chunked update fused into backward in
# `umclust.nn.adam`. The layers are plain numpy, one elementary
# operation at a time; their gradients are checked against finite
# differences instead.


def op_by_op_linear(x, weight, bias):
    """x @ weight + bias as two operations."""
    return x @ weight + bias


def op_by_op_batchnorm_relu(x, gamma, beta, running_mean, running_var, momentum, eps, update_stats):
    """Train-mode batch normalization then ReLU, one operation at a time;
    the running statistics move in place when `update_stats`."""
    inv_b = 1.0 / x.shape[0]
    mu = x.sum(axis=0) * inv_b
    centered = x - mu
    var = (centered * centered).sum(axis=0) * inv_b
    if update_stats:
        for stat, batch in ((running_mean, mu), (running_var, var)):
            stat *= momentum
            stat += (1 - momentum) * batch
    denom = np.sqrt(var + eps)
    y = centered / denom * gamma + beta
    return np.where(y > 0, y, 0.0)


def whole_array_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step `t` on whole arrays, all updated in place."""
    b1t = 1.0 - beta1**t
    b2t = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)


def two_phase_adam_step(params, moments, t, lr, backward):
    """Adam step `t` in two phases: `backward(update)` with every
    parameter's gradient collected, all alive at once, then
    `whole_array_adam` on each parameter. `moments` maps ``m/<name>``
    and ``v/<name>`` to arrays updated in place."""
    grads = {}

    def collect(p, g):
        assert id(p) not in grads
        grads[id(p)] = g

    backward(collect)
    for name, p in params.items():
        whole_array_adam(p, grads.pop(id(p)), moments[f"m/{name}"], moments[f"v/{name}"], t, lr)
    assert not grads


# ---------------------------------------------------------------------------
# the blockwise common-view term: the reference for the one-exponent-per-
# block `umclust.losses.common_contrastive_loss`. It runs the package's
# `_nt_xent_rows` (checked on its own through l_in against
# `brute_inner_contrastive`) once per anchor view and level, with the row
# max over each level's negatives as the exponent's shift.


def blockwise_common_contrastive(
    z_batches: list[np.ndarray],
    batch_common_labels: dict[int, np.ndarray],
    temperature: float,
) -> tuple[float, list[np.ndarray]]:
    """Anchor every concatenated-batch sample against each view's batch;
    the value and its gradient in each view's latent batch.

    At each level of `batch_common_labels` (common cluster per row of the
    concatenated batch), a pair (anchor i, view sample j) is positive when
    i and j share a common cluster, negative otherwise, and weighs
    1/(N * V * b_v) for N anchors and b_v samples in view v. Each level
    contributes an NT-Xent term whose denominator pools that anchor's
    negatives across all views; levels are averaged. Every anchor is its
    own positive; anchors with no negatives contribute nothing.

    The concatenated view batches, each row divided by its norm (an
    all-zero row stays zero and gets no gradient), are the anchors
    themselves, so each level's similarities come from the normalized
    union with itself, built one anchor view (b_v x N) at a time.
    """
    n_views = len(z_batches)
    inv_temp = 1.0 / float(temperature)
    z = np.concatenate(z_batches)
    norm = np.linalg.norm(z, axis=1)
    nonzero = norm > 0
    u = np.zeros_like(z)
    u[nonzero] = z[nonzero] / norm[nonzero, None]
    sizes = [b.shape[0] for b in z_batches]
    offsets = np.cumsum([0, *sizes])
    n_union = int(offsets[-1])
    col_weight = np.repeat([1.0 / (n_union * n_views * b_v) for b_v in sizes], sizes)
    value = 0.0
    grad = np.zeros_like(u)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        g_blk = np.zeros((hi - lo, n_union))
        for common in batch_common_labels.values():
            pos = common[lo:hi, None] == common[None, :]
            level_value, g = _nt_xent_rows(u[lo:hi] @ u.T, pos * col_weight, ~pos, inv_temp)
            value += level_value
            g_blk += g
        grad[lo:hi] += g_blk @ u
        grad += g_blk.T @ u[lo:hi]
    scale = 1.0 / len(batch_common_labels)
    grad_z = np.zeros_like(z)
    radial = (u[nonzero] * grad[nonzero]).sum(axis=1, keepdims=True)
    grad_z[nonzero] = (grad[nonzero] - radial * u[nonzero]) / norm[nonzero, None]
    return value * scale, np.split(grad_z * scale, offsets[1:-1])


# ---------------------------------------------------------------------------
# the exhaustive swap sweep: the reference for `match_structure`, which
# screens each swap by its O(k) objective change first


def exhaustive_match_structure(ref: np.ndarray, view: np.ndarray) -> np.ndarray:
    """`match_structure` with the full k x k objective computed for every
    trial swap: the same Hungarian start on the sorted distance profiles,
    then swaps in (i, j) order, each taken when it lowers the objective by
    more than 1e-12, until a sweep takes none."""
    k = ref.shape[0]
    profile_cost = ((np.sort(ref, axis=1)[:, None, :] - np.sort(view, axis=1)[None, :, :]) ** 2).sum(axis=2)
    perm = hungarian_max(-profile_cost)

    def cost(p):
        return float(((ref - view[np.ix_(p, p)]) ** 2).sum())

    best = cost(perm)
    improved = True
    while improved:
        improved = False
        for i in range(k):
            for j in range(i + 1, k):
                trial = perm.copy()
                trial[i], trial[j] = perm[j], perm[i]
                trial_cost = cost(trial)
                if trial_cost < best - 1e-12:
                    perm, best, improved = trial, trial_cost, True
    return perm
