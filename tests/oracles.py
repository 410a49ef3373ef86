"""Independent brute-force reference implementations.

Everything here is deliberately naive — nested loops, exhaustive
enumeration — and shares no code with the package internals it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
    parameter tensor. loss_fn must re-run the full forward pass."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
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
