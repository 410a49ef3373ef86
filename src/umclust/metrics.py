"""Clustering quality metrics and run reports.

All three scores are invariant under relabeling of the predicted
clusters: NMI normalizes mutual information by the arithmetic mean of
the two label entropies, ACC maps clusters to classes with the exact
maximum-weight matching before counting hits, and F1 is the harmonic
mean of precision/recall over unordered same-cluster sample pairs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cluster import hungarian_max, kmeans
from .data import write_csv
from .errors import ShapeError


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ShapeError(f"label arrays must be 1-D and equal length, got {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ShapeError("label arrays must be nonempty")
    return pred, truth


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    kp = int(pred.max()) + 1
    kt = int(truth.max()) + 1
    return np.bincount(pred * kt + truth, minlength=kp * kt).reshape(kp, kt)


def nmi(pred, truth) -> float:
    """Normalized mutual information (arithmetic-mean normalization).

    If both labelings are single-cluster the partitions are identical
    and the score is 1; if exactly one is single-cluster the mutual
    information is 0 and so is the score.
    """
    pred, truth = _check_pair(pred, truth)
    n = pred.size
    table = _contingency(pred, truth).astype(np.float64)
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    hp = -np.sum(pi[pi > 0] * np.log(pi[pi > 0]))
    ht = -np.sum(pj[pj > 0] * np.log(pj[pj > 0]))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    pij = table / n
    mask = pij > 0
    outer = pi[:, None] * pj[None, :]
    mi = float(np.sum(pij[mask] * np.log(pij[mask] / outer[mask])))
    denom = 0.5 * (hp + ht)
    if denom == 0.0:
        return 0.0
    return max(0.0, mi / denom)


def acc(pred, truth) -> float:
    """Clustering accuracy under the best cluster-to-class assignment."""
    pred, truth = _check_pair(pred, truth)
    table = _contingency(pred, truth)
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=np.float64)
    padded[: table.shape[0], : table.shape[1]] = table
    return float(padded[np.arange(k), hungarian_max(padded)].sum() / pred.size)


def pairwise_f1(pred, truth) -> float:
    """F-measure over unordered same-cluster sample pairs."""
    pred, truth = _check_pair(pred, truth)
    if pred.size < 2:
        raise ShapeError("pairwise F1 needs at least two samples")
    table = _contingency(pred, truth).astype(np.float64)

    def _pairs(counts: np.ndarray) -> float:
        return float((counts * (counts - 1) / 2).sum())

    tp = _pairs(table)
    pred_pairs = _pairs(table.sum(axis=1))
    true_pairs = _pairs(table.sum(axis=0))
    if pred_pairs == 0.0 or true_pairs == 0.0:
        return 0.0
    precision = tp / pred_pairs
    recall = tp / true_pairs
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ScopeScores:
    scope: str
    nmi: float
    acc: float
    f1: float
    n_samples: int

    def as_percent(self) -> dict:
        return {
            "scope": self.scope,
            "nmi": round(100.0 * self.nmi, 2),
            "acc": round(100.0 * self.acc, 2),
            "f1": round(100.0 * self.f1, 2),
            "n_samples": self.n_samples,
        }


@dataclass
class MetricsReport:
    scopes: list[ScopeScores]
    config_hash: str
    runtime_seconds: float

    def scope(self, name: str) -> ScopeScores:
        for s in self.scopes:
            if s.scope == name:
                return s
        raise KeyError(name)

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "scopes": [s.as_percent() for s in self.scopes],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["scope,nmi,acc,f1,n_samples"]
        for s in self.scopes:
            p = s.as_percent()
            lines.append(f"{p['scope']},{p['nmi']:.2f},{p['acc']:.2f},{p['f1']:.2f},{p['n_samples']}")
        return "\n".join(lines) + "\n"

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        (out / "metrics.json").write_text(self.to_json(), encoding="utf-8")
        (out / "metrics.csv").write_text(self.to_csv(), encoding="utf-8")


def score_scope(name: str, pred, truth) -> ScopeScores:
    pred = np.asarray(pred)
    return ScopeScores(
        scope=name,
        nmi=nmi(pred, truth),
        acc=acc(pred, truth),
        f1=pairwise_f1(pred, truth),
        n_samples=int(pred.shape[0]),
    )


def build_report(
    view_latents: list[np.ndarray],
    view_labels: list[np.ndarray],
    view_ids: list[int],
    all_view_pred: np.ndarray,
    n_clusters: int,
    kmeans_seed: int,
    restarts: int,
    max_iter: int,
    config_hash: str,
    started_at: float,
) -> MetricsReport:
    """Score the all-view assignment plus a fresh K-means per single view,
    whose scope is named by its id in `view_ids` (``view<id>``)."""
    scopes = [score_scope("all-view", all_view_pred, np.concatenate(view_labels))]
    for v, (view_id, z, y) in enumerate(zip(view_ids, view_latents, view_labels, strict=True)):
        assignment, _ = kmeans(z, n_clusters, seed=kmeans_seed + 1 + v, max_iter=max_iter, restarts=restarts)
        scopes.append(score_scope(f"view{view_id}", assignment.labels, y))
    return MetricsReport(
        scopes=scopes,
        config_hash=config_hash,
        runtime_seconds=time.time() - started_at,
    )


def export_embeddings(
    path: str | Path,
    ids: np.ndarray,
    view_of_row: np.ndarray,
    true_labels: np.ndarray,
    pred_labels: np.ndarray,
    latents: np.ndarray,
) -> None:
    """One CSV row per sample: id, view, true label, predicted label, coords.

    Coordinates are written at the round-trip digits of the latents'
    dtype (9 for float32, 17 for float64; see `data.write_csv`), so a
    parsed value cast to that dtype is the exported one bit for bit.
    """
    n = latents.shape[0]
    if not (ids.shape[0] == view_of_row.shape[0] == true_labels.shape[0] == pred_labels.shape[0] == n):
        raise ShapeError("embedding export inputs disagree in length")
    write_csv(path, np.column_stack([ids, view_of_row, true_labels, pred_labels]), latents)
