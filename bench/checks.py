"""Checks of `umclust` outputs that do not rely on the program's own scoring.

NMI and pairwise F1 are recomputed from `embeddings.csv` with this
file's contingency table and ACC with
`scipy.optimize.linear_sum_assignment`; all three must
agree with `metrics.json` at its two-decimal rounding of percentages.
The row set of `embeddings.csv` is compared with the generated
manifest. Only the checkpoint check calls into the package: it loads
`checkpoint.npz` through `load_checkpoint` under the run hash of the
run's configuration and data.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    return table


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information over the arithmetic mean of the two entropies."""
    table = contingency(pred, truth) / pred.size
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    h_rows = -np.sum(rows * np.log(rows))
    h_cols = -np.sum(cols * np.log(cols))
    if h_rows == 0.0 and h_cols == 0.0:
        return 1.0
    nz = table > 0
    mi = np.sum(table[nz] * np.log(table[nz] / np.outer(rows, cols)[nz]))
    return float(max(0.0, mi / (0.5 * (h_rows + h_cols))))


def acc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Share of samples whose cluster maps to their class under the best
    one-to-one cluster-to-class mapping."""
    table = contingency(pred, truth)
    r, c = linear_sum_assignment(table, maximize=True)
    return float(table[r, c].sum() / pred.size)


def pairwise_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """F-measure over unordered sample pairs placed in one cluster."""
    table = contingency(pred, truth)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    same_both, same_pred, same_truth = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    if same_both == 0.0:
        return 0.0
    precision, recall = same_both / same_pred, same_both / same_truth
    return 2.0 * precision * recall / (precision + recall)


def _percent_matches(recomputed: float, reported: float) -> bool:
    return abs(100.0 * recomputed - reported) <= 0.005 + 1e-9


def scope(metrics: dict, name: str) -> dict:
    for s in metrics["scopes"]:
        if s["scope"] == name:
            return s
    raise CheckFailed(f"metrics.json has no scope {name!r}")


def manifest_rows(data_dir: Path) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Manifest plus (ids, view, class) of every sample, views in manifest order."""
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    labels = np.loadtxt(data_dir / manifest["labels"], delimiter=",", dtype=np.int64, ndmin=2)
    label_of = dict(zip(labels[:, 0].tolist(), labels[:, 1].tolist()))
    ids, views = [], []
    for entry in manifest["views"]:
        view_ids = np.loadtxt(data_dir / entry["path"], delimiter=",", usecols=0, ndmin=1)
        ids.append(view_ids.astype(np.int64))
        views.append(np.full(view_ids.shape[0], int(entry["id"])))
    ids_all = np.concatenate(ids)
    require(all(i in label_of for i in ids_all.tolist()), "labels.csv misses a sample id")
    classes = np.array([label_of[i] for i in ids_all.tolist()], dtype=np.int64)
    return manifest, ids_all, np.concatenate(views), classes


def check_generate(data_dir: Path, synthetic: dict) -> None:
    """The generated dataset has the workload's shape and unique ids."""
    manifest, ids, views, classes = manifest_rows(data_dir)
    k, n_views = synthetic["clusters"], synthetic["views"]
    require(manifest["clusters"] == k, f"manifest has {manifest['clusters']} clusters, expected {k}")
    require([e["dim"] for e in manifest["views"]] == list(synthetic["dims"]), "manifest view dims differ")
    require(np.unique(ids).size == ids.size, "a sample id appears twice")
    per_view = k * synthetic["samples_per_cluster"]
    require(np.array_equal(np.bincount(views, minlength=n_views), np.full(n_views, per_view)),
            "a view has the wrong number of samples")
    require(np.array_equal(np.bincount(classes, minlength=k), np.full(k, n_views * synthetic["samples_per_cluster"])),
            "a class has the wrong number of samples")


def check_train(run_dir: Path, data_dir: Path, config_path: Path, train: dict) -> dict:
    """Check a train run directory; returns its `metrics.json`."""
    _, ids, views, classes = manifest_rows(data_dir)
    metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
    k = int(json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))["clusters"])

    emb = np.loadtxt(run_dir / "embeddings.csv", delimiter=",", ndmin=2)
    latent_dim = int(train.get("latent_dim", 128))
    require(emb.shape == (ids.size, 4 + latent_dim),
            f"embeddings.csv is {emb.shape}, expected {(ids.size, 4 + latent_dim)}")
    require(np.unique(emb[:, 0]).size == emb.shape[0], "embeddings.csv lists an id in two rows or views")
    require(np.array_equal(emb[:, 0], ids) and np.array_equal(emb[:, 1], views),
            "embeddings.csv ids or views differ from the manifest")
    require(np.array_equal(emb[:, 2], classes), "embeddings.csv true labels differ from labels.csv")
    pred = emb[:, 3].astype(np.int64)
    require(np.array_equal(pred, emb[:, 3]) and pred.min() >= 0 and pred.max() < k,
            "predicted labels are not cluster indices")
    require(np.all(np.bincount(pred, minlength=k) > 0), "a predicted cluster is empty")
    require(bool(np.isfinite(emb[:, 4:]).all()), "a latent coordinate is not finite")

    all_view = scope(metrics, "all-view")
    require(all_view["n_samples"] == ids.size, "all-view scope counts the wrong number of samples")
    require(_percent_matches(nmi(pred, classes), all_view["nmi"]),
            f"all-view NMI {all_view['nmi']} differs from recomputed {100 * nmi(pred, classes):.4f}")
    require(_percent_matches(acc(pred, classes), all_view["acc"]),
            f"all-view ACC {all_view['acc']} differs from recomputed {100 * acc(pred, classes):.4f}")
    require(_percent_matches(pairwise_f1(pred, classes), all_view["f1"]),
            f"all-view F1 {all_view['f1']} differs from recomputed {100 * pairwise_f1(pred, classes):.4f}")
    n_views = int(views.max()) + 1
    for v in range(n_views):
        require(0.0 <= scope(metrics, f"view{v}")["nmi"] <= 100.0, f"view{v} NMI out of range")

    with open(run_dir / "loss_curve.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    curve = np.loadtxt(run_dir / "loss_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    epochs = int(train["epochs"])
    require(curve.shape == (epochs, len(header)), f"loss_curve.csv is {curve.shape}, expected {epochs} rows")
    require(np.array_equal(curve[:, 0], np.arange(1, epochs + 1)), "loss_curve.csv epochs are not 1..E")
    require(bool(np.isfinite(curve).all()), "loss_curve.csv holds a non-finite value")

    check_checkpoint(run_dir, config_path, metrics["config_hash"])
    return metrics


def check_checkpoint(run_dir: Path, config_path: Path, reported_hash: str) -> None:
    from umclust import config, data, errors
    from umclust.nn import load_checkpoint
    from umclust.train import run_hash

    run_config = config.load_config(config_path)
    ds = data.scale_dataset(data.load(run_config.dataset.manifest), run_config.dataset.scale)
    expected = run_hash(run_config.train, ds)
    require(reported_hash == expected, "metrics.json carries another run hash")
    try:
        ck = load_checkpoint(run_dir / "checkpoint.npz", expect_config_hash=expected)
    except errors.CheckpointError as exc:
        raise CheckFailed(f"checkpoint does not load under the run hash: {exc}") from exc
    require(ck.epoch == run_config.train.epochs, f"checkpoint is from epoch {ck.epoch}")


def check_eval(eval_metrics: dict, train_metrics: dict) -> None:
    """`umclust eval` reproduces every score and the hash of the train run."""
    require(eval_metrics["config_hash"] == train_metrics["config_hash"], "eval ran under another run hash")
    require(eval_metrics["scopes"] == train_metrics["scopes"],
            "eval scores differ from train scores")
