"""The benchmark's own tests: tiny runs of every workload pass the output
checks, and run directories with tampered outputs fail them.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np
import pytest

import run
from checks import CheckFailed, acc, check_eval, check_generate, check_train, nmi, pairwise_f1
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def tiny(workload):
    """The workload's views, widths and K on a few samples and a small network."""
    return dataclasses.replace(
        workload,
        synthetic={**workload.synthetic, "samples_per_cluster": 4},
        train={"epochs": 4, "batch_size": 16, "hidden_dims": [8], "latent_dim": 4, "final_restarts": 2},
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_of_each_workload_passes_every_check(name, tmp_path):
    tally = run.Tally()
    workload = tiny(WORKLOADS[name])
    figures = run.timed_round(workload, 5, tmp_path, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2 * workload.repeats + 1, 0, [])
    assert set(run.metric_units(trace=False)) <= set(figures)
    assert all(v > 0 for values in figures.values() for v in values)


def test_traced_round_reports_every_layer_metric(tmp_path):
    tally = run.Tally()
    figures = run.traced_round(tiny(WORKLOADS["views8"]), 5, tmp_path, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 0, [])
    assert set(figures) == set(run.metric_units(trace=True))
    figures = {name: value for name, (value,) in figures.items()}
    assert figures["nn.adam_steps"] > 0 and figures["cluster.kmeans_iters"] > 0
    assert figures["train.refresh_calls"] >= 1 and figures["nn.checkpoint_mb"] > 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny generate + train, shared read-only; tests tamper with copies."""
    workload = tiny(WORKLOADS["many-samples"])
    work = tmp_path_factory.mktemp("trained")
    data_dir, run_dir = work / "data", work / "run"
    config = workload.write_config(work / "config.yaml", 3, data_dir)
    assert run.run_child("generate", config, data_dir, work / "g.log").ok
    assert run.run_child("train", config, run_dir, work / "t.log").ok
    return workload, config, data_dir, run_dir


@pytest.fixture
def run_copy(trained, tmp_path):
    workload, config, data_dir, run_dir = trained
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return workload, config, data_dir, copy


def _check(run_copy):
    workload, config, data_dir, run_dir = run_copy
    return check_train(run_dir, data_dir, config, workload.train)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_untampered_copy_passes(run_copy):
    metrics = _check(run_copy)
    check_eval(metrics, metrics)


def test_permuted_predicted_labels_fail(run_copy):
    path = run_copy[3] / "embeddings.csv"
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    preds = [r[3] for r in rows]
    shuffled = np.random.default_rng(0).permutation(len(preds))
    for r, j in zip(rows, shuffled):
        r[3] = preds[j]
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(CheckFailed, match="all-view"):
        _check(run_copy)


def test_missing_embedding_row_fails(run_copy):
    _rewrite(run_copy[3] / "embeddings.csv", lambda lines: lines[:-1])
    with pytest.raises(CheckFailed, match="embeddings.csv"):
        _check(run_copy)


def test_id_in_two_views_fails(run_copy):
    def edit(lines):
        first = lines[0].split(",")
        last = lines[-1].split(",")
        last[0] = first[0]
        return [*lines[:-1], ",".join(last)]

    _rewrite(run_copy[3] / "embeddings.csv", edit)
    with pytest.raises(CheckFailed, match="two rows or views"):
        _check(run_copy)


def test_non_finite_latent_fails(run_copy):
    def edit(lines):
        cells = lines[0].rstrip("\n").split(",")
        cells[-1] = "nan"
        return [",".join(cells) + "\n", *lines[1:]]

    _rewrite(run_copy[3] / "embeddings.csv", edit)
    with pytest.raises(CheckFailed, match="finite"):
        _check(run_copy)


def test_short_loss_curve_fails(run_copy):
    _rewrite(run_copy[3] / "loss_curve.csv", lambda lines: lines[:-1])
    with pytest.raises(CheckFailed, match="loss_curve"):
        _check(run_copy)


def test_reported_score_off_by_rounding_step_fails(run_copy):
    path = run_copy[3] / "metrics.json"
    metrics = json.loads(path.read_text(encoding="utf-8"))
    run_scope = next(s for s in metrics["scopes"] if s["scope"] == "all-view")
    run_scope["acc"] = round(run_scope["acc"] + 0.01, 2)
    path.write_text(json.dumps(metrics), encoding="utf-8")
    with pytest.raises(CheckFailed, match="ACC"):
        _check(run_copy)


def test_checkpoint_under_another_hash_fails(run_copy):
    from umclust.nn import load_checkpoint, save_checkpoint

    path = run_copy[3] / "checkpoint.npz"
    ck = load_checkpoint(path)
    save_checkpoint(path, config_hash="0" * 64, epoch=ck.epoch, adam_t=ck.adam_t, params=ck.params,
                    stats=ck.stats, adam_arrays=ck.adam_arrays, warm_centroids=ck.warm_centroids)
    with pytest.raises(CheckFailed, match="run hash"):
        _check(run_copy)


def test_eval_that_differs_from_train_fails(run_copy):
    metrics = _check(run_copy)
    changed = json.loads(json.dumps(metrics))
    changed["scopes"][1]["nmi"] += 0.01
    with pytest.raises(CheckFailed, match="eval"):
        check_eval(changed, metrics)


def test_generated_data_of_another_shape_fails(trained):
    workload, _, data_dir, _ = trained
    other = {**workload.synthetic, "samples_per_cluster": workload.synthetic["samples_per_cluster"] + 1}
    with pytest.raises(CheckFailed, match="samples"):
        check_generate(data_dir, other)


def test_scores_agree_with_the_package_and_ignore_relabeling():
    from umclust import metrics

    rng = np.random.default_rng(1)
    truth = rng.integers(0, 6, size=300)
    pred = np.where(rng.random(300) < 0.7, truth, rng.integers(0, 6, size=300))
    relabeled = (pred + 2) % 6
    assert nmi(pred, truth) == pytest.approx(metrics.nmi(pred, truth), abs=1e-12)
    assert acc(pred, truth) == pytest.approx(metrics.acc(pred, truth), abs=1e-12)
    assert nmi(relabeled, truth) == pytest.approx(nmi(pred, truth), abs=1e-12)
    assert pairwise_f1(pred, truth) == pytest.approx(metrics.pairwise_f1(pred, truth), abs=1e-12)
    assert acc(relabeled, truth) == pytest.approx(acc(pred, truth), abs=1e-12)
    assert nmi(truth, truth) == pytest.approx(1.0) and acc(truth, truth) == 1.0
