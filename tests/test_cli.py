"""Command-line runs end to end on a tiny synthetic dataset."""

import csv

import yaml

from umclust import cli


def _write_config(tmp_path):
    config = {
        "dataset": {
            "manifest": str(tmp_path / "data" / "manifest.json"),
            "synthetic": {
                "clusters": 2, "views": 2, "dims": [4, 5], "samples_per_cluster": 8,
                "separation": 6.0, "noise_std": 1.0, "seed": 0,
            },
        },
        "train": {"epochs": 4, "batch_size": 8, "latent_dim": 3, "hidden_dims": [6], "final_restarts": 1},
        "sweep": {"lambda2": [0.01, 0.02]},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def test_sweep_records_a_failed_point_and_finishes(tmp_path, monkeypatch):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    real_point = cli._sweep_point

    def flaky_point(task):
        if task[4] == "lambda2=0.02":
            raise RuntimeError("worker blew up")
        return real_point(task)

    monkeypatch.setattr(cli, "_sweep_point", flaky_point)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "-c", str(config), "-o", str(out), "--jobs", "1", "--quiet"]) == 0
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda2"] for r in rows] == ["0.01", "0.02"]
    assert rows[0]["status"] == "ok" and rows[0]["nmi"] != ""
    assert rows[1]["status"] == "failed: RuntimeError: worker blew up"
    assert rows[1]["nmi"] == rows[1]["acc"] == rows[1]["f1"] == ""
