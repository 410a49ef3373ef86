"""Command-line runs end to end on a tiny synthetic dataset."""

import csv
import os

import yaml

from umclust import cli


_real_sweep_point = cli._sweep_point


def _exit_on_second_point(task):
    """Kills its worker process for one grid point; module level so a pool can pickle it."""
    if task[4] == "lambda2=0.02":
        os._exit(1)
    return _real_sweep_point(task)


def _write_config(tmp_path, lambda2=(0.01, 0.02)):
    config = {
        "dataset": {
            "manifest": str(tmp_path / "data" / "manifest.json"),
            "synthetic": {
                "clusters": 2, "views": 2, "dims": [4, 5], "samples_per_cluster": 8,
                "separation": 6.0, "noise_std": 1.0, "seed": 0,
            },
        },
        "train": {"epochs": 4, "batch_size": 8, "latent_dim": 3, "hidden_dims": [6], "final_restarts": 1},
        "sweep": {"lambda2": list(lambda2)},
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


def test_sweep_reruns_points_a_crashed_worker_took_down(tmp_path, monkeypatch):
    config = _write_config(tmp_path, lambda2=(0.01, 0.02, 0.03))
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    monkeypatch.setattr(cli, "_sweep_point", _exit_on_second_point)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "-c", str(config), "-o", str(out), "--jobs", "2", "--quiet"]) == 0
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["lambda2"] for r in rows] == ["0.01", "0.02", "0.03"]
    assert [r["status"] for r in rows[::2]] == ["ok", "ok"]
    assert rows[1]["status"].startswith("failed: BrokenProcessPool")


def test_negative_seed_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "data"
    assert cli.main(["generate", "-c", str(config), "-o", str(out), "--seed", "-1", "--quiet"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_train_values_exit_2_before_the_run_directory(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    for train, key in (({"latent_dim": 0}, "train.latent_dim"), ({"hidden_dims": [6, 0]}, "train.hidden_dims")):
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["train"].update(train)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["train", "-c", str(bad), "-o", str(out), "--quiet"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
