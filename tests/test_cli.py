"""Command-line runs end to end on a tiny synthetic dataset."""

import csv
import json
import os
import tracemalloc

import numpy as np
import pytest
import yaml

from damage import flip_a_data_byte, set_first_value
from umclust import cli, data
from umclust import config as cfg
from umclust import train as train_module
from umclust.nn import checkpoint, load_checkpoint, save_checkpoint


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
    assert (out / "run-lambda2=0.01" / "metrics.json").exists()
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


def test_sweep_values_that_print_alike_exit_2_before_the_sweep_directory(tmp_path, capsys):
    config = _write_config(tmp_path, lambda2=(0.1, 0.1, 0.10000001))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "sweep.lambda2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_refuses_fewer_than_one_job_before_the_sweep_directory(tmp_path, capsys, jobs):
    config = _write_config(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "-c", str(config), "-o", str(out), "--jobs", jobs, "--quiet"]) == 2
    assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_point_with_unusable_levels_fails_before_its_run_directory(tmp_path):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["train"]["cluster_levels"] = [2, 5]
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["status"].startswith("failed: ConfigError: train.cluster_levels") for r in rows)
    assert sorted(p.name for p in out.iterdir()) == ["config.yaml", "summary.csv"]


def test_eval_reproduces_train_and_refuses_other_checkpoints(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    trained = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    evaluated = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert evaluated["scopes"] == trained["scopes"]
    assert evaluated["config_hash"] == trained["config_hash"]
    capsys.readouterr()

    assert cli.main(["eval", "-c", str(config), "-o", str(tmp_path / "empty"), "--quiet"]) == 2
    assert "no checkpoint at" in capsys.readouterr().err

    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["train"]["learning_rate"] = 0.5
    altered = tmp_path / "altered.yaml"
    altered.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert cli.main(["eval", "-c", str(altered), "-o", str(out), "--quiet"]) == 2
    assert "checkpoint was written with a different configuration" in capsys.readouterr().err


def test_metrics_csv_lists_the_scopes_of_metrics_json(tmp_path):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    scopes = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["scopes"]
    with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scope"] for r in rows] == [s["scope"] for s in scopes]
    assert "all-view" in {r["scope"] for r in rows}
    for row, scope in zip(rows, scopes):
        assert {m: float(row[m]) for m in ("nmi", "acc", "f1")} == {m: scope[m] for m in ("nmi", "acc", "f1")}
        assert int(row["n_samples"]) == scope["n_samples"]


@pytest.mark.parametrize("argv", [["train", "--jobs", "2"], ["eval", "--force"]])
def test_options_of_other_commands_exit_2(tmp_path, capsys, argv):
    config = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "-c", str(config), "-o", str(tmp_path / "run"), "--quiet"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_of_a_damaged_checkpoint_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    path = out / "checkpoint.npz"
    capsys.readouterr()

    ck = load_checkpoint(path)
    name = next(iter(ck.stats))
    save_checkpoint(
        path, config_hash=ck.config_hash, epoch=ck.epoch, adam_t=ck.adam_t, params=ck.params,
        stats={**ck.stats, name: np.zeros(ck.stats[name].size + 1)},
        adam_arrays=ck.adam_arrays, warm_centroids=ck.warm_centroids,
    )
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert f"shape mismatch for statistic {name}" in capsys.readouterr().err

    # a finished run saves no warm centroids, so inject one whose level is no integer
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays["warm/view0/level2"] = np.zeros((2, 3))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "malformed checkpoint" in capsys.readouterr().err

    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "unreadable checkpoint" in capsys.readouterr().err


def test_eval_of_a_checkpoint_with_bad_entry_data_exits_2(tmp_path, capsys):
    # NaN or inf in a weight or statistic, or a flipped byte that only the
    # entry's CRC catches: refused, not scored
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    path = out / "checkpoint.npz"
    sound = path.read_bytes()
    capsys.readouterr()
    for entry in ("param/v0.enc.lin0.weight", "param/v1.enc.lin0.weight", "stat/v0.enc.bn0.running_var"):
        for value in (np.nan, np.inf):
            set_first_value(path, entry, value)
            assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2, (entry, value)
            assert f"non-finite values in checkpoint entry '{entry}'" in capsys.readouterr().err
            path.write_bytes(sound)
    flip_a_data_byte(path, "param/v0.enc.lin0.weight")
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unreadable checkpoint" in err and "Bad CRC-32" in err


def _rewrite(path, edit) -> None:
    """Save the checkpoint at `path` again after `edit(arrays)` has changed its entries."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_eval_of_a_checkpoint_of_another_dtype_or_format_exits_2(tmp_path, capsys):
    # a float64 entry is refused, not rounded into the float32 model; so is
    # a float64 checkpoint of format 1, and a format-2 one that still holds
    # its decoders, by their format
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    path = out / "checkpoint.npz"
    sound = path.read_bytes()
    capsys.readouterr()
    for entry, label in (("param/v0.enc.lin0.weight", "parameter"), ("stat/v1.enc.bn0.running_var", "statistic")):
        _rewrite(path, lambda arrays: arrays.update({entry: arrays[entry].astype(np.float64)}))
        assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2, entry
        assert f"dtype mismatch for {label} {entry.partition('/')[2]}" in capsys.readouterr().err
        path.write_bytes(sound)

    def older_format(version, dtype):
        def edit(arrays):
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            arrays["__meta__"] = np.frombuffer(json.dumps({**meta, "format": version}).encode(), dtype=np.uint8)
            for k in [k for k in arrays if k != "__meta__"]:
                arrays[k] = arrays[k].astype(dtype)
                arrays[k.replace(".enc.", ".dec.")] = arrays[k]  # a stand-in for the decoder it saved then
        return edit

    for version, dtype in ((1, np.float64), (2, np.float32)):
        path.write_bytes(sound)
        _rewrite(path, older_format(version, dtype))
        assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2, version
        assert f"unsupported checkpoint format {version}" in capsys.readouterr().err


@pytest.fixture
def eval_spy(monkeypatch):
    """Record the bundle `umclust eval` builds and the `tracemalloc` peak,
    above what existed before, of building it and loading the checkpoint."""
    seen = {}
    real_build, real_load = cli.build_bundle, cli.load_checkpoint

    def build(*args, **kwargs):
        tracemalloc.start()
        seen["base"] = tracemalloc.get_traced_memory()[0]
        seen["bundle"] = real_build(*args, **kwargs)
        return seen["bundle"]

    def load(*args, **kwargs):
        try:
            return real_load(*args, **kwargs)
        finally:
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]
            tracemalloc.stop()

    monkeypatch.setattr(cli, "build_bundle", build)
    monkeypatch.setattr(cli, "load_checkpoint", load)
    yield seen
    tracemalloc.stop()  # in case a build was not followed by a load


def test_eval_builds_and_loads_only_the_encoders(tmp_path, eval_spy):
    # wide enough that the decoders outweigh the slack of the bound below
    config = _write_config(tmp_path)
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    raw["dataset"]["synthetic"]["dims"] = [64, 48]
    raw["train"].update(hidden_dims=[512, 512], latent_dim=16)
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    trained = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    saved = load_checkpoint(out / "checkpoint.npz")
    largest = max(a.nbytes for a in [*saved.params.values(), *saved.stats.values()])
    train_config = cfg.load_config(config).train
    full = train_module.build_bundle(
        [64, 48], train_config.latent_dim, train_config.hidden_dims, train_config.batchnorm, train_config.seed
    )
    params, stats = full.model_arrays()
    decoder_bytes = sum(a.nbytes for k, a in [*params.items(), *stats.items()] if ".dec." in k)
    assert decoder_bytes > largest + (1 << 20)
    assert not any(".dec." in k for k in [*saved.params, *saved.stats])

    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    bundle = eval_spy["bundle"]
    assert bundle.decoders == []
    encoder_bytes = sum(p.nbytes for p in bundle.named_parameters().values())
    encoder_bytes += sum(s.nbytes for s in bundle.named_stats().values())
    assert eval_spy["peak"] <= encoder_bytes + largest + (1 << 20)
    assert json.loads((out / "metrics.json").read_text(encoding="utf-8"))["scopes"] == trained["scopes"]


def test_train_exports_the_float32_latents_in_at_most_9_significant_digits(tmp_path, eval_spy):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    cells = [row.split(",")[4:] for row in (out / "embeddings.csv").read_text(encoding="utf-8").splitlines()]
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 0  # restores the model
    ds = cli._load_dataset(cfg.load_config(config).dataset)
    restored = np.concatenate(eval_spy["bundle"].encode_all(ds.feature_matrices(), train=False))
    assert eval_spy["bundle"].dtype == np.float32
    exported = np.array(cells, dtype=np.float64).astype(np.float32)
    assert np.array_equal(exported.view(np.uint32), restored.astype(np.float32).view(np.uint32))
    digits = [len(c.split("e")[0].lstrip("-").replace(".", "").lstrip("0")) for row in cells for c in row]
    assert max(digits) <= 9


@pytest.fixture
def no_entry_data_read(monkeypatch):
    """Once called, make reading any checkpoint entry but the metadata fail the test."""
    real = checkpoint._read_entry

    def read_entry(zf, name, path):
        assert name == "__meta__", f"entry {name} was read"
        return real(zf, name, path)

    return lambda: monkeypatch.setattr(checkpoint, "_read_entry", read_entry)


def test_eval_refuses_a_finished_checkpoint_with_a_decoder_entry(tmp_path, capsys, eval_spy, no_entry_data_read):
    # the eval model has no array for it: refused from the member headers alone
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    path = out / "checkpoint.npz"
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    assert eval_spy["bundle"].decoders == []
    metrics = (out / "metrics.json").read_bytes()
    capsys.readouterr()

    _rewrite(path, lambda arrays: arrays.update({"param/v0.dec.lin0.weight": arrays["param/v0.enc.lin0.weight"]}))
    no_entry_data_read()
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "parameter name set mismatch" in capsys.readouterr().err
    assert (out / "metrics.json").read_bytes() == metrics


def test_eval_refuses_the_checkpoint_of_an_unfinished_run(tmp_path, capsys, no_entry_data_read):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    metrics = (out / "metrics.json").read_bytes()
    run_config = cfg.load_config(config)
    train_module.train(run_config.train, cli._load_dataset(run_config.dataset), out_dir=tmp_path / "partial",
                       stop_after_epoch=2)
    (out / "checkpoint.npz").write_bytes((tmp_path / "partial" / "checkpoint.npz").read_bytes())
    capsys.readouterr()

    no_entry_data_read()
    assert cli.main(["eval", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "saved at epoch 2 of 4" in capsys.readouterr().err
    assert (out / "metrics.json").read_bytes() == metrics


def test_zero_width_view_exits_2_before_the_run_directory(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    manifest = tmp_path / "data" / "manifest.json"
    raw = json.loads(manifest.read_text(encoding="utf-8"))
    raw["views"][1]["dim"] = 0
    manifest.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    assert "'views[1].dim'" in capsys.readouterr().err
    assert not out.exists()


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "case",
    ["out_is_a_file", "config_is_a_directory", "manifest_is_a_directory",
     "feature_file_is_a_directory", "labels_file_is_a_directory"],
)
def test_unreadable_paths_exit_2_without_a_traceback(tmp_path, capsys, case):
    config = _write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "-c", str(config), "-o", str(data_dir), "--quiet"]) == 0
    out = tmp_path / "run"
    if case == "out_is_a_file":
        out.write_text("not a directory", encoding="utf-8")
    elif case == "config_is_a_directory":
        config = tmp_path / "config_dir"
        config.mkdir()
    else:
        name = {"manifest": "manifest.json", "feature": "view0.csv", "labels": "labels.csv"}[case.split("_")[0]]
        _replace_with_directory(data_dir / name)
    capsys.readouterr()
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["view0.csv", "labels.csv"])
def test_empty_data_file_exits_2_without_a_traceback(tmp_path, capsys, name):
    config = _write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert cli.main(["generate", "-c", str(config), "-o", str(data_dir), "--quiet"]) == 0
    (data_dir / name).write_bytes(b"")
    capsys.readouterr()
    assert cli.main(["train", "-c", str(config), "-o", str(tmp_path / "run"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty ") and "Traceback" not in err and "Warning" not in err


def test_negative_seed_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "data"
    assert cli.main(["generate", "-c", str(config), "-o", str(out), "--seed", "-1", "--quiet"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_train_values_exit_2_before_the_run_directory(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    for train, key in (
        ({"latent_dim": 0}, "train.latent_dim"),
        ({"hidden_dims": [6, 0]}, "train.hidden_dims"),
        ({"cluster_levels": [2, 5]}, "train.cluster_levels"),
    ):
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        raw["train"].update(train)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["train", "-c", str(bad), "-o", str(out), "--quiet"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_settings_exit_2_before_the_run_directory(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    for section, key, path in (
        ("weights", "lambda4", "train.weights.lambda4"),
        (None, "learning_rate", "train.learning_rate"),
    ):
        raw = yaml.safe_load(config.read_text(encoding="utf-8"))
        target = raw["train"] if section is None else raw["train"].setdefault(section, {})
        target[key] = float("nan")
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert ".nan" in bad.read_text(encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["train", "-c", str(bad), "-o", str(out), "--quiet"]) == 2
        assert f"error: {path} must be" in capsys.readouterr().err
        assert not out.exists()


def test_a_non_finite_gradient_exits_3_without_a_checkpoint(tmp_path, capsys, monkeypatch):
    # a finite guidance value with a NaN gradient in view 0's latents: Adam
    # refuses the first gradient of view 0's encoder it meets, after the
    # layers the walk passed before it (view 0's decoder) have moved, so
    # nothing is saved
    config = _write_config(tmp_path)
    assert cli.main(["generate", "-c", str(config), "-o", str(tmp_path / "data"), "--quiet"]) == 0
    guidance = train_module.cross_view_guidance_loss

    def nan_gradient(zs, centroids, targets):
        value, grads = guidance(zs, centroids, targets)
        grads[0] = np.full_like(grads[0], np.nan)
        return value, grads

    monkeypatch.setattr(train_module, "cross_view_guidance_loss", nan_gradient)
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(config), "-o", str(out), "--quiet"]) == 3
    assert "numerical failure: non-finite gradient for v0.enc." in capsys.readouterr().err
    assert not (out / "checkpoint.npz").exists()


def test_unpair_partitions_the_paired_ids(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paired = data.PairedDataset(
        name="paired", n_clusters=2, ids=np.arange(10, 22),
        features=[rng.normal(size=(12, 3)), rng.normal(size=(12, 4))], labels=np.repeat([0, 1], 6),
    )
    source = data.save_dataset(paired, tmp_path / "paired")
    config = tmp_path / "unpair.yaml"
    config.write_text(yaml.safe_dump({"dataset": {"unpair": {"source_manifest": str(source), "seed": 4}}}))
    out = tmp_path / "unpaired"
    assert cli.main(["unpair", "-c", str(config), "-o", str(out), "--quiet"]) == 0
    ds = data.load(out / "manifest.json")
    assert sorted(ds.all_ids().tolist()) == paired.ids.tolist()
    assert [v.n for v in ds.views] == [6, 6]
    for v in ds.views:
        assert np.array_equal(v.features, paired.features[v.view_id][v.ids - 10])
    assert yaml.safe_load((out / "config.yaml").read_text())["dataset"]["unpair"]["seed"] == 4

    config.write_text(yaml.safe_dump({"dataset": {"unpair": {"seed": 4}}}))
    missing = tmp_path / "missing"
    assert cli.main(["unpair", "-c", str(config), "-o", str(missing), "--quiet"]) == 2
    assert "'dataset.unpair.source_manifest'" in capsys.readouterr().err
    assert not missing.exists()
