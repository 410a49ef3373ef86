"""Command-line surface: generate, unpair, train, eval, sweep.

`train` and `eval` score a model through the one `train.evaluate`; `eval`
first restores it from the checkpoint of a finished run written under
the same run hash. Scoring runs only the encoders, and a finished run's
checkpoint holds nothing else (`train.checkpoint_arrays`), so `eval` builds
the encoders alone, draws no weights for them, and refuses before any entry
is read a checkpoint that holds more or was saved before the last epoch.

Exit codes: 0 on success, 2 for configuration, input or output errors,
3 for numerical failures during training.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import logging
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import config as cfg
from . import data
from .errors import CheckpointError, ConfigError, NumericalError, UmclustError
# build_report and final_assignment are not called here: bench/spans.py wraps them by name in this module.
from .metrics import build_report  # noqa: F401
from .nn import build_bundle, load_checkpoint
from .train import checkpoint_arrays, cluster_set_for, evaluate, final_assignment, run_hash, train  # noqa: F401

if TYPE_CHECKING:
    from concurrent.futures import Future

OUT_ROOT_ENV = "UMCLUST_OUT_ROOT"
logger = logging.getLogger("umclust")


def _resolve_out(args) -> Path:
    """`--out`, else $UMCLUST_OUT_ROOT/<command>-<config stem>; eval reads train's."""
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root is None:
        raise ConfigError(f"--out not given and ${OUT_ROOT_ENV} is unset")
    command = "train" if args.command == "eval" else args.command
    return Path(root) / f"{command}-{Path(args.config).stem}"


def _prepare_run_dir(out: Path, force: bool) -> Path:
    try:
        if out.exists() and any(out.iterdir()) and not force:
            raise ConfigError(f"output directory {out} already exists; pass --force to overwrite")
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"unusable output directory {out}: {exc}") from exc
    return out


def _load_run_config(args) -> cfg.RunConfig:
    run_config = cfg.load_config(args.config)
    if args.seed is not None:
        run_config = cfg.apply_seed_override(run_config, args.seed)
    return run_config


def _load_dataset(section: cfg.DatasetSection) -> data.MultiViewDataset:
    if section.manifest is None:
        raise ConfigError("missing config key 'dataset.manifest'")
    return data.scale_dataset(data.load(section.manifest), section.scale)


def cmd_generate(args) -> int:
    run_config = _load_run_config(args)
    if run_config.dataset.synthetic is None:
        raise ConfigError("missing config key 'dataset.synthetic'")
    out = _prepare_run_dir(_resolve_out(args), args.force)
    ds = data.synthesize(run_config.dataset.synthetic)
    manifest = data.save_dataset(ds, out)
    cfg.write_resolved(run_config, out / "config.yaml")
    logger.info("wrote %s (%d views, %d samples)", manifest, ds.n_views, ds.total_samples)
    print(manifest)
    return 0


def cmd_unpair(args) -> int:
    run_config = _load_run_config(args)
    recipe = run_config.dataset.unpair
    if recipe is None:
        raise ConfigError("missing config key 'dataset.unpair'")
    if recipe.source_manifest is None:
        raise ConfigError("missing config key 'dataset.unpair.source_manifest'")
    out = _prepare_run_dir(_resolve_out(args), args.force)
    ds = data.unpair(data.load_paired(recipe.source_manifest), recipe)
    manifest = data.save_dataset(ds, out)
    cfg.write_resolved(run_config, out / "config.yaml")
    logger.info("unpaired %s -> %s", recipe.source_manifest, manifest)
    print(manifest)
    return 0


def _train_run(run_config: cfg.RunConfig, out: Path, force: bool):
    """Train `run_config` into `out`: refuse unusable cluster levels before
    the run directory exists, then write the resolved config and train."""
    ds = _load_dataset(run_config.dataset)
    cluster_set_for(run_config.train, ds)
    out = _prepare_run_dir(out, force)
    cfg.write_resolved(run_config, out / "config.yaml")
    return train(run_config.train, ds, out_dir=out)


def cmd_train(args) -> int:
    run_config = _load_run_config(args)
    out = _resolve_out(args)
    artifacts = _train_run(run_config, out, args.force)
    for scope in artifacts.report.scopes:
        p = scope.as_percent()
        logger.info("%s: NMI=%.2f ACC=%.2f F1=%.2f", p["scope"], p["nmi"], p["acc"], p["f1"])
    print(out / "metrics.json")
    return 0


def cmd_eval(args) -> int:
    run_config = _load_run_config(args)
    ds = _load_dataset(run_config.dataset)
    out = _resolve_out(args)
    ckpt_path = out / "checkpoint.npz"
    if not ckpt_path.exists():
        raise ConfigError(f"no checkpoint at {ckpt_path}")
    expected = run_hash(run_config.train, ds)
    bundle = build_bundle(
        ds.feature_dims(),
        run_config.train.latent_dim,
        run_config.train.hidden_dims,
        run_config.train.batchnorm,
        run_config.train.seed,
        encoders_only=True,
    )
    epochs = run_config.train.epochs

    def finished_model(epoch: int) -> dict[str, dict]:
        if epoch != epochs:
            raise CheckpointError(f"{ckpt_path} was saved at epoch {epoch} of {epochs}; only a finished run is scored")
        return checkpoint_arrays(bundle, None, {}, epoch, epochs)

    load_checkpoint(ckpt_path, expect_config_hash=expected, into=finished_model)
    _, _, report = evaluate(bundle, ds, run_config.train, expected, time.time())
    report.save(out)
    print(report.to_json(), end="")
    return 0


def _sweep_point(task: tuple[str, str, dict, int | None, str]) -> dict:
    """Train one grid point in an isolated process."""
    config_path, out_dir, overrides, seed, _label = task
    run_config = cfg.load_config(config_path)
    if seed is not None:
        run_config = cfg.apply_seed_override(run_config, seed)
    run_config = cfg.with_weights(run_config, **overrides)
    # cmd_sweep has already refused a non-empty sweep directory unless --force.
    artifacts = _train_run(run_config, Path(out_dir), force=True)
    all_view = artifacts.report.scope("all-view").as_percent()
    return {"nmi": all_view["nmi"], "acc": all_view["acc"], "f1": all_view["f1"]}


def _sweep_outcome(label: str, result) -> tuple[dict | None, str]:
    """(scores, "") from `result()`, or (None, "<Type>: <message>") when it
    raises, so one failed grid point, or a crashed worker, costs only its
    own row of the summary."""
    try:
        return result(), ""
    except Exception as exc:
        err = f"{type(exc).__name__}: {exc}"
        logger.warning("sweep point %s failed: %s", label, err, exc_info=not isinstance(exc, UmclustError))
        return None, err


def _run_in_pool(tasks: list[tuple], jobs: int) -> list[Future]:
    """Every task's `_sweep_point` future from a fresh pool, all finished."""
    # imported here, not at the top: the pool's imports cost every other command ~11 ms of start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [pool.submit(_sweep_point, t) for t in tasks]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    run_config = _load_run_config(args)
    if not run_config.sweep:
        raise ConfigError("missing config key 'sweep' (no grid axes defined)")
    for axis, values in run_config.sweep.items():
        if len({f"{v:g}" for v in values}) < len(values):
            raise ConfigError(f"sweep.{axis} has values that print alike, {values}; their run directories would clash")
    out = _prepare_run_dir(_resolve_out(args), args.force)
    cfg.write_resolved(run_config, out / "config.yaml")
    axes = sorted(run_config.sweep)
    points = list(itertools.product(*(run_config.sweep[a] for a in axes)))
    tasks = []
    for values in points:
        overrides = dict(zip(axes, values))
        label = "-".join(f"{a}={v:g}" for a, v in overrides.items())
        tasks.append((str(args.config), str(out / f"run-{label}"), overrides, args.seed, label))
    if args.jobs > 1:
        from concurrent.futures.process import BrokenProcessPool

        futures = _run_in_pool(tasks, args.jobs)
        # A worker that dies breaks the pool, failing every point still in it;
        # each of those reruns alone, so only the point that crashed keeps a failure.
        futures = [
            _run_in_pool([task], 1)[0] if isinstance(fut.exception(), BrokenProcessPool) else fut
            for task, fut in zip(tasks, futures)
        ]
        outcomes = [_sweep_outcome(task[4], fut.result) for task, fut in zip(tasks, futures)]
    else:
        outcomes = [_sweep_outcome(task[4], functools.partial(_sweep_point, task)) for task in tasks]
    summary = out / "summary.csv"
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*axes, "nmi", "acc", "f1", "status"])
        for values, (scores, err) in zip(points, outcomes):
            prefix = [f"{v:g}" for v in values]
            if scores is None:
                writer.writerow([*prefix, "", "", "", f"failed: {err}"])
            else:
                writer.writerow([*prefix, *(f"{scores[m]:.2f}" for m in ("nmi", "acc", "f1")), "ok"])
    print(summary)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "unpair": cmd_unpair,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", required=True, help="YAML run configuration")
        p.add_argument("--out", "-o", default=None, help=f"output directory (default under ${OUT_ROOT_ENV})")
        p.add_argument("--seed", type=int, default=None, help="override all seeds from one value")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        if name != "eval":
            p.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UmclustError, OSError) as exc:  # an OSError names the path it could not read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
