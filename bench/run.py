"""Benchmark of `umclust generate -> train -> eval` on one workload.

    python3 bench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from the repository root (or anywhere: paths are taken from this
file). `--seed` is the dataset seed; the program sees only the data it
generates from it. A round is `umclust generate`, then `umclust train`,
then `umclust eval`, each in its own child process, each output checked;
generate and eval, the short ones, run `Workload.repeats` times. Rounds repeat
until the next one would end after `--seconds`, at least one round per
run. Every figure is the median of its samples over the run's rounds.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
commands through `traced_cli.py`, which calls `umclust.cli.main` with
every module's public functions wrapped by `spans.py`, and prints the
per-layer metrics. Before the traced train it runs the same train
untraced, so `trace.overhead_s` compares two child processes.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. Work files go under `.bench_out/`
in the repository root and are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

from checks import CheckFailed, check_eval, check_generate, check_train, nmi, scope  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

COMMANDS = ("generate", "train", "eval")


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


@dataclass
class Tally:
    """Operations attempted and failed. A round announces how many
    operations it holds; when one fails the rest of the round counts as
    failed too, so every round attempts the same number. A failed output
    check also marks the run incorrect, a command that exits non-zero
    does not."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    left: int = 0

    def start_round(self, ops: int) -> None:
        self.left = ops

    def record(self, op: str, ok: bool, check_error: CheckFailed | None = None) -> bool:
        self.attempted += 1
        self.left -= 1
        if check_error is not None:
            self.wrong.append(f"{op}: {check_error}")
            print(f"check failed: {op}: {check_error}", file=sys.stderr)
        if ok and check_error is None:
            return True
        self.failed += 1 + self.left
        self.attempted += self.left
        self.left = 0
        return False


@dataclass
class Child:
    ok: bool
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(command: str, config: Path, out: Path, log: Path, spans_to: Path | None = None) -> Child:
    """One `umclust <command>` in its own process: wall time and the
    child's own peak RSS from `wait4`. With `spans_to` the command runs
    traced and its spans are saved there."""
    entry = ["-m", "umclust.cli"] if spans_to is None else [str(BENCH / "traced_cli.py"), str(spans_to)]
    argv = [sys.executable, *entry, command, "--config", str(config), "--out", str(out), "--quiet"]
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"umclust {command} exited {proc.returncode}:\n{log.read_text(encoding='utf-8')[-2000:]}",
              file=sys.stderr)
    return Child(ok=proc.returncode == 0, wall_s=wall, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6)


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def checked(fn, *args):
    """(result, None) or (None, the CheckFailed it raised)."""
    try:
        return fn(*args), None
    except CheckFailed as exc:
        return None, exc


def quality(metrics: dict) -> dict[str, float]:
    """Scores of `metrics.json` as fractions: the all-view scope's pairwise
    F1 and NMI, and the mean over views of the per-view ACC and NMI."""
    all_view = scope(metrics, "all-view")
    views = [s for s in metrics["scopes"] if s["scope"] != "all-view"]
    return {
        "all_view_f1": all_view["f1"] / 100.0,
        "view_acc_mean": statistics.fmean(s["acc"] for s in views) / 100.0,
        "metrics.all_view_nmi": all_view["nmi"] / 100.0,
        "metrics.view_nmi_mean": statistics.fmean(s["nmi"] for s in views) / 100.0,
    }


def timed_round(workload: Workload, seed: int, work: Path, tally: Tally) -> dict[str, list[float]] | None:
    """generate and eval `workload.repeats` times each around one train, every
    command in a child process; the samples of each end-to-end metric,
    or None if an operation failed."""
    tally.start_round(2 * workload.repeats + 1)
    data_dir, run_dir = work / "data", work / "run"
    config = workload.write_config(work / "config.yaml", seed, data_dir)
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(workload.repeats):
        shutil.rmtree(data_dir, ignore_errors=True)
        gen = run_child("generate", config, data_dir, work / "generate.log")
        err = checked(check_generate, data_dir, workload.synthetic)[1] if gen.ok else None
        if not tally.record("generate", gen.ok, err):
            return None
        samples["setup_s"].append(gen.wall_s)
    tr = run_child("train", config, run_dir, work / "train.log")
    run_dir_mb = dir_mb(run_dir) if tr.ok else 0.0
    train_metrics, err = checked(check_train, run_dir, data_dir, config, workload.train) if tr.ok else (None, None)
    if not tally.record("train", tr.ok, err):
        return None
    samples["train_s"].append(tr.wall_s)
    samples["peak_rss_mb"].append(tr.peak_rss_mb)
    samples["run_dir_mb"].append(run_dir_mb)
    scores = quality(train_metrics)
    for name, value in scores.items():
        samples[name].append(value)
    print("scores: " + ", ".join(f"{k}={v:.4f}" for k, v in scores.items()), file=sys.stderr)
    for _ in range(workload.repeats):
        ev = run_child("eval", config, run_dir, work / "eval.log")
        err = None
        if ev.ok:
            eval_metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
            err = checked(check_eval, eval_metrics, train_metrics)[1]
        if not tally.record("eval", ev.ok, err):
            return None
        samples["eval_s"].append(ev.wall_s)
        samples["eval_peak_rss_mb"].append(ev.peak_rss_mb)
    return samples


def traced_round(workload: Workload, seed: int, work: Path, tally: Tally) -> dict[str, list[float]] | None:
    """generate -> untraced train -> traced train -> eval, every command
    but the untraced train through `traced_cli.py`, then the
    training-free baseline on the same scaled features."""
    import spans
    from umclust import baselines, data

    tally.start_round(4)
    data_dir, run_dir, plain_dir = work / "data", work / "run", work / "plain"
    config = workload.write_config(work / "config.yaml", seed, data_dir)
    tracer = spans.Tracer()

    def traced(command: str, out: Path) -> Child:
        spans_file = work / f"{command}.spans.json"
        child = run_child(command, config, out, work / f"{command}.log", spans_to=spans_file)
        if child.ok:
            tracer.extend(spans_file)
        return child

    gen = traced("generate", data_dir)
    err = checked(check_generate, data_dir, workload.synthetic)[1] if gen.ok else None
    if not tally.record("generate", gen.ok, err):
        return None
    plain = run_child("train", config, plain_dir, work / "plain.log")
    err = checked(check_train, plain_dir, data_dir, config, workload.train)[1] if plain.ok else None
    shutil.rmtree(plain_dir, ignore_errors=True)
    if not tally.record("train", plain.ok, err):
        return None
    tr = traced("train", run_dir)
    train_metrics, err = checked(check_train, run_dir, data_dir, config, workload.train) if tr.ok else (None, None)
    if not tally.record("train", tr.ok, err):
        return None
    ev = traced("eval", run_dir)
    err = None
    if ev.ok:
        err = checked(check_eval, json.loads((run_dir / "metrics.json").read_text(encoding="utf-8")), train_metrics)[1]
    if not tally.record("eval", ev.ok, err):
        return None

    ds = data.scale_dataset(data.load(data_dir / "manifest.json"), workload.config(seed, data_dir)["dataset"]["scale"])
    start = time.perf_counter()
    base = baselines.structure_matched_kmeans(ds.feature_matrices(), ds.n_clusters)
    out = spans.layer_metrics(tracer)
    out["baselines.structure_matched_s"] = time.perf_counter() - start
    out["baselines.nmi"] = nmi(base.labels, ds.all_labels())
    out["trace.overhead_s"] = tr.wall_s - plain.wall_s
    q = quality(train_metrics)
    out["metrics.all_view_nmi"] = q["metrics.all_view_nmi"]
    out["metrics.view_nmi_mean"] = q["metrics.view_nmi_mean"]
    print(f"all-view NMI: model {q['metrics.all_view_nmi']:.4f}, baseline {out['baselines.nmi']:.4f}; "
          f"untraced train {plain.wall_s:.2f} s, traced {tr.wall_s:.2f} s", file=sys.stderr)
    out = {name: [value] for name, value in out.items()}
    for command in COMMANDS:
        shares = spans.layer_shares(tracer, f"cmd.{command}")
        print(f"{command} layer shares: " + ", ".join(f"{k}={v:.3f}" for k, v in shares.items()), file=sys.stderr)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="dataset seed")
    parser.add_argument("--seconds", type=float, required=True, help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C: the running child is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "umclust" / "cli.py").is_file():
        print(f"error: no umclust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    round_fn = traced_round if args.trace else timed_round
    units = metric_units(bool(args.trace))

    run_root = OUT_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    tally = Tally()
    samples: dict[str, list[float]] = defaultdict(list)
    started = time.perf_counter()
    try:
        for index in itertools.count():
            round_start = time.perf_counter()
            work = run_root / f"round{index}"
            work.mkdir(parents=True)
            figures = round_fn(workload, args.seed, work, tally)
            shutil.rmtree(work, ignore_errors=True)
            for name, values in (figures or {}).items():
                samples[name].extend(values)
            now = time.perf_counter()
            if now + (now - round_start) > started + args.seconds:
                break
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    if not all(samples[name] for name in units):
        print("error: no round completed", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
