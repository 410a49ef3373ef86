"""Span tracing of `umclust`, wrapped from outside the package.

`instrument(tracer)` rebinds the public functions of each module in the
namespaces that call them (`umclust.train`, `umclust.metrics`,
`umclust.cli`, `umclust.data`) and wraps methods on `Tensor`, `Adam`
and `AutoencoderBundle`. Each call records a span: name, start, end and
the index of the span that was open when it began. Spans stay in memory
until the command ends and are then saved as JSON; `layer_metrics`
turns them into the per-layer figures and `layer_shares` into each
layer's share of a command.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(tracer, args, kwargs, result)`
        runs outside the span to take counts from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": [asdict(s) for s in self.spans], "counts": self.counts}),
                        encoding="utf-8")

    def extend(self, path: Path) -> None:
        """Append the spans and counts that `save` wrote to `path`."""
        saved = json.loads(path.read_text(encoding="utf-8"))
        base = len(self.spans)
        for s in saved["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(Span(s["name"], s["start"], s["end"], parent))
        for name, value in saved["counts"].items():
            self.counts[name] += value

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own


def _count_kmeans_iters(tracer, args, kwargs, result):
    assignment = result[0]
    tracer.counts["cluster.kmeans_iters"] += len(assignment.inertia_history) - 1


def _count_bytes(counter: str):
    def after(tracer, args, kwargs, result):
        tracer.counts[counter] += os.path.getsize(args[0])

    return after


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped callable."""
    data = importlib.import_module("umclust.data")
    train = importlib.import_module("umclust.train")
    metrics = importlib.import_module("umclust.metrics")
    cli = importlib.import_module("umclust.cli")
    nn = importlib.import_module("umclust.nn")
    out = [
        (data, "synthesize", "data.synthesize", None),
        (data, "save_dataset", "data.save", None),
        (data, "load", "data.load", None),
        (data, "scale_dataset", "data.scale", None),
        (nn.AutoencoderBundle, "encode", "nn.encode", None),
        (nn.AutoencoderBundle, "decode", "nn.decode", None),
        (nn.AutoencoderBundle, "encode_all", "nn.encode_all", None),
        (nn.Tensor, "backward", "nn.backward", None),
        (nn.Adam, "step", "nn.adam", None),
        (train, "save_checkpoint", "nn.checkpoint_save", _count_bytes("nn.checkpoint_bytes")),
        (train, "recon_orth_loss", "losses.recon_orth", None),
        (train, "build_inner_pairs", "losses.pairs", None),
        (train, "inner_contrastive_loss", "losses.inner", None),
        (train, "common_contrastive_loss", "losses.common", None),
        (train, "cross_view_guidance_loss", "losses.guidance", None),
        (train, "kmeans", "cluster.kmeans", _count_kmeans_iters),
        (metrics, "kmeans", "cluster.kmeans", _count_kmeans_iters),
        (train, "silhouette_view", "cluster.silhouette", None),
        (train, "match_views", "cluster.match_views", None),
        (train, "refresh_level_state", "train.refresh", None),
        (train, "final_assignment", "train.final_assignment", None),
        (train, "run_hash", "train.run_hash", None),
        (train, "build_report", "metrics.report", None),
        (train, "export_embeddings", "metrics.embeddings", _count_bytes("metrics.embeddings_bytes")),
    ]
    for name, span_name in (
        ("train", "train.train"),
        ("run_hash", "train.run_hash"),
        ("final_assignment", "train.final_assignment"),
        ("build_report", "metrics.report"),
        ("load_checkpoint", "nn.checkpoint_load"),
        ("build_bundle", "nn.build_bundle"),
    ):
        out.append((cli, name, span_name, None))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _outer_seconds(tracer: Tracer, name: str) -> float:
    """Seconds inside spans called `name`, not counting a span twice when
    it is nested in another of the same name."""
    total = 0.0
    for i, s in enumerate(tracer.spans):
        if s.name == name and all(a.name != name for a in tracer.ancestors(i)):
            total += s.seconds
    return total


def _calls(tracer: Tracer, name: str) -> int:
    return sum(1 for s in tracer.spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced generate/train/eval round."""
    forward = sum(
        s.seconds
        for i, s in enumerate(tracer.spans)
        if s.name in ("nn.encode", "nn.decode")
        and all(a.name != "nn.encode_all" for a in tracer.ancestors(i))
    )
    own = tracer.self_seconds()
    out = {
        "data.synthesize_s": _outer_seconds(tracer, "data.synthesize"),
        "data.save_s": _outer_seconds(tracer, "data.save"),
        "data.load_s": _outer_seconds(tracer, "data.load"),
        "nn.forward_s": forward,
        "nn.backward_s": _outer_seconds(tracer, "nn.backward"),
        "nn.adam_s": _outer_seconds(tracer, "nn.adam"),
        "nn.adam_steps": _calls(tracer, "nn.adam"),
        "nn.encode_all_s": _outer_seconds(tracer, "nn.encode_all"),
        "nn.checkpoint_save_s": _outer_seconds(tracer, "nn.checkpoint_save"),
        "nn.checkpoint_mb": tracer.counts["nn.checkpoint_bytes"] / 1e6,
        "nn.checkpoint_load_s": _outer_seconds(tracer, "nn.checkpoint_load"),
        "losses.recon_orth_s": _outer_seconds(tracer, "losses.recon_orth"),
        "losses.common_s": _outer_seconds(tracer, "losses.common"),
        "losses.inner_s": _outer_seconds(tracer, "losses.inner"),
        "losses.pairs_s": _outer_seconds(tracer, "losses.pairs"),
        "losses.guidance_s": _outer_seconds(tracer, "losses.guidance"),
        "cluster.kmeans_s": _outer_seconds(tracer, "cluster.kmeans"),
        "cluster.kmeans_calls": _calls(tracer, "cluster.kmeans"),
        "cluster.kmeans_iters": tracer.counts["cluster.kmeans_iters"],
        "cluster.silhouette_s": _outer_seconds(tracer, "cluster.silhouette"),
        "cluster.silhouette_calls": _calls(tracer, "cluster.silhouette"),
        "cluster.match_views_s": _outer_seconds(tracer, "cluster.match_views"),
        "train.refresh_s": _outer_seconds(tracer, "train.refresh"),
        "train.refresh_calls": _calls(tracer, "train.refresh"),
        "train.final_assignment_s": _outer_seconds(tracer, "train.final_assignment"),
        "train.self_s": sum(t for s, t in zip(tracer.spans, own) if s.name == "train.train"),
        "metrics.report_s": _outer_seconds(tracer, "metrics.report"),
        "metrics.embeddings_s": _outer_seconds(tracer, "metrics.embeddings"),
        "metrics.embeddings_mb": tracer.counts["metrics.embeddings_bytes"] / 1e6,
    }
    return out


def layer_shares(tracer: Tracer, root_name: str) -> dict[str, float]:
    """Self time per layer (the span name's prefix) as a share of the
    spans called `root_name`; what no layer span covers is `rest`."""
    own = tracer.self_seconds()
    by_layer: dict[str, float] = defaultdict(float)
    total = 0.0
    for i, s in enumerate(tracer.spans):
        roots = [s] if s.name == root_name else [a for a in tracer.ancestors(i) if a.name == root_name]
        if not roots:
            continue
        if s.name == root_name:
            total += s.seconds
            by_layer["rest"] += own[i]
        else:
            by_layer[s.name.split(".", 1)[0]] += own[i]
    return {layer: t / total for layer, t in sorted(by_layer.items())} if total > 0 else {}
