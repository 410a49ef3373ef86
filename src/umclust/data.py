"""Dataset model and on-disk formats.

A multi-view dataset holds one feature matrix per view. In the unpaired
setting every global sample id is observed in exactly one view; class
labels ride along for evaluation only. Paired benchmarks (every sample
observed in all views) are a separate type that exists solely to be fed
through :func:`unpair`.

On disk a dataset is a JSON manifest naming per-view feature files and
a labels file. Feature files are headerless CSV with the global id in
the first column; the labels file maps ``id,class``. All text is UTF-8
with LF line endings. The feature files, the labels file, a run's
``loss_curve.csv`` and ``embeddings.csv`` go through :func:`write_csv`:
integers with ``%d`` and each float at the round-trip digits of its
array's dtype, so a parsed value cast to that dtype is the written one
bit for bit. Feature files are float64, the loaders' dtype. The two
CSVs of rounded scores are written on their own: ``metrics.csv`` by
`metrics.MetricsReport.to_csv` and a sweep's ``summary.csv`` by
`csv.writer`.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError

# Feature files parse their id column through float64, which holds every
# integer of smaller magnitude exactly and rounds some beyond it.
ID_LIMIT = 2**53


def _refuse_inexact_ids(ids: np.ndarray, where: str) -> None:
    bad = (ids <= -ID_LIMIT) | (ids >= ID_LIMIT)
    if bad.any():
        raise DataError(f"{where}: sample id {int(ids[bad][0])} is outside (-2^53, 2^53), which float64 holds exactly")


# ---------------------------------------------------------------------------
# core types


@dataclass
class ViewData:
    view_id: int
    ids: np.ndarray        # (n,) int64 global sample ids
    features: np.ndarray   # (n, d) float64
    labels: np.ndarray     # (n,) int64 class labels, evaluation only

    @property
    def n(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass
class MultiViewDataset:
    """Unpaired multi-view data: each sample id lives in exactly one view."""

    name: str
    n_clusters: int
    views: list[ViewData]

    def __post_init__(self):
        self.validate()

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def total_samples(self) -> int:
        return sum(v.n for v in self.views)

    def feature_dims(self) -> list[int]:
        return [v.dim for v in self.views]

    def feature_matrices(self) -> list[np.ndarray]:
        return [v.features for v in self.views]

    def all_labels(self) -> np.ndarray:
        """Labels in common-representation row order (views concatenated)."""
        return np.concatenate([v.labels for v in self.views])

    def all_ids(self) -> np.ndarray:
        return np.concatenate([v.ids for v in self.views])

    def validate(self) -> None:
        if self.n_views < 1:
            raise DataError("dataset needs at least one view")
        if self.n_clusters < 1:
            raise DataError("cluster count must be >= 1")
        seen: dict[int, int] = {}
        for i, v in enumerate(self.views):
            if any(w.view_id == v.view_id for w in self.views[:i]):
                raise DataError(f"view id {v.view_id} is used by more than one view")
            if v.ids.shape[0] != v.features.shape[0] or v.ids.shape[0] != v.labels.shape[0]:
                raise DataError(f"view {v.view_id}: ids, features and labels disagree in length")
            if v.n == 0:
                raise DataError(f"view {v.view_id} is empty")
            if not np.isfinite(v.features).all():
                raise DataError(f"view {v.view_id} contains non-finite features")
            _refuse_inexact_ids(v.ids, f"view {v.view_id}")
            for sid in v.ids.tolist():
                if sid in seen:
                    raise DataError(
                        f"sample id {sid} appears in views {seen[sid]} and {v.view_id}: "
                        "violates unpaired condition"
                    )
                seen[sid] = v.view_id
            bad = (v.labels < 0) | (v.labels >= self.n_clusters)
            if bad.any():
                raise DataError(
                    f"view {v.view_id}: label {int(v.labels[bad][0])} out of range "
                    f"[0, {self.n_clusters})"
                )


@dataclass
class PairedDataset:
    """Every sample observed in all views; input to :func:`unpair` only."""

    name: str
    n_clusters: int
    ids: np.ndarray                 # (n,)
    features: list[np.ndarray]      # per view (n, d_v), row-aligned with ids
    labels: np.ndarray              # (n,)

    def __post_init__(self):
        n = self.ids.shape[0]
        if n == 0:
            raise DataError("paired dataset is empty")
        for v, x in enumerate(self.features):
            if x.shape[0] != n:
                raise DataError(f"view {v} has {x.shape[0]} rows, expected {n}")
        if self.labels.shape[0] != n:
            raise DataError("labels length mismatch")
        if len(set(self.ids.tolist())) != n:
            raise DataError("duplicate sample ids in paired dataset")
        _refuse_inexact_ids(self.ids, "paired dataset")
        bad = (self.labels < 0) | (self.labels >= self.n_clusters)
        if bad.any():
            raise DataError(f"label {int(self.labels[bad][0])} out of range [0, {self.n_clusters})")

    @property
    def n_views(self) -> int:
        return len(self.features)


# ---------------------------------------------------------------------------
# manifest I/O


def is_integer(value) -> bool:
    """Whether `value` is an integer: an int, or a float with no fractional
    part. A bool is not."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _manifest_int(value, key: str, minimum: int | None = None) -> int:
    if not is_integer(value):
        raise DataError(f"manifest key '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"manifest key '{key}' must be >= {minimum}, got {value!r}")
    return int(value)


def _holds_no_rows(path: Path) -> bool:
    """Whether `path` has only blank or comment lines; stops at the first row."""
    with open(path, "rb") as fh:
        return not any(line.split(b"#", 1)[0].strip() for line in fh)


def _read_csv(path: Path, dtype, what: str) -> np.ndarray:
    """The rows of CSV file `path` as a 2-D `dtype` array; a `DataError`
    naming the `what` file when it is missing, empty, unreadable or malformed."""
    if not path.exists():
        raise DataError(f"missing {what} file {path}")
    try:
        if _holds_no_rows(path):
            raise DataError(f"empty {what} file {path}: it holds no rows")
        return np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable {what} file {path}: {exc}") from exc


def _read_feature_csv(path: Path, expect_dim: int) -> tuple[np.ndarray, np.ndarray]:
    raw = _read_csv(path, np.float64, "feature")
    if raw.shape[1] != expect_dim + 1:
        raise DataError(
            f"{path}: manifest declares dim {expect_dim} but file has {raw.shape[1] - 1} feature columns"
        )
    ids = raw[:, 0]
    if not np.array_equal(ids, np.round(ids)):
        raise DataError(f"{path}: first column must contain integer sample ids")
    if (np.abs(ids) >= ID_LIMIT).any():
        raise DataError(f"{path}: sample ids must lie in (-2^53, 2^53), where float64 parses them exactly")
    return ids.astype(np.int64), raw[:, 1:]


def _read_labels_csv(path: Path) -> dict[int, int]:
    raw = _read_csv(path, np.int64, "labels")
    if raw.shape[1] != 2:
        raise DataError(f"{path}: labels file must have two columns (id, class)")
    ids, counts = np.unique(raw[:, 0], return_counts=True)
    if (counts > 1).any():
        raise DataError(f"{path}: sample id {int(ids[counts > 1][0])} is listed more than once")
    return {int(i): int(c) for i, c in raw}


def _read_manifest(manifest_path: str | Path) -> tuple[dict, Path]:
    path = Path(manifest_path)
    if not path.exists():
        raise DataError(f"missing manifest {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} must be a JSON object")
    for key in ("name", "clusters", "labels", "views"):
        if key not in manifest:
            raise DataError(f"manifest {path} missing key '{key}'")
    _manifest_int(manifest["clusters"], "clusters")
    if not isinstance(manifest["labels"], str):
        raise DataError(f"manifest key 'labels' must be a file name, got {manifest['labels']!r}")
    views = manifest["views"]
    if not isinstance(views, list) or not views or not all(isinstance(e, dict) for e in views):
        raise DataError(f"manifest key 'views' must be a non-empty list of mappings, got {views!r}")
    return manifest, path.parent


def _load_views(manifest: dict, base: Path) -> tuple[list[tuple[int, np.ndarray, np.ndarray]], dict[int, int]]:
    labels_map = _read_labels_csv(base / manifest["labels"])
    out = []
    for i, entry in enumerate(manifest["views"]):
        for key in ("id", "path", "dim"):
            if key not in entry:
                raise DataError(f"manifest view entry missing key '{key}'")
        view_id = _manifest_int(entry["id"], f"views[{i}].id")
        dim = _manifest_int(entry["dim"], f"views[{i}].dim", minimum=1)
        if not isinstance(entry["path"], str):
            raise DataError(f"manifest key 'views[{i}].path' must be a file name, got {entry['path']!r}")
        ids, feats = _read_feature_csv(base / entry["path"], dim)
        out.append((view_id, ids, feats))
    return out, labels_map


def _labels_for(ids: np.ndarray, labels_map: dict[int, int], where: str) -> np.ndarray:
    try:
        return np.array([labels_map[int(i)] for i in ids], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"{where}: sample id {exc.args[0]} has no label") from exc


def load(manifest_path: str | Path) -> MultiViewDataset:
    """Load an unpaired dataset; duplicate ids across views are rejected."""
    manifest, base = _read_manifest(manifest_path)
    entries, labels_map = _load_views(manifest, base)
    views = [
        ViewData(view_id=vid, ids=ids, features=feats, labels=_labels_for(ids, labels_map, f"view {vid}"))
        for vid, ids, feats in entries
    ]
    return MultiViewDataset(name=str(manifest["name"]), n_clusters=int(manifest["clusters"]), views=views)


def load_paired(manifest_path: str | Path) -> PairedDataset:
    """Load a paired benchmark: every view must list the same sample ids."""
    manifest, base = _read_manifest(manifest_path)
    entries, labels_map = _load_views(manifest, base)
    ref_ids = entries[0][1]
    features = []
    for vid, ids, feats in entries:
        if not np.array_equal(ids, ref_ids):
            raise DataError(f"view {vid}: paired dataset requires identical id lists across views")
        features.append(feats)
    labels = _labels_for(ref_ids, labels_map, "paired dataset")
    return PairedDataset(
        name=str(manifest["name"]),
        n_clusters=int(manifest["clusters"]),
        ids=ref_ids.copy(),
        features=features,
        labels=labels,
    )


def write_csv(path: str | Path, ints: np.ndarray, floats: np.ndarray, header: str = "") -> None:
    """Write `header`, then per row the integer columns `ints` (n, a) with
    %d and the float columns `floats` (n, d) at the round-trip digits of
    their dtype (Steele & White, PLDI 1990): %.9g for float32 and %.17g
    for float64, so a parsed value cast to that dtype is the written one
    bit for bit. Each row is formatted as it is written."""
    digits = {np.dtype(np.float32): 9, np.dtype(np.float64): 17}[floats.dtype]
    row = ",".join(["%d"] * ints.shape[1] + [f"%.{digits}g"] * floats.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(row % (*i, *f.tolist()) for i, f in zip(ints.tolist(), floats))


def save_dataset(ds: MultiViewDataset | PairedDataset, out_dir: str | Path) -> Path:
    """Write manifest + feature files + labels file; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(ds, PairedDataset):
        views = [(v, ds.ids, feats) for v, feats in enumerate(ds.features)]
        id_labels = np.column_stack([ds.ids, ds.labels])
    else:
        views = [(v.view_id, v.ids, v.features) for v in ds.views]
        id_labels = np.column_stack([ds.all_ids(), ds.all_labels()])
    entries = []
    for view_id, ids, feats in views:
        fname = f"view{view_id}.csv"
        write_csv(out / fname, ids[:, None], np.asarray(feats, dtype=np.float64))
        entries.append({"id": int(view_id), "path": fname, "dim": int(feats.shape[1])})
    write_csv(out / "labels.csv", id_labels, np.empty((id_labels.shape[0], 0)))
    manifest = {
        "name": ds.name,
        "clusters": int(ds.n_clusters),
        "labels": "labels.csv",
        "views": entries,
    }
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


# ---------------------------------------------------------------------------
# unpairing


STRATEGIES = ("stratified-round-robin", "uniform-random")


@dataclass(frozen=True)
class UnpairRecipe:
    """How `unpair` splits a paired dataset; `source_manifest` names it on disk."""

    seed: int = 0
    strategy: str = "stratified-round-robin"
    source_manifest: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.strategy not in STRATEGIES:
            raise DataError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")


def unpair(paired: PairedDataset, recipe: UnpairRecipe) -> MultiViewDataset:
    """Assign every sample to exactly one view, deterministically per recipe.

    Stratified round-robin walks classes in ascending order with a global
    view cursor, so both per-class and overall per-view counts are within
    one sample of perfect balance. Uniform-random draws a view per sample.
    """
    n_views = paired.n_views
    if n_views < 2:
        raise DataError("unpair needs at least two views")
    n = paired.ids.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([int(recipe.seed), 0xC1A5]))
    view_of = np.empty(n, dtype=np.int64)
    if recipe.strategy == "stratified-round-robin":
        classes = np.unique(paired.labels)
        for c in range(paired.n_clusters):
            if c not in classes:
                raise DataError(f"class {c} has no samples; cannot stratify")
        cursor = 0
        for c in classes.tolist():
            rows = np.flatnonzero(paired.labels == c)
            rows = rows[rng.permutation(rows.shape[0])]
            for r in rows.tolist():
                view_of[r] = cursor % n_views
                cursor += 1
    else:  # uniform-random
        view_of = rng.integers(0, n_views, size=n)
    views = []
    for v in range(n_views):
        rows = np.flatnonzero(view_of == v)
        views.append(
            ViewData(
                view_id=v,
                ids=paired.ids[rows].copy(),
                features=paired.features[v][rows].copy(),
                labels=paired.labels[rows].copy(),
            )
        )
    return MultiViewDataset(name=paired.name, n_clusters=paired.n_clusters, views=views)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    clusters: int
    views: int
    dims: tuple[int, ...]
    samples_per_cluster: int
    separation: float
    noise_std: float
    seed: int = 0

    def __post_init__(self):
        for name in ("clusters", "views", "samples_per_cluster"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.dims) != self.views:
            raise DataError(f"dims lists {len(self.dims)} entries for {self.views} views")
        if any(d < 1 for d in self.dims):
            raise DataError(f"dims entries must be >= 1, got {list(self.dims)}")
        for name in ("separation", "noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be > 0 and finite, got {value}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


def synthesize(spec: SyntheticSpec) -> MultiViewDataset:
    """Gaussian blobs around shared class centers, one random isometry per view.

    Class centers live in a latent space of dimension min(dims) and are
    rescaled so the closest pair sits exactly `separation` apart; each
    view embeds its samples through an orthonormal linear map, so class
    geometry survives in every view. Sample ids are globally unique and
    each sample belongs to a single view. `spec.seed` drives every draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5EED]))
    latent_dim = min(spec.dims)
    centers = rng.normal(size=(spec.clusters, latent_dim))
    if spec.clusters > 1:
        diffs = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        min_dist = dist[np.triu_indices(spec.clusters, k=1)].min()
        if min_dist == 0:
            raise DataError("degenerate center draw; use a different seed")
        centers *= spec.separation / min_dist
    views = []
    next_id = 0
    for v in range(spec.views):
        view_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xD157, v]))
        gauss = view_rng.normal(size=(spec.dims[v], latent_dim))
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
        rows_x = []
        rows_y = []
        for c in range(spec.clusters):
            pts = centers[c] + spec.noise_std * view_rng.normal(size=(spec.samples_per_cluster, latent_dim))
            rows_x.append(pts @ q.T)
            rows_y.append(np.full(spec.samples_per_cluster, c, dtype=np.int64))
        feats = np.concatenate(rows_x, axis=0)
        labels = np.concatenate(rows_y)
        n = feats.shape[0]
        ids = np.arange(next_id, next_id + n, dtype=np.int64)
        next_id += n
        views.append(ViewData(view_id=v, ids=ids, features=feats, labels=labels))
    return MultiViewDataset(name=f"synthetic-k{spec.clusters}-v{spec.views}", n_clusters=spec.clusters, views=views)


# ---------------------------------------------------------------------------
# feature scaling


SCALINGS = ("minmax", "zscore", "none")


def scale_dataset(ds: MultiViewDataset, method: str) -> MultiViewDataset:
    """Column-wise feature scaling per view, `method` one of `SCALINGS`.

    minmax maps each column to [0, 1] (constant columns to 0); zscore
    standardizes each column (constant columns to 0); none returns `ds`.
    """
    if method not in SCALINGS:
        raise DataError(f"unknown scaling method '{method}'")
    if method == "none":
        return ds
    views = []
    for v in ds.views:
        x = v.features
        if method == "minmax":
            lo = x.min(axis=0)
            hi = x.max(axis=0)
            span = hi - lo
            scaled = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
        else:
            mu = x.mean(axis=0)
            sd = x.std(axis=0)
            scaled = np.where(sd > 0, (x - mu) / np.where(sd > 0, sd, 1.0), 0.0)
        views.append(replace(v, features=scaled))
    return MultiViewDataset(name=ds.name, n_clusters=ds.n_clusters, views=views)


# ---------------------------------------------------------------------------
# mini-batch iteration


def view_batches(seed: int, batch_size: int, epoch: int, view: int, n: int) -> Iterator[np.ndarray]:
    """Endless mini-batches of the `n` rows of one view in one epoch. Each
    pass covers every row once, in the order SeedSequence([seed, epoch,
    view, pass]) draws, so a stream needs no stored iterator state."""
    for pass_ in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch), int(view), pass_]))
        order = rng.permutation(n)
        yield from (order[i : i + batch_size] for i in range(0, n, batch_size))
