"""Bit-exact save/restore of training state.

Everything lives in one ``.npz`` container: raw arrays in the model's
dtype (float32) plus a JSON metadata entry carrying the format version,
config hash, and counters. What the arrays are depends on how far the
run got. A finished run saves the eval model only: the encoders'
parameters and batch-norm running statistics, under the names an
`encoders_only` bundle registers (`AutoencoderBundle.model_arrays`
picks them), since scoring needs nothing else and resuming a finished
run trains nothing. A run that stopped early saves everything resuming
reads: the whole model, the optimizer moments and the warm-start
centroids (float64, as K-means makes them). Saving is atomic: the file
is written under a temporary name in the same directory and renamed
over the target, so a crash mid-write leaves the previous checkpoint
intact.

Loading reads each entry straight into the array that owns it, so no
second copy of the model exists at any moment. A caller passes
destinations (`params`, `stats`, `adam_arrays`: name -> array, as
`save_checkpoint` takes them), or for each a function of the saved
epoch that returns them, and each entry is read, checked and copied
into its destination before the next one is read. An entry with no
destination (a warm centroid, or every entry when none are given) is
returned as a fresh array. Everything that needs no array data is
checked before the first write: the format and config hash from the
metadata, then the entry names, shapes and dtypes against the
destinations from the member headers alone, so a checkpoint holding an
entry its reader has no array for is refused whole. An entry whose
dtype is not its destination's is refused, not cast: a float64 weight
would otherwise be rounded into the float32 model without a word. Bad
entry data (a failed CRC, a non-finite value) raises `CheckpointError`
only when its entry is read, after earlier entries may have been
written: the destinations are then undefined, and the caller must
discard them.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib import format as npy

from ..errors import CheckpointError, ShapeError

FORMAT_VERSION = 3  # 3: a finished run saves only the encoders; 2 saved the whole float32 model; 1 held float64 arrays

# Entry kinds with caller destinations, and how a mismatch names them.
_LABELS = {"param": "parameter", "stat": "statistic", "adam": "Adam moment"}
_HEADER_READERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}

Layout = tuple[tuple[int, ...], np.dtype]  # an entry's shape and dtype
# name -> array to fill, or a function of the saved epoch that returns them
Destinations = dict[str, np.ndarray] | Callable[[int], dict[str, np.ndarray]]


@dataclass
class CheckpointData:
    config_hash: str
    epoch: int
    adam_t: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    stats: dict[str, np.ndarray] = field(default_factory=dict)
    adam_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    warm_centroids: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    *,
    config_hash: str,
    epoch: int,
    adam_t: int,
    params: dict[str, np.ndarray],
    stats: dict[str, np.ndarray],
    adam_arrays: dict[str, np.ndarray],
    warm_centroids: dict[tuple[str, int], np.ndarray],
) -> None:
    meta = {
        "format": FORMAT_VERSION,
        "config_hash": config_hash,
        "epoch": int(epoch),
        "adam_t": int(adam_t),
    }
    arrays: dict[str, np.ndarray] = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for kind, named in (("param", params), ("stat", stats), ("adam", adam_arrays)):
        for name, arr in named.items():
            arrays[f"{kind}/{name}"] = arr
    for (scope, level), arr in warm_centroids.items():
        arrays[f"warm/{scope}/{int(level)}"] = arr
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_like(kind: str, saved: dict[str, Layout], own: dict[str, Layout], path) -> None:
    """Refuse `saved` unless it has exactly `own`'s names, each with the
    shape (else a `ShapeError`) and the dtype (else a `CheckpointError`)
    `own` gives it."""
    if set(saved) != set(own):
        raise ShapeError(f"{kind} name set mismatch")
    for name, (shape, dtype) in saved.items():
        if shape != own[name][0]:
            raise ShapeError(f"shape mismatch for {kind} {name}")
        if dtype != own[name][1]:
            raise CheckpointError(f"dtype mismatch for {kind} {name} in {path}: {dtype}, not {own[name][1]}")


def load_checkpoint(
    path: str | Path,
    *,
    expect_config_hash: str | None = None,
    params: Destinations | None = None,
    stats: Destinations | None = None,
    adam_arrays: Destinations | None = None,
) -> CheckpointData:
    """Read `path`, filling the given destinations in place; the returned
    `CheckpointData` holds the destination dicts themselves, and fresh
    dicts of fresh arrays for the kinds given none. Each kind may also
    be given as a function of the saved epoch that returns its
    destinations, for a caller whose needs depend on how far the saved
    run got; it is called once the metadata has passed its checks and
    before any entry is read, so it may also refuse the checkpoint."""
    try:
        zf = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    with zf:
        try:
            meta = json.loads(bytes(_read_entry(zf, "__meta__", path)).decode())
            if meta.get("format") != FORMAT_VERSION:
                raise CheckpointError(f"unsupported checkpoint format {meta.get('format')!r}, not {FORMAT_VERSION}")
            data = CheckpointData(
                config_hash=str(meta["config_hash"]),
                epoch=int(meta["epoch"]),
                adam_t=int(meta["adam_t"]),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # a metadata text that is not JSON is a ValueError too
            raise CheckpointError(f"malformed checkpoint {path}: {exc!r}") from exc
        if expect_config_hash is not None and data.config_hash != expect_config_hash:
            raise CheckpointError(
                "checkpoint was written with a different configuration "
                f"(hash {data.config_hash[:12]}... != {expect_config_hash[:12]}...)"
            )
        given = {"param": params, "stat": stats, "adam": adam_arrays}
        given = {kind: dest(data.epoch) if callable(dest) else dest for kind, dest in given.items()}
        data.params, data.stats, data.adam_arrays = ({} if dest is None else dest for dest in given.values())

        entries = _entry_headers(zf, path)
        for kind, dest in given.items():
            if dest is not None:
                saved = {key: layout for k, key, layout in entries.values() if k == kind}
                _check_like(_LABELS[kind], saved, {key: (arr.shape, arr.dtype) for key, arr in dest.items()}, path)
        named = {"param": data.params, "stat": data.stats, "adam": data.adam_arrays, "warm": data.warm_centroids}
        for name, (kind, key, _) in entries.items():
            arr = _read_entry(zf, name, path)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite values in checkpoint entry {name!r} of {path}")
            if key in named[kind]:
                named[kind][key][...] = arr
            else:
                named[kind][key] = arr
            del arr  # freed before the next entry is read
    return data


def _entry_headers(zf: zipfile.ZipFile, path) -> dict[str, tuple[str, str | tuple[str, int], Layout]]:
    """name -> (kind, key in its dict, (shape, dtype)) for every array
    entry, from the member headers alone; the metadata is left out."""
    entries = {}
    for member in zf.namelist():
        if member == "__meta__.npy":
            continue
        name = member.removesuffix(".npy")
        kind, _, key = name.partition("/")
        if name == member or kind not in (*_LABELS, "warm"):
            raise CheckpointError(f"unrecognized checkpoint entry {name!r}")
        try:
            if kind == "warm":
                scope, _, level = key.rpartition("/")
                key = (scope, int(level))
        except ValueError as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc!r}") from exc
        try:
            with zf.open(member) as fh:
                version = npy.read_magic(fh)
                if version not in _HEADER_READERS:
                    raise ValueError(f"unsupported npy version {version} in {name}")
                shape, _, dtype = _HEADER_READERS[version](fh)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if dtype.kind not in "biuf":
            raise CheckpointError(f"malformed checkpoint {path}: entry {name!r} holds {dtype}, not numbers")
        entries[name] = (kind, key, (shape, dtype))
    return entries


def _read_entry(zf: zipfile.ZipFile, name: str, path) -> np.ndarray:
    """Entry `name` as a fresh array; a read that fails, or whose data
    fails the member's CRC, is a `CheckpointError`."""
    try:
        with zf.open(f"{name}.npy") as fh:
            return npy.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
