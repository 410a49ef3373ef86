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
centroids (float64, as K-means makes them). An entry is stored as
``<kind>/<name>``: the kind names the keyword that holds it, and the
name is opaque, the key its writer gave it, written in the writer's
order. Saving is atomic: the file is written under a temporary name in
the same directory and renamed over the target, so a crash mid-write
leaves the previous checkpoint intact.

Loading reads each entry straight into the array that owns it, so no
second copy of the model exists at any moment. The caller's `into`, a
function of the saved epoch, returns destinations (name -> array) keyed
by `save_checkpoint`'s keywords, as `train.checkpoint_arrays` gives
them; it runs once the metadata has passed its checks, so it may also
refuse the checkpoint. A kind it leaves out (every kind, without
`into`) is read into fresh arrays. Everything that needs no array data
is checked before the first write: the format and config hash from the
metadata, an entry of no known kind or with an empty name, then each
named kind's entry names, shapes and dtypes from the member headers
alone, so a checkpoint holding an entry its reader has no array for,
or lacking one it has, is refused whole, naming the first of each. An
entry whose dtype is not its destination's is refused, not cast: a
float64 weight would otherwise be rounded into the float32 model
without a word. Entries are then read and copied one at a time. Bad
entry data (a failed CRC, a non-finite value) raises `CheckpointError`
only when its entry is read, after earlier entries may have been
written: the destinations are then undefined, and the caller must
discard them.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib import format as npy

from ..errors import CheckpointError, ShapeError

FORMAT_VERSION = 3  # 3: a finished run saves only the encoders; 2 saved the whole float32 model; 1 held float64 arrays

# Each entry kind (its name's first part): the `save_checkpoint` keyword
# and `CheckpointData` field that hold it, and how a mismatch names it.
_KINDS = {"param": ("params", "parameter"), "stat": ("stats", "statistic"),
          "adam": ("adam_arrays", "Adam moment"), "warm": ("warm_centroids", "warm centroid")}
_HEADER_READERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}

Layout = tuple[tuple[int, ...], np.dtype]  # an entry's shape and dtype


@dataclass
class CheckpointData:
    config_hash: str
    epoch: int
    adam_t: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    stats: dict[str, np.ndarray] = field(default_factory=dict)
    adam_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    warm_centroids: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    *,
    config_hash: str,
    epoch: int,
    adam_t: int,
    params: dict[str, np.ndarray],
    stats: dict[str, np.ndarray],
    adam_arrays: dict[str, np.ndarray],
    warm_centroids: dict[str, np.ndarray],
) -> None:
    meta = {
        "format": FORMAT_VERSION,
        "config_hash": config_hash,
        "epoch": int(epoch),
        "adam_t": int(adam_t),
    }
    arrays: dict[str, np.ndarray] = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for kind, named in (("param", params), ("stat", stats), ("adam", adam_arrays), ("warm", warm_centroids)):
        for name, arr in named.items():
            arrays[f"{kind}/{name}"] = arr
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_like(kind: str, saved: dict, own: dict, path) -> None:
    """Refuse `saved` unless it has exactly `own`'s names, each with the
    shape (else a `ShapeError`) and the dtype (else a `CheckpointError`)
    `own` gives it; a name set mismatch names the first name `saved`
    lacks and the first it adds."""
    missing = next((name for name in own if name not in saved), None)
    extra = next((name for name in saved if name not in own), None)
    if missing is not None or extra is not None:
        raise ShapeError(f"{kind} name set mismatch: first missing {missing}, first extra {extra}")
    for name, (shape, dtype) in saved.items():
        if shape != own[name][0]:
            raise ShapeError(f"shape mismatch for {kind} {name}")
        if dtype != own[name][1]:
            raise CheckpointError(f"dtype mismatch for {kind} {name} in {path}: {dtype}, not {own[name][1]}")


def load_checkpoint(
    path: str | Path,
    *,
    expect_config_hash: str | None = None,
    into: Callable[[int], dict[str, dict]] | None = None,
) -> CheckpointData:
    """Read `path`, filling the destinations `into(saved epoch)` gives in
    place; the returned `CheckpointData` holds those destination dicts
    themselves, and fresh dicts of fresh arrays for the kinds they leave
    out."""
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
        given = {} if into is None else into(data.epoch)
        data = replace(data, **given)

        entries = _entry_headers(zf, path)
        for kind, (field_name, label) in _KINDS.items():
            if field_name in given:
                saved = {name: layout for k, name, layout in entries.values() if k == kind}
                _check_like(label, saved, {name: (a.shape, a.dtype) for name, a in given[field_name].items()}, path)
        for entry, (kind, name, _) in entries.items():
            arr = _read_entry(zf, entry, path)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite values in checkpoint entry {entry!r} of {path}")
            named = getattr(data, _KINDS[kind][0])
            if name in named:
                named[name][...] = arr
            else:
                named[name] = arr
            del arr  # freed before the next entry is read
    return data


def _entry_headers(zf: zipfile.ZipFile, path) -> dict[str, tuple[str, str, Layout]]:
    """entry -> (kind, name in its dict, (shape, dtype)) for every array
    entry, from the member headers alone; the metadata is left out."""
    entries = {}
    for member in zf.namelist():
        if member == "__meta__.npy":
            continue
        entry = member.removesuffix(".npy")
        kind, _, name = entry.partition("/")
        if entry == member or kind not in _KINDS or not name:
            raise CheckpointError(f"unrecognized checkpoint entry {entry!r}")
        try:
            with zf.open(member) as fh:
                version = npy.read_magic(fh)
                if version not in _HEADER_READERS:
                    raise ValueError(f"unsupported npy version {version} in {entry}")
                shape, _, dtype = _HEADER_READERS[version](fh)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if dtype.kind not in "biuf":
            raise CheckpointError(f"malformed checkpoint {path}: entry {entry!r} holds {dtype}, not numbers")
        entries[entry] = (kind, name, (shape, dtype))
    return entries


def _read_entry(zf: zipfile.ZipFile, name: str, path) -> np.ndarray:
    """Entry `name` as a fresh array; a read that fails, or whose data
    fails the member's CRC, is a `CheckpointError`."""
    try:
        with zf.open(f"{name}.npy") as fh:
            return npy.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
