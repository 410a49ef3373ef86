"""Bit-exact save/restore of training state.

Everything lives in one ``.npz`` container: raw float64 arrays for
parameters, batch-norm running statistics, optimizer moments, and the
warm-start centroids, plus a JSON metadata entry carrying the format
version, config hash, and counters. Saving is atomic: the file is
written under a temporary name in the same directory and renamed over
the target, so a crash mid-write leaves the previous checkpoint intact.
Loading is all-or-nothing: the file is fully parsed and validated
before any state is handed back.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    config_hash: str
    epoch: int
    adam_t: int
    params: dict[str, np.ndarray]
    stats: dict[str, np.ndarray]
    adam_arrays: dict[str, np.ndarray]
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


def load_checkpoint(path: str | Path, *, expect_config_hash: str | None = None) -> CheckpointData:
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            raw = {k: npz[k] for k in npz.files}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if "__meta__" not in raw:
        raise CheckpointError(f"checkpoint {path} missing metadata")
    try:
        meta = json.loads(bytes(raw.pop("__meta__")).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint metadata in {path}") from exc
    if meta.get("format") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format {meta.get('format')!r}")
    if expect_config_hash is not None and meta["config_hash"] != expect_config_hash:
        raise CheckpointError(
            "checkpoint was written with a different configuration "
            f"(hash {meta['config_hash'][:12]}... != {expect_config_hash[:12]}...)"
        )
    data = CheckpointData(
        config_hash=meta["config_hash"],
        epoch=int(meta["epoch"]),
        adam_t=int(meta["adam_t"]),
        params={},
        stats={},
        adam_arrays={},
    )
    named = {"param": data.params, "stat": data.stats, "adam": data.adam_arrays}
    for key, arr in raw.items():
        kind, _, rest = key.partition("/")
        if kind in named:
            named[kind][rest] = arr
        elif kind == "warm":
            scope, _, level = rest.rpartition("/")
            data.warm_centroids[(scope, int(level))] = arr
        else:
            raise CheckpointError(f"unrecognized checkpoint entry {key!r}")
    return data
