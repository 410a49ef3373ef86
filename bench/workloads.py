"""The benchmark's workloads: a synthetic dataset recipe and a trainer
configuration each, written out as the YAML that `umclust` reads.

The dataset seed is not part of a workload. `run.py` takes it from its
`--seed` argument and writes it into `dataset.synthetic.seed`; the
trainer's own seeds stay at their defaults, so a seed changes the data
and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synthetic: dict
    train: dict
    repeats: int  # `umclust generate` and `umclust eval` runs per round, around one train

    def config(self, seed: int, data_dir: Path) -> dict:
        """The run configuration for dataset seed `seed`, data under `data_dir`."""
        return {
            "dataset": {
                "manifest": str(data_dir / "manifest.json"),
                "scale": "minmax",
                "synthetic": {**self.synthetic, "seed": int(seed)},
            },
            "train": dict(self.train),
        }

    def write_config(self, path: Path, seed: int, data_dir: Path) -> Path:
        path.write_text(yaml.safe_dump(self.config(seed, data_dir), sort_keys=True), encoding="utf-8")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide",
            why="3 views of 1,000 samples and unequal width, default 3x1024 network: autoencoder passes, Adam and the 370 MB checkpoint carry the time",
            synthetic={
                "clusters": 10,
                "views": 3,
                "dims": [128, 256, 512],
                "samples_per_cluster": 100,
                "separation": 6.0,
                "noise_std": 1.0,
            },
            train={"epochs": 4, "batch_size": 128, "kmeans_max_iter": 30},
            repeats=2,
        ),
        Workload(
            name="many-samples",
            why="4 narrow views of 2,000 samples, K=20, small network: exact silhouette, K-means and view matching carry the time",
            synthetic={
                "clusters": 20,
                "views": 4,
                "dims": [12, 16, 20, 24],
                "samples_per_cluster": 100,
                "separation": 6.0,
                "noise_std": 1.0,
            },
            train={"epochs": 6, "batch_size": 128, "hidden_dims": [128], "latent_dim": 32, "kmeans_max_iter": 30},
            repeats=4,
        ),
        Workload(
            name="views8",
            why="8 small views of 400 samples, batch 256: the (V*b) x b common-contrastive graph and its backward pass carry time and memory",
            synthetic={
                "clusters": 10,
                "views": 8,
                "dims": [32] * 8,
                "samples_per_cluster": 40,
                "separation": 6.0,
                "noise_std": 1.0,
            },
            train={"epochs": 12, "batch_size": 256, "hidden_dims": [128], "latent_dim": 32, "kmeans_max_iter": 30},
            repeats=5,
        ),
    )
}
