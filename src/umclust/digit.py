"""Six-view handwritten-digit benchmark loader.

:func:`load_uci_multiple_features` reads the official UCI Multiple
Features files (``mfeat-fou``, ``mfeat-fac``, ``mfeat-kar``,
``mfeat-pix``, ``mfeat-zer``, ``mfeat-mor``; 2000 samples, 200 per
digit) from a local directory and returns a paired dataset; feed it
through ``unpair`` to obtain the unpaired benchmark.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import PairedDataset
from .errors import DataError

UCI_FILES = ("mfeat-fou", "mfeat-fac", "mfeat-kar", "mfeat-pix", "mfeat-zer", "mfeat-mor")


def load_uci_multiple_features(directory: str | Path) -> PairedDataset:
    """Load the UCI Multiple Features benchmark from its six raw files.

    Rows are ordered by digit (200 consecutive samples per class), which
    fixes the labels.
    """
    directory = Path(directory)
    features = []
    for fname in UCI_FILES:
        path = directory / fname
        if not path.exists():
            raise DataError(f"missing UCI Multiple Features file {path}")
        mat = np.loadtxt(path, dtype=np.float64, ndmin=2)
        if mat.shape[0] != 2000:
            raise DataError(f"{path}: expected 2000 rows, found {mat.shape[0]}")
        features.append(mat)
    labels = np.repeat(np.arange(10, dtype=np.int64), 200)
    return PairedDataset(
        name="digit",
        n_clusters=10,
        ids=np.arange(2000, dtype=np.int64),
        features=features,
        labels=labels,
    )
