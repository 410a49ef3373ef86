import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def float64_model(monkeypatch):
    """Models built in the test are float64, for oracles compared at float64 tolerances."""
    from umclust.nn import mlp

    monkeypatch.setattr(mlp, "DTYPE", np.float64)


@pytest.fixture
def no_entry_data_read(monkeypatch):
    """Once called, make reading any checkpoint entry but the metadata fail the test."""
    from umclust.nn import checkpoint

    real = checkpoint._read_entry

    def read_entry(zf, name, path):
        assert name == "__meta__", f"entry {name} was read"
        return real(zf, name, path)

    return lambda: monkeypatch.setattr(checkpoint, "_read_entry", read_entry)
