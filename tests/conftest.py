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
