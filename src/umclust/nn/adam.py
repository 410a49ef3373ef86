"""Adaptive-moment gradient descent over named parameter dictionaries."""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor, check_like


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
        """One in-place update; moments are created lazily per parameter."""
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape mismatch for {name}")
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, arr in self.m.items():
            out[f"m/{name}"] = arr
        for name, arr in self.v.items():
            out[f"v/{name}"] = arr
        return out

    def load_state(self, t: int, arrays: dict[str, np.ndarray], params: dict[str, Tensor]) -> None:
        """Restore what `state_arrays` saved after `t` steps over `params`, refused
        before any change unless every parameter has both moments, none before step 1."""
        own = {f"{kind}/{name}": p for kind in ("m", "v") for name, p in params.items()} if t > 0 else {}
        check_like("Adam moment", arrays, own)
        self.t = int(t)
        self.m = {k[2:]: v.copy() for k, v in arrays.items() if k.startswith("m/")}
        self.v = {k[2:]: v.copy() for k, v in arrays.items() if k.startswith("v/")}
