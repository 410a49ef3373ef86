"""Adam over one model's named parameters: `Adam(params, lr)` creates both
moments up front, and `step()` reads each parameter's `.grad`, taking a
parameter the loss did not reach as having a zero gradient."""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError
from .tensor import Tensor, check_like


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self._moments = {f"{kind}/{name}": np.zeros_like(p.data) for kind in "mv" for name, p in params.items()}

    def step(self) -> None:
        """One in-place update of every parameter from its current gradient."""
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient for {name}")
            m = self._moments[f"m/{name}"]
            v = self._moments[f"v/{name}"]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live moments, ``m/<param>`` for every parameter, then ``v/<param>``."""
        return self._moments

    def load_state(self, t: int, arrays: dict[str, np.ndarray]) -> None:
        """Restore what `state_arrays` saved after `t` steps; refused before
        any change unless the arrays match the moments name for name and
        shape for shape."""
        check_like("Adam moment", arrays, self._moments)
        self.t = int(t)
        for key, arr in arrays.items():
            self._moments[key][...] = arr
