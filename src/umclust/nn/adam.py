"""Adam over one model's named parameters, fused into the backward walk:
`Adam(params, lr)` creates both moments up front, and `step(backward)`
updates every parameter in place as the walk hands its gradient over.

`step(backward)` refuses a parameter that is not C-contiguous before
anything moves, then advances the step count and calls
`backward(update)`. The walk (`Tensor.backward`, one per encoder and
decoder) calls `update(param, grad)` once per parameter, after every
rule that reads the parameter has run, and frees the gradient once it
is applied; so the gradients of the whole model are never alive at
once. An update touches nothing but its parameter and its moments, so
the result is bit for bit that of a full backward followed by one
update per parameter. A non-finite gradient is refused with
`NumericalError`, naming its parameter, before that parameter or its
moments move; parameters updated earlier in the walk have moved.

The update goes `CHUNK` elements at a time through two reused scratch
buffers. A parameter-sized temporary (4 MB for a float32 1024 x 1024
weight) would be fresh memory faulted in on every step; the two buffers
are faulted in once. The moments and the scratch buffers a parameter
uses are of that parameter's dtype. Each element goes through the same
operations in the same order as a whole-array update. The update writes
through flat views, and a flat "view" of a parameter that is not
C-contiguous would be a copy that loses the update, hence the layout
check; `build_bundle` makes parameters C-contiguous, and
`load_checkpoint` copies saved arrays into them in place, whatever the
saved layout.

`state_arrays()` gives the live moments by name. A resumed run restores
them by passing that dict to `load_checkpoint`, which fills it in place;
the optimizer has no loader of its own, and the caller sets `t`.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CHUNK = 1 << 14  # elements per scratch buffer: 64 KiB in float32


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self._names = {id(p): name for name, p in params.items()}
        self._moments = {f"{kind}/{name}": np.zeros(p.shape, p.dtype) for kind in "mv" for name, p in params.items()}
        dtypes = {p.dtype for p in params.values()}
        self._scratch = {dtype: (np.empty(CHUNK, dtype), np.empty(CHUNK, dtype)) for dtype in dtypes}

    def step(self, backward) -> None:
        """`backward(update)` with `update(param, grad)` updating `param`
        in place; a parameter that is not C-contiguous is refused before
        anything moves, a non-finite gradient before its parameter moves."""
        for name, p in self.params.items():
            if not p.flags.c_contiguous:
                raise ShapeError(f"parameter {name} is not C-contiguous; Adam updates it through a flat view")
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t

        def update(p: np.ndarray, grad: np.ndarray) -> None:
            name = self._names[id(p)]
            if not np.isfinite(grad).all():
                raise NumericalError(f"non-finite gradient for {name}")
            m, v = self._moments[f"m/{name}"], self._moments[f"v/{name}"]
            self._update(p.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1), b1t, b2t)

        backward(update)

    def _update(self, p, g, m, v, b1t: float, b2t: float) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr * (m / b1t) / (sqrt(v / b2t) + EPS), on flat views."""
        s1, s2 = self._scratch[p.dtype]
        for lo in range(0, p.size, CHUNK):
            hi = min(lo + CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = s1[: hi - lo], s2[: hi - lo]
            mc *= BETA1
            np.multiply(gc, 1.0 - BETA1, out=a)
            mc += a
            vc *= BETA2
            np.multiply(gc, gc, out=a)
            a *= 1.0 - BETA2
            vc += a
            np.divide(mc, b1t, out=a)
            a *= self.lr
            np.divide(vc, b2t, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            pc -= a

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live moments, ``m/<param>`` for every parameter, then ``v/<param>``."""
        return self._moments
