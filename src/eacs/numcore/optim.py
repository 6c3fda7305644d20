"""AdamW with decoupled weight decay."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ShapeError
from .tensor import Parameter

# Elements per slice of the update. Six slices (p, grad, m, v and the scratch
# pair) take 768 KiB in float32, as training runs, and 1.5 MiB in float64, as
# TestAdamW runs: both within a 2 MiB L2 cache. At the published width,
# on one core with that cache, 16K-128K elements took 65-72 ms a step against
# 110 ms unblocked.
BLOCK = 32768


class AdamW:
    """theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    beta1 0.9, beta2 0.999 and eps 1e-8 are fixed. A missing gradient counts
    as zero, so weight decay still applies to untouched parameters.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Parameter], lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Each parameter is updated in slices of whole leading-axis rows,
        # about BLOCK elements each (one row when a row is longer). Such a
        # slice is a view of any array, whatever its memory layout.
        self._rows = []
        largest: dict = {}  # dtype -> elements in its largest slice
        for p in self.params:
            row = max(math.prod(p.data.shape[1:]), 1)
            rows = max(BLOCK // row, 1)
            self._rows.append(rows)
            largest[p.data.dtype] = max(largest.get(p.data.dtype, 0), min(rows * row, p.data.size))
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in largest.items()}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        # Every temporary of the update goes into the scratch pair of the
        # parameter's dtype, allocated once with the optimizer: one slice is
        # small enough to keep between steps. Each slice runs the ops of the
        # plain update in its order, all elementwise, so results are
        # bit-identical to it.
        self.step_count += 1
        bc1 = 1.0 - self.BETA1**self.step_count
        bc2 = 1.0 - self.BETA2**self.step_count
        for k, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if grad.shape != p.data.shape:
                raise ShapeError(f"grad shape {grad.shape} vs param {p.data.shape}")
            full = [np.atleast_1d(x) for x in (p.data, grad, self._m[k], self._v[k])]
            scratch = self._scratch[p.data.dtype]
            rows = self._rows[k]
            for lo in range(0, len(full[0]), rows):
                data, g, m, v = (x[lo : lo + rows] for x in full)
                a, b = (buf[: data.size].reshape(data.shape) for buf in scratch)
                m *= self.BETA1
                m += np.multiply(g, 1.0 - self.BETA1, out=a)
                v *= self.BETA2
                np.multiply(g, 1.0 - self.BETA2, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, bc1, out=a)  # m_hat
                np.divide(v, bc2, out=b)  # v_hat
                np.sqrt(b, out=b)
                b += self.EPS
                a /= b
                a += np.multiply(data, self.weight_decay, out=b)
                a *= self.lr
                data -= a
