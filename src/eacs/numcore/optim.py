"""AdamW with decoupled weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError
from .tensor import Parameter


class AdamW:
    """theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    Defaults follow the training setup: lr 0.0003 and weight decay 0.01;
    beta1 0.9, beta2 0.999 and eps 1e-8 are fixed. A missing gradient counts
    as zero, so weight decay still applies to untouched parameters.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Parameter], lr: float = 3e-4, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._largest: dict = {}  # dtype -> size of its largest parameter
        for p in self.params:
            self._largest[p.data.dtype] = max(self._largest.get(p.data.dtype, 0), p.data.size)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        # Every temporary of the update goes into two scratch buffers per
        # dtype, allocated once per step (kept between steps, they would add
        # to the peak memory of the forward and backward passes). The ops and
        # their order are those of the plain update, so results are
        # bit-identical.
        self.step_count += 1
        bc1 = 1.0 - self.BETA1**self.step_count
        bc2 = 1.0 - self.BETA2**self.step_count
        scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in self._largest.items()}
        for k, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if grad.shape != p.data.shape:
                raise ShapeError(f"grad shape {grad.shape} vs param {p.data.shape}")
            m = self._m[k]
            v = self._v[k]
            a, b = (buf[: p.data.size].reshape(p.data.shape) for buf in scratch[p.data.dtype])
            m *= self.BETA1
            m += np.multiply(grad, 1.0 - self.BETA1, out=a)
            v *= self.BETA2
            np.multiply(grad, 1.0 - self.BETA2, out=a)
            v += np.multiply(a, grad, out=a)
            np.divide(m, bc1, out=a)  # m_hat
            np.divide(v, bc2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.EPS
            a /= b
            a += np.multiply(p.data, self.weight_decay, out=b)
            a *= self.lr
            p.data -= a
