"""AdamW with decoupled weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError
from .tensor import Parameter


class AdamW:
    """theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    Defaults follow the training setup: lr 0.0003, beta1 0.9, beta2 0.999,
    eps 1e-8, weight decay 0.01. A missing gradient counts as zero, so weight
    decay still applies to untouched parameters.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 3e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for k, p in enumerate(self.params):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            if grad.shape != p.data.shape:
                raise ShapeError(f"grad shape {grad.shape} vs param {p.data.shape}")
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
