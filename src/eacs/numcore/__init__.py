"""Minimal dense-tensor core: reverse-mode tape, recurrent cell, AdamW.

Training runs in float32; gradient verification uses float64 models. Every
differentiable op here passes :func:`finite_difference_check`.
"""

from __future__ import annotations

import numpy as np

from .gradcheck import finite_difference_check
from .ops import (
    LSTMScratch,
    add,
    clip,
    concat,
    dropout,
    embedding_lookup,
    gather_rows,
    keep_mask,
    log,
    lstm_cell,
    lstm_over,
    lstm_run,
    matmul,
    mean_all,
    mul,
    reshape,
    sigmoid,
    slice_axis,
    softmax,
    softmax_into,
    sub,
    sum_all,
    tanh,
)
from .optim import AdamW
from .product import Product, blas
from .tensor import Parameter, Tape, Tensor


def rng_streams(seed: int) -> list[np.random.Generator]:
    """Three independent child generators (init, shuffle, dropout) from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_parameters(
    shapes: dict[str, tuple[int, ...]], rng: np.random.Generator, dtype
) -> list[Parameter]:
    """Parameters in declaration order: Xavier-uniform matrices, zero vectors."""
    params = []
    for name, shape in shapes.items():
        data = xavier_uniform(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype)
        params.append(Parameter(name, data))
    return params


class Model:
    """Named parameters, declared once by ``shapes``, bound as attributes.

    Subclasses set ``KIND``, ``HYPERPARAMETERS`` and ``shapes(vocab_size,
    config)``. The constructor draws initial weights from ``rng``;
    :meth:`from_parameters` wraps existing arrays and draws nothing.
    """

    def __init__(self, vocab_size: int, config, rng: np.random.Generator, dtype=np.float32):
        self._bind(vocab_size, config, init_parameters(self.shapes(vocab_size, config), rng, dtype))

    @classmethod
    def from_parameters(cls, vocab_size: int, config, params: list[Parameter]):
        """A model over ``params``, which must follow ``shapes`` in order and shape."""
        model = cls.__new__(cls)
        model._bind(vocab_size, config, params)
        return model

    def _bind(self, vocab_size: int, config, params: list[Parameter]) -> None:
        self.config = config
        self.vocab_size = vocab_size
        self._params = params
        for p in params:
            setattr(self, p.name, p)

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def drop(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        """``x`` under dropout at ``config.dropout``, one mask over its whole
        padded shape; ``x`` itself when ``rng`` is None (not training)."""
        p = self.config.dropout
        if rng is None or p == 0.0:
            return x
        return dropout(x, keep_mask(rng, x.shape, p, x.dtype))

