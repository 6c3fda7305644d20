"""Minimal dense-tensor core: reverse-mode tape, recurrent cell, AdamW.

Training runs in float32; gradient verification uses float64 models. Every
differentiable op here passes :func:`finite_difference_check`.
"""

from __future__ import annotations

import numpy as np

from .gradcheck import finite_difference_check
from .ops import (
    add,
    clip,
    concat,
    dropout,
    embedding_lookup,
    gather_rows,
    log,
    lstm_cell,
    lstm_over,
    matmul,
    mean_all,
    mul,
    sigmoid,
    slice_axis,
    softmax,
    sub,
    sum_all,
    tanh,
)
from .optim import AdamW
from .tensor import Parameter, Tape, Tensor, as_tensor


def rng_streams(seed: int, n: int = 3) -> list[np.random.Generator]:
    """Independent child generators (init, shuffle, dropout) from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_parameters(
    shapes: dict[str, tuple[int, ...]], rng: np.random.Generator, dtype=np.float32
) -> list[Parameter]:
    """Parameters in declaration order: Xavier-uniform matrices, zero vectors."""
    params = []
    for name, shape in shapes.items():
        data = xavier_uniform(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype)
        params.append(Parameter(name, data))
    return params


__all__ = [
    "AdamW",
    "Parameter",
    "Tape",
    "Tensor",
    "add",
    "as_tensor",
    "clip",
    "concat",
    "dropout",
    "embedding_lookup",
    "finite_difference_check",
    "gather_rows",
    "init_parameters",
    "log",
    "lstm_cell",
    "lstm_over",
    "matmul",
    "mean_all",
    "mul",
    "rng_streams",
    "sigmoid",
    "slice_axis",
    "softmax",
    "sub",
    "sum_all",
    "tanh",
    "xavier_uniform",
]
