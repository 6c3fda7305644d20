"""Finite-difference verification of tape gradients.

Run in 64-bit mode: central differences with eps=1e-5 resolve gradients to
well below the 1e-4 relative tolerance the checks assert.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Parameter, Tape, Tensor

EPS = 1e-5
FLOOR = 1e-3


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    max_coords_per_tensor: int,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` rebuilds the forward pass from current parameter values and
    must be deterministic. Coordinates are subsampled on tensors larger than
    ``max_coords_per_tensor``, drawn from a generator seeded with 0. The
    denominator is floored at ``FLOOR`` = 1e-3: central differences on an
    O(1) loss carry ~1e-9 cancellation noise at ``EPS`` = 1e-5, so errors on
    near-zero gradient coordinates are measured against the floor rather
    than the coordinate itself.
    """
    if max_coords_per_tensor < 1:
        raise ValueError(f"max_coords_per_tensor must be >= 1, got {max_coords_per_tensor}")
    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss, params=params)
    analytic = [p.grad.copy() for p in params]
    for p, g in zip(params, saved):
        p.grad = g

    rng = np.random.default_rng(0)
    max_rel = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        k = flat.size
        if k <= max_coords_per_tensor:
            coords = range(k)
        else:
            coords = sorted(rng.choice(k, size=max_coords_per_tensor, replace=False))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + EPS
            f_plus = loss_fn().item()
            flat[i] = orig - EPS
            f_minus = loss_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * EPS)
            scale = max(abs(fd), abs(an_flat[i]), FLOOR)
            max_rel = max(max_rel, abs(fd - an_flat[i]) / scale)
    return max_rel
