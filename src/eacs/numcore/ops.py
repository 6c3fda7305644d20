"""Differentiable operations.

Each op validates shapes, computes eagerly, and records a backward closure on
the active tape. Broadcasting is limited to what the two models need: scalar
constants and 1-D bias vectors against 2-D activations.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, as_tensor, record


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands, casting a bare constant to the tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, as_tensor(b, like=a.data)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return as_tensor(a, like=b.data), b
    return as_tensor(a), as_tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError as exc:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from exc
    record(
        (a, b),
        (out,),
        lambda gs: (_unbroadcast(gs[0], a.data.shape), _unbroadcast(gs[0], b.data.shape)),
    )
    return out


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    try:
        out = Tensor(a.data - b.data)
    except ValueError as exc:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}") from exc
    record(
        (a, b),
        (out,),
        lambda gs: (_unbroadcast(gs[0], a.data.shape), _unbroadcast(-gs[0], b.data.shape)),
    )
    return out


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError as exc:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from exc
    record(
        (a, b),
        (out,),
        lambda gs: (
            _unbroadcast(gs[0] * b.data, a.data.shape),
            _unbroadcast(gs[0] * a.data, b.data.shape),
        ),
    )
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    record(
        (a, b),
        (out,),
        lambda gs: (gs[0] @ b.data.T, a.data.T @ gs[0]),
    )
    return out


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as exc:
        raise ShapeError(f"concat: {[p.shape for p in parts]}") from exc
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(gs):
        return tuple(np.split(gs[0], splits, axis=axis))

    record(tuple(parts), (out,), backward)
    return out


def slice_axis(x: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = Tensor(x.data[index])

    def backward(gs):
        g = np.zeros_like(x.data)
        g[index] = gs[0]
        return (g,)

    record((x,), (out,), backward)
    return out


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.tanh(x.data))
    record((x,), (out,), lambda gs: (gs[0] * (1.0 - out.data**2),))
    return out


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """sigmoid(v) = 0.5 * (1 + tanh(v / 2)): one ufunc, no masks, no overflow."""
    return np.tanh(v * 0.5) * 0.5 + 0.5


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(_sigmoid(x.data))
    record((x,), (out,), lambda gs: (gs[0] * out.data * (1.0 - out.data),))
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.log(x.data))
    record((x,), (out,), lambda gs: (gs[0] / x.data,))
    return out


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    interior = (x.data > lo) & (x.data < hi)
    record((x,), (out,), lambda gs: (gs[0] * interior,))
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; rows along ``axis`` sum to 1."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(p)

    def backward(gs):
        g = gs[0]
        dot = (g * p).sum(axis=axis, keepdims=True)
        return ((g - dot) * p,)

    record((x,), (out,), backward)
    return out


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.asarray(x.data.sum()))
    record((x,), (out,), lambda gs: (np.broadcast_to(gs[0], x.data.shape).copy(),))
    return out


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.asarray(x.data.mean()))
    n = x.data.size
    record((x,), (out,), lambda gs: (np.broadcast_to(gs[0] / n, x.data.shape).copy(),))
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError as exc:
        raise ShapeError(f"reshape: {x.shape} to {shape}") from exc
    record((x,), (out,), lambda gs: (gs[0].reshape(x.data.shape),))
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of a 2-D table for an id array of any shape; backward scatter-adds."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range")
    out = Tensor(table.data[ids])

    def backward(gs):
        g = np.zeros_like(table.data)
        np.add.at(g, ids.reshape(-1), gs[0].reshape(-1, table.shape[1]))
        return (g,)

    record((table,), (out,), backward)
    return out


def gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick x[i, ids[i]] for each row; used to read gold-token probabilities."""
    x = as_tensor(x)
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.shape[0],):
        raise ShapeError(f"gather_rows: {x.shape} with ids {ids.shape}")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, ids])

    def backward(gs):
        g = np.zeros_like(x.data)
        np.add.at(g, (rows, ids), gs[0])
        return (g,)

    record((x,), (out,), backward)
    return out


def keep_mask(rng: np.random.Generator, shape: tuple[int, ...], p: float, dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability p, else 1 / (1 - p).

    Draws ``rng.random(shape)``, so one (n, E) mask holds the same numbers as
    n consecutive (1, E) masks.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(x: Tensor, keep: np.ndarray) -> Tensor:
    """Inverted dropout: ``x`` times a mask drawn by :func:`keep_mask`."""
    x = as_tensor(x)
    if keep.shape != x.data.shape:
        raise ShapeError(f"dropout: mask {keep.shape} for input {x.shape}")
    out = Tensor(x.data * keep)
    record((x,), (out,), lambda gs: (gs[0] * keep,))
    return out


@functools.lru_cache(maxsize=8)
def _gate_constants(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scale, shift, slope) over the 4H gate columns, in gate order i, f, g, o.

    With a = tanh(z * scale), a gate is a * scale + shift: sigmoid(z) =
    0.5 * (1 + tanh(z / 2)) for i, f, o and tanh(z) for g. Its derivative
    with respect to z is (1 - a^2) * slope, where slope = scale^2.
    """
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = np.full(4 * hidden, 0.5, dtype=dtype)
    shift[2 * hidden : 3 * hidden] = 0.0
    return scale, shift, scale * scale


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, wx: Tensor, wh: Tensor, b: Tensor):
    """One LSTM step over a (B, D) input from (h_prev, c_prev): returns (h, c).

    It is :func:`lstm_over` over one time step, so decoding runs the same
    step code as teacher-forced training.
    """
    return lstm_over(x, wx, wh, b, h0=h_prev, c0=c_prev)


def lstm_over(
    x: Tensor,
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
    lengths: Optional[np.ndarray] = None,
    h0: Optional[Tensor] = None,
    c0: Optional[Tensor] = None,
    collect: bool = False,
) -> tuple[Tensor, Tensor]:
    """Run a standard LSTM (gate order i, f, g, o) over a padded batch, as one tape node.

    i, f, o = sigmoid(x Wx + b + h Wh), g = tanh(...), c = f * c_prev + i * g
    and h = o * tanh(c). ``x`` is (B, T, D), or (B, D) for one time step;
    sequence k has ``lengths[k]`` steps (default T), and its h and c carry
    unchanged past them. The state starts at (h0, c0), each (B, H), or at
    zeros. Returns (out, c): ``out`` is every sequence's final hidden state
    (B, H), or the hidden state after every step (B, T, H) when ``collect``
    is set, and ``c`` is the final cell state (B, H).

    The input GEMM covers all B*T steps at once, and each step computes only
    the rows still inside their sequence. Backward runs BPTT in one loop,
    collecting dz as (B*T, 4H), then forms dx, dWx, dWh and db with one GEMM
    or reduction each (Appleyard et al., arXiv 1604.01946).
    """
    x, wx, wh, b = as_tensor(x), as_tensor(wx), as_tensor(wh), as_tensor(b)
    if x.data.ndim == 2:
        xs = x.data[:, None]
    elif x.data.ndim == 3 and x.shape[1] >= 1:
        xs = x.data
    else:
        raise ShapeError(
            f"lstm_over expects a (B, T, D) input with T >= 1, or (B, D), got {x.shape}"
        )
    n, steps, width = xs.shape
    hidden = wh.shape[0]
    lengths = np.full(n, steps) if lengths is None else np.asarray(lengths, dtype=np.int64)
    h0 = Tensor(np.zeros((n, hidden), dtype=x.dtype)) if h0 is None else as_tensor(h0)
    c0 = Tensor(np.zeros((n, hidden), dtype=x.dtype)) if c0 is None else as_tensor(c0)
    if (
        wx.shape != (width, 4 * hidden)
        or wh.shape != (hidden, 4 * hidden)
        or b.shape != (4 * hidden,)
        or h0.shape != (n, hidden)
        or c0.shape != (n, hidden)
        or lengths.shape != (n,)
    ):
        raise ShapeError(
            f"lstm_over shapes: x{x.shape} wx{wx.shape} wh{wh.shape} b{b.shape} "
            f"h0{h0.shape} c0{c0.shape} lengths{lengths.shape}"
        )
    if n and (lengths.min() < 1 or lengths.max() > steps):
        raise ShapeError(f"lstm_over lengths must lie in [1, {steps}], got {lengths.tolist()}")
    # A ragged batch runs longest-first, so the live[t] rows still inside
    # their sequence at step t are a prefix; `back` restores the input order.
    # Forward steps at least two rows, so every recurrent product takes the
    # GEMM path, whose rows do not depend on how many there are.
    order = back = slice(None)
    live = [n] * steps
    if lengths.min(initial=steps) < steps:
        order = np.argsort(-lengths, kind="stable")
        back = np.argsort(order)
        live = (lengths[:, None] > np.arange(steps)).sum(axis=0).tolist()
    floor = min(n, 2)

    xw = (xs[order].reshape(n * steps, width) @ wx.data + b.data).reshape(n, steps, 4 * hidden)
    dtype = xw.dtype  # backward needs the dtype, not the (B, T, 4H) array
    scale, shift, slope = _gate_constants(hidden, dtype)
    hs = np.empty((n, steps + 1, hidden), dtype=dtype)
    cs = np.empty_like(hs)
    hs[:, 0], cs[:, 0] = h0.data[order], c0.data[order]
    saved = []  # per step: (tanh of the scaled pre-activations, gates, tanh(c))
    for t, k in enumerate(live):
        m = max(k, floor)
        a = hs[:m, t] @ wh.data
        a += xw[:m, t]
        a *= scale
        np.tanh(a, out=a)
        gates = a * scale
        gates += shift
        i, f, g, o = (gates[:, j * hidden : (j + 1) * hidden] for j in range(4))
        c = np.multiply(f, cs[:m, t], out=cs[:m, t + 1])
        c += i * g
        tc = np.tanh(c)
        np.multiply(o, tc, out=hs[:m, t + 1])
        if k < n:
            # Finished rows, a floor row past its end among them, carry their state.
            hs[k:, t + 1] = hs[k:, t]
            cs[k:, t + 1] = cs[k:, t]
        saved.append((a, gates, tc))
    out = Tensor(hs[back, 1:] if collect else hs[back, steps].copy())
    c_out = Tensor(cs[back, steps].copy())

    def backward(gs):
        # Elementwise work runs on the live prefix of a scratch whose dead rows
        # stay zero. The recurrent product reads a contiguous dz_t in input
        # order over all B rows, as the every-row loop did: the bits of its
        # columns can depend on their count, their position and the layout.
        dz = np.empty((n, steps, 4 * hidden), dtype=dtype)
        scratch = np.zeros((n, 4 * hidden), dtype=dtype)
        g_out = gs[0][order]
        dh = np.zeros((n, hidden), dtype=dtype) if collect else g_out
        dc = gs[1][order].copy()
        for t in reversed(range(steps)):
            if collect:
                dh += g_out[:, t]
            k = live[t]
            a, gates, tc = (part[:k] for part in saved[t])
            i, f, g, o = (gates[:, j * hidden : (j + 1) * hidden] for j in range(4))
            dh_k = dh[:k]
            dtanh = tc * tc
            np.subtract(1.0, dtanh, out=dtanh)
            dc_t = dh_k * o
            dc_t *= dtanh
            dc_t += dc[:k]
            dz_live = scratch[:k]
            np.multiply(dc_t, g, out=dz_live[:, :hidden])
            np.multiply(dc_t, cs[:k, t], out=dz_live[:, hidden : 2 * hidden])
            np.multiply(dc_t, i, out=dz_live[:, 2 * hidden : 3 * hidden])
            np.multiply(dh_k, tc, out=dz_live[:, 3 * hidden :])
            da = a * a
            np.subtract(1.0, da, out=da)
            dz_live *= da
            dz_live *= slope
            np.multiply(dc_t, f, out=dc[:k])
            dz[:, t] = dz_t = scratch[back]
            # dz_t @ wh.T with wh read in its own layout: no copy, bit-equal on
            # every shape tried, and under half the time of the view at H = 512.
            dh_prev = (wh.data @ dz_t.T).T[order]
            if k < n:
                dh_prev[k:] = dh[k:]
            dh = dh_prev
        dz = dz.reshape(n * steps, 4 * hidden)
        return (
            (dz @ wx.data.T).reshape(x.data.shape),
            xs.reshape(n * steps, width).T @ dz,
            hs[back, :steps].reshape(n * steps, hidden).T @ dz,
            dz.sum(axis=0),
            dh[back],
            dc[back],
        )

    record((x, wx, wh, b, h0, c0), (out, c_out), backward)
    return out, c_out
