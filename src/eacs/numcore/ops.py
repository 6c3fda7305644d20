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


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The parts joined along the last axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    except ValueError as exc:
        raise ShapeError(f"concat: {[p.shape for p in parts]}") from exc
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def backward(gs):
        return tuple(np.split(gs[0], splits, axis=-1))

    record(tuple(parts), (out,), backward)
    return out


def slice_axis(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of the last axis."""
    x = as_tensor(x)
    out = Tensor(x.data[..., start:stop])

    def backward(gs):
        g = np.zeros_like(x.data)
        g[..., start:stop] = gs[0]
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


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax; rows along the last axis sum to 1."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def backward(gs):
        g = gs[0]
        dot = (g * p).sum(axis=-1, keepdims=True)
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


def _scatter_add(like: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with ``values`` added at the flat positions ``index``.

    One 1-D ``np.add.at`` over flat positions adds in the same order as the
    row-indexed form, so the bits (signed zeros included) are the same, and
    it takes numpy's fast 1-D path: 3-4.5x faster at (960, 64).
    """
    g = np.zeros(like.size, like.dtype)
    np.add.at(g, index.reshape(-1), values.reshape(-1))
    return g.reshape(like.shape)


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
        width = table.shape[1]
        return (_scatter_add(table.data, ids.reshape(-1, 1) * width + np.arange(width), gs[0]),)

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

    record((x,), (out,), lambda gs: (_scatter_add(x.data, rows * x.shape[1] + ids, gs[0]),))
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


@functools.lru_cache(maxsize=16)
def _gate_constants(hidden: int, dtype: np.dtype, rows: int):
    """(scale, shift, slope, columns) over the 4H gate columns, in gate order i, f, g, o.

    With a = tanh(z * scale), a gate is a * scale + shift: sigmoid(z) =
    0.5 * (1 + tanh(z / 2)) for i, f, o and tanh(z) for g. Its derivative
    with respect to z is (1 - a^2) * slope, where slope = scale^2. The three
    are (rows, 4H) arrays, so that a step's ops on its (m, 4H) gates take
    numpy's contiguous loop: broadcasting one 4H row costs twice as much at
    m = 8. ``columns`` holds the four gates' column slices.
    """
    scale = np.full((rows, 4 * hidden), 0.5, dtype=dtype)
    scale[:, 2 * hidden : 3 * hidden] = 1.0
    shift = np.full((rows, 4 * hidden), 0.5, dtype=dtype)
    shift[:, 2 * hidden : 3 * hidden] = 0.0
    slope = scale * scale
    for shared in (scale, shift, slope):  # every call gets these arrays
        shared.flags.writeable = False
    columns = tuple(slice(j * hidden, (j + 1) * hidden) for j in range(4))
    return scale, shift, slope, columns


# Stands in on the tape for an omitted h0 or c0: a constant, so it gets no gradient.
_NO_START = Tensor(np.zeros(0))


def _batch_major(a: np.ndarray, back) -> np.ndarray:
    """Time-major (T, B, ...) rows in run order as a C-contiguous (B, T, ...) in input order."""
    a = a.swapaxes(0, 1)
    # Fancy indexing gathers from the strided view; np.take would copy it first.
    return np.ascontiguousarray(a) if isinstance(back, slice) else a[back]


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

    A ragged batch runs longest-first, so the rows still inside their
    sequence at step t are a prefix. The states are time-major (T+1, B, H),
    so each step reads and writes contiguous blocks, and the input
    projection is one GEMM over the live (t, row) pairs only, packed
    time-major. Backward runs BPTT in one loop, collecting dz as (B*T, 4H),
    then forms dx, dWx, dWh and db with one GEMM or reduction each
    (Appleyard et al., arXiv 1604.01946).
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
    h0 = None if h0 is None else as_tensor(h0)
    c0 = None if c0 is None else as_tensor(c0)
    if (
        wx.shape != (width, 4 * hidden)
        or wh.shape != (hidden, 4 * hidden)
        or b.shape != (4 * hidden,)
        or any(s is not None and s.shape != (n, hidden) for s in (h0, c0))
        or (lengths is not None and np.shape(lengths) != (n,))
    ):
        shape = lambda s: None if s is None else s.shape
        raise ShapeError(
            f"lstm_over shapes: x{x.shape} wx{wx.shape} wh{wh.shape} b{b.shape} "
            f"h0{shape(h0)} c0{shape(c0)} lengths{np.shape(lengths)}"
        )
    # The live[t] rows still inside their sequence at step t are a prefix of
    # the run order; `back` restores the input order. Forward steps at least
    # two rows, so every recurrent product takes the GEMM path, whose rows
    # do not depend on how many there are.
    order = back = slice(None)
    live = [n] * steps
    floor = min(n, 2)
    ragged = False
    if lengths is not None and n:
        lengths = np.asarray(lengths, dtype=np.int64)
        shortest, longest = lengths.min(), lengths.max()
        if shortest < 1 or longest > steps:
            raise ShapeError(f"lstm_over lengths must lie in [1, {steps}], got {lengths.tolist()}")
        ragged = shortest < steps
    if ragged:
        order = np.argsort(-lengths, kind="stable")
        back = np.argsort(order)
        runs = lengths[order] > np.arange(steps)[:, None]  # (T, B) in run order
        live = runs.sum(axis=1).tolist()
        runs[:, :floor] = True
        rows = (order * steps + np.arange(steps)[:, None])[runs]
        xs_run = np.take(xs.reshape(n * steps, width), rows, axis=0)
    else:
        xs_run = xs.swapaxes(0, 1).reshape(n * steps, width)
    # One GEMM over the rows the steps read, time-major; a row's bits do not
    # depend on how many rows there are or where it sits. Each step turns its
    # rows into the tanh of its scaled pre-activations in place.
    xw = xs_run @ wx.data
    xw += b.data
    dtype = xw.dtype
    # Rows rounded up to a power of two, so a few sizes serve every batch.
    rows_up = 1 << (n - 1).bit_length()
    scale, shift, slope, (ci, cf, cg, co) = _gate_constants(hidden, dtype, rows_up)
    hs = np.empty((steps + 1, n, hidden), dtype=dtype)
    cs = np.empty_like(hs)
    hs[0] = 0 if h0 is None else h0.data[order]
    cs[0] = 0 if c0 is None else c0.data[order]
    tcs = np.empty((len(xw), hidden), dtype=dtype)  # tanh(c), packed like xw
    saved = []  # per step: (its live rows of xw and tcs, i, f, g, o)
    row = 0
    for t, k in enumerate(live):
        m = max(k, floor)
        a = xw[row : row + m]
        a += hs[t, :m] @ wh.data
        a *= scale[:m]
        np.tanh(a, out=a)
        gates = a * scale[:m]
        gates += shift[:m]
        i, f, g, o = gates[:, ci], gates[:, cf], gates[:, cg], gates[:, co]
        c = np.multiply(f, cs[t, :m], out=cs[t + 1, :m])
        c += i * g
        tc = np.tanh(c, out=tcs[row : row + m])
        np.multiply(o, tc, out=hs[t + 1, :m])
        if k < n:
            # Finished rows, a floor row past its end among them, carry their state.
            hs[t + 1, k:] = hs[t, k:]
            cs[t + 1, k:] = cs[t, k:]
        gate_views = (i, f, g, o) if k == m else (i[:k], f[:k], g[:k], o[:k])
        saved.append((slice(row, row + k), *gate_views))
        row += m
    out = Tensor(_batch_major(hs[1:], back) if collect else hs[steps, back].copy())
    c_out = Tensor(cs[steps, back].copy())

    def backward(gs):
        # Elementwise work runs on the live prefix, in run order, of a scratch
        # whose dead rows stay zero. The recurrent product reads a contiguous
        # dz_t in input order over all B rows, as the every-row loop did: the
        # bits of its columns can depend on their count, their position and
        # the layout. dz_t is then stored batch-major, the layout the weight
        # GEMMs read.
        dz = np.empty((n, steps, 4 * hidden), dtype=dtype)
        scratch = np.zeros((n, 4 * hidden), dtype=dtype)
        dz_t = np.empty_like(scratch) if ragged else scratch
        g_out = gs[0][order]
        dh = np.zeros((n, hidden), dtype=dtype) if collect else g_out
        dc = gs[1][order].copy()
        # The derivatives 1 - a^2 and 1 - tanh(c)^2 of every step at once; the
        # first overwrites the saved a, as a tape runs each backward once.
        da = np.multiply(xw, xw, out=xw)
        np.subtract(1.0, da, out=da)
        dtanh = tcs * tcs
        np.subtract(1.0, dtanh, out=dtanh)
        for t in reversed(range(steps)):
            if collect:
                dh += g_out[:, t]
            k = live[t]
            live_rows, i, f, g, o = saved[t]
            tc = tcs[live_rows]
            dh_k = dh[:k]
            dc_t = dh_k * o
            dc_t *= dtanh[live_rows]
            dc_t += dc[:k]
            dz_live = scratch[:k]
            np.multiply(dc_t, g, out=dz_live[:, ci])
            np.multiply(dc_t, cs[t, :k], out=dz_live[:, cf])
            np.multiply(dc_t, i, out=dz_live[:, cg])
            np.multiply(dh_k, tc, out=dz_live[:, co])
            dz_live *= da[live_rows]
            dz_live *= slope[:k]
            np.multiply(dc_t, f, out=dc[:k])
            if ragged:
                # mode="clip" writes straight into dz_t; "raise" would buffer.
                np.take(scratch, back, axis=0, out=dz_t, mode="clip")
            dz[:, t] = dz_t
            # dz_t @ wh.T with wh read in its own layout: no copy, bit-equal on
            # every shape tried, and under half the time of the view at H = 512.
            dh_prev = (wh.data @ dz_t.T).T[order]
            if k < n:
                dh_prev[k:] = dh[k:]
            dh = dh_prev
        dz = dz.reshape(n * steps, 4 * hidden)
        if steps > 1:
            hs_in = _batch_major(hs[:steps], back).reshape(n * steps, hidden)
        else:
            # The every-row loop read one step's states as rows of a (B, 2, H)
            # array, at row stride 2H. At H = 1 dWh is a vector product whose
            # bits depend on that stride, so it is kept.
            hs_in = np.stack((hs[0], hs[1]), axis=1)[:, 0]
        return (
            (dz @ wx.data.T).reshape(x.data.shape),
            xs.reshape(n * steps, width).T @ dz,
            hs_in.T @ dz,
            dz.sum(axis=0),
            dh[back],
            dc[back],
        )

    starts = tuple(_NO_START if s is None else s for s in (h0, c0))
    record((x, wx, wh, b) + starts, (out, c_out), backward)
    return out, c_out
