"""Differentiable operations.

Each op validates shapes, computes its output arrays eagerly, and returns
``record(...)`` of them, which wraps them as tensors and records the op's
backward closure on the active tape. Broadcasting is limited to what the two
models need: scalar constants and 1-D bias vectors against 2-D activations.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from ..errors import ShapeError
from .product import Product
from .tensor import RowGrad, Tensor, as_tensor, record


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands, casting a bare constant to the tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``g`` summed over the leading axes that broadcasting ``shape`` added."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g.reshape(shape)


def _elementwise(name: str, a, b, forward, grads) -> Tensor:
    """``forward(a, b)`` over the operands of :func:`_pair`, broadcast together.

    ``grads(g, a, b)`` gives each operand's gradient at the output's shape
    from the output gradient ``g``; each is then summed to its operand's
    shape. A gradient that needs no sum is handed over as it is, so ``add``
    gives one array to both operands.
    """
    a, b = _pair(a, b)
    try:
        out = forward(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: {a.shape} vs {b.shape}") from exc

    def backward(gs):
        ga, gb = grads(gs[0], a.data, b.data)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return record((a, b), (out,), backward)[0]


def add(a, b) -> Tensor:
    return _elementwise("add", a, b, np.add, lambda g, a, b: (g, g))


def sub(a, b) -> Tensor:
    return _elementwise("sub", a, b, np.subtract, lambda g, a, b: (g, -g))


def mul(a, b) -> Tensor:
    return _elementwise("mul", a, b, np.multiply, lambda g, a, b: (g * b, g * a))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    return record((a, b), (a.data @ b.data,), lambda gs: (gs[0] @ b.data.T, a.data.T @ gs[0]))[0]


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The parts joined along the last axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = np.concatenate([p.data for p in parts], axis=-1)
    except ValueError as exc:
        raise ShapeError(f"concat: {[p.shape for p in parts]}") from exc
    splits = np.cumsum([p.data.shape[-1] for p in parts])[:-1]

    def backward(gs):
        return tuple(np.split(gs[0], splits, axis=-1))

    return record(tuple(parts), (out,), backward)[0]


def slice_axis(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of the last axis."""
    x = as_tensor(x)

    def backward(gs):
        g = np.zeros_like(x.data)
        g[..., start:stop] = gs[0]
        return (g,)

    return record((x,), (x.data[..., start:stop],), backward)[0]


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    return record((x,), (y,), lambda gs: (gs[0] * (1.0 - y**2),))[0]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """sigmoid(v) = 0.5 * (1 + tanh(v / 2)): one ufunc, no masks, no overflow."""
    return np.tanh(v * 0.5) * 0.5 + 0.5


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    return record((x,), (y,), lambda gs: (gs[0] * y * (1.0 - y),))[0]


def log(x) -> Tensor:
    x = as_tensor(x)
    return record((x,), (np.log(x.data),), lambda gs: (gs[0] / x.data,))[0]


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    x = as_tensor(x)
    interior = (x.data > lo) & (x.data < hi)
    return record((x,), (np.clip(x.data, lo, hi),), lambda gs: (gs[0] * interior,))[0]


def softmax_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The softmax of ``x`` along its last axis, written into ``out`` (which
    may be ``x``): the row max subtracted, exp, then division by the row sum,
    all in ``out``. The one copy of the math :func:`softmax` and decoding run."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out)
    np.exp(out, out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax; rows along the last axis sum to 1."""
    x = as_tensor(x)
    p = softmax_into(x.data, np.empty_like(x.data))

    def backward(gs):
        g = gs[0]
        dot = (g * p).sum(axis=-1, keepdims=True)
        return ((g - dot) * p,)

    return record((x,), (p,), backward)[0]


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    shape = x.data.shape
    return record((x,), (x.data.sum(),), lambda gs: (np.broadcast_to(gs[0], shape).copy(),))[0]


def mean_all(x) -> Tensor:
    x = as_tensor(x)
    n, shape = x.data.size, x.data.shape
    return record((x,), (x.data.mean(),), lambda gs: (np.broadcast_to(gs[0] / n, shape).copy(),))[0]


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {x.shape} to {shape}") from exc
    return record((x,), (out,), lambda gs: (gs[0].reshape(x.data.shape),))[0]


def _scatter_add(shape: tuple[int, ...], dtype, index: np.ndarray, values: np.ndarray):
    """Zeros of ``shape`` with ``values`` added at the flat positions ``index``.

    One 1-D ``np.add.at`` over flat positions adds in the same order as the
    row-indexed form, so the bits (signed zeros included) are the same, and
    it takes numpy's fast 1-D path: 3-4.5x faster at (960, 64).
    """
    g = np.zeros(int(np.prod(shape)), dtype)
    np.add.at(g, index.reshape(-1), values.reshape(-1))
    return g.reshape(shape)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of a 2-D table for an id array of any shape; backward scatter-adds.

    The gradient is a :class:`RowGrad` over the distinct ids: each row sums
    its id's output rows in the order they occur, as a dense scatter would.
    """
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range")

    def backward(gs):
        # The distinct ids in order and each id's slot among them: a mask
        # over the table is 2-3x faster than np.unique at desk sizes.
        present = np.zeros(len(table.data), bool)
        present[ids] = True
        rows = np.flatnonzero(present)
        slot = np.empty(len(present), np.int64)
        slot[rows] = np.arange(len(rows))
        width = table.shape[1]
        index = slot[ids].reshape(-1, 1) * width + np.arange(width)
        return (RowGrad(rows, _scatter_add((len(rows), width), table.dtype, index, gs[0])),)

    return record((table,), (table.data[ids],), backward)[0]


def gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick x[i, ids[i]] for each row; used to read gold-token probabilities."""
    x = as_tensor(x)
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.shape[0],):
        raise ShapeError(f"gather_rows: {x.shape} with ids {ids.shape}")
    rows = np.arange(x.shape[0])
    flat = rows * x.shape[1] + ids
    backward = lambda gs: (_scatter_add(x.shape, x.dtype, flat, gs[0]),)
    return record((x,), (x.data[rows, ids],), backward)[0]


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
    return record((x,), (x.data * keep,), lambda gs: (gs[0] * keep,))[0]


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


class LSTMScratch:
    """What :func:`lstm_run` steps with, set up once for up to ``rows`` rows
    of an LSTM with recurrent weights ``wh`` (H, 4H): the recurrent product
    (a :class:`~eacs.numcore.product.Product`), a (rows, 4H) gate scratch,
    which each step fills with h @ wh and then the gates i, f, g, o, and the
    gate constants of :func:`_gate_constants`.
    """

    def __init__(self, wh: np.ndarray, dtype: np.dtype, rows: int):
        hidden = wh.shape[0]
        self.product = Product(wh, rows)
        self.gates = np.empty((rows, 4 * hidden), dtype=dtype)
        # Rows rounded up to a power of two, so a few sizes serve every batch.
        rows_up = 1 << (rows - 1).bit_length()
        self.scale, self.shift, self.slope, self.columns = _gate_constants(hidden, dtype, rows_up)

    def views(self, m: int) -> tuple:
        """The m-row recurrent product, the first m rows of the scratch, its
        four gates' columns among them, and of the scale and shift: the
        views :func:`lstm_run` takes."""
        step = self.gates[:m]
        ci, cf, cg, co = self.columns
        gates = (step[:, ci], step[:, cf], step[:, cg], step[:, co])
        return self.product.for_rows(m), step, gates, self.scale[:m], self.shift[:m]


def lstm_run(steps, h: np.ndarray, c: np.ndarray, views: tuple) -> None:
    """Step an LSTM through a run of steps that share their m rows, in place:
    the one copy of the gate math, which :func:`lstm_over` and decoding run.

    ``h`` and ``c`` (m, H) are the state before the run and ``views``
    :meth:`LSTMScratch.views` for m rows.
    ``steps`` yields each step's (a, tc, h_next, c_next): ``a`` (m, 4H)
    holds x Wx + b on entry and the tanh of the scaled pre-activations on
    exit, which a backward reads; ``tc`` (m, H) receives tanh(c), and
    ``h_next`` and ``c_next`` (m, H) the new state. A step may write its new
    state over the state it reads. Besides the recurrent product, each step
    only calls ufuncs, with ``out`` passed by position (the keyword costs
    about 0.1 us a call).
    """
    product, step, (i, f, g, o), sc, sh = views
    for a, tc, h_next, c_next in steps:
        product(h, step)
        a += step
        a *= sc
        np.tanh(a, a)
        np.multiply(a, sc, step)
        step += sh
        np.multiply(f, c, c_next)
        np.multiply(i, g, tc)  # i * g, until tanh(c) overwrites it
        c_next += tc
        np.tanh(c_next, tc)
        np.multiply(o, tc, h_next)
        h, c = h_next, c_next


# Stands in on the tape for an omitted h0 or c0: a constant, so it gets no gradient.
_NO_START = Tensor(np.zeros(0))


def _batch_major(a: np.ndarray, back) -> np.ndarray:
    """Time-major (T, B, ...) rows in sorted order as a C-contiguous (B, T, ...) in input order."""
    a = a.swapaxes(0, 1)
    # Fancy indexing gathers from the strided view; np.take would copy it first.
    return np.ascontiguousarray(a) if isinstance(back, slice) else a[back]


def lstm_cell(x: Tensor, h_prev: Tensor, c_prev: Tensor, wx: Tensor, wh: Tensor, b: Tensor):
    """One LSTM step over a (B, D) input from (h_prev, c_prev): returns (h, c).

    It is :func:`lstm_over` over ``x`` reshaped to (B, 1, D) with unit
    lengths, so its gradient is checked as one op. Decoding needs no tape:
    it calls :func:`lstm_run`, the step code of :func:`lstm_over`, directly.
    """
    # Any input other than (B, D) fails lstm_over's (B, T, D) check.
    steps = reshape(x, x.shape[:1] + (1,) + x.shape[1:])
    return lstm_over(steps, wx, wh, b, np.ones(x.shape[:1]), h_prev, c_prev)


def lstm_over(
    x: Tensor,
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
    lengths: np.ndarray,
    h0: Optional[Tensor] = None,
    c0: Optional[Tensor] = None,
    collect: bool = False,
) -> tuple[Tensor, Tensor]:
    """Run a standard LSTM (gate order i, f, g, o) over a padded batch, as one tape node.

    i, f, o = sigmoid(x Wx + b + h Wh), g = tanh(...), c = f * c_prev + i * g
    and h = o * tanh(c). ``x`` is (B, T, D), and ``lengths`` (B,) is
    required: sequence k has ``lengths[k]`` steps, 1 to T, and its h and c
    carry unchanged past them. The state starts at (h0, c0), each (B, H), or
    at zeros. Returns (out, c): ``out`` is every sequence's final hidden state
    (B, H), or the hidden state after every step (B, T, H) when ``collect``
    is set, and ``c`` is the final cell state (B, H).

    A ragged batch runs longest-first, so the rows still inside their
    sequence at step t are a prefix. The states are time-major (T+1, B, H),
    so each step reads and writes contiguous blocks, and the input
    projection is one GEMM over the live (t, row) pairs only, packed
    time-major. Forward steps in runs of steps with one live count: one run
    for a batch without padding, and one per distinct length (plus one if
    no sequence fills all T steps) for a ragged batch. A run takes its
    views of the packed rows, the states and the scratch once and hands
    them to :func:`lstm_run`, whose steps only call ufuncs, and the rows
    that have finished carry their state by one block copy per run.
    Forward keeps no gates: each step writes them into one (B, 4H) scratch,
    and backward rebuilds them from the saved tanh values.
    Backward walks the same runs in reverse, step by step, to find each
    step's rows. It runs BPTT in one loop, collecting dz as (B*T, 4H), then forms
    dx, dWx, dWh and db with one GEMM or reduction each (Appleyard et al.,
    arXiv 1604.01946).
    """
    x, wx, wh, b = as_tensor(x), as_tensor(wx), as_tensor(wh), as_tensor(b)
    if x.data.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"lstm_over expects a (B, T, D) input with T >= 1, got {x.shape}")
    n, steps, width = x.shape
    hidden = wh.shape[0]
    h0 = None if h0 is None else as_tensor(h0)
    c0 = None if c0 is None else as_tensor(c0)
    if (
        wx.shape != (width, 4 * hidden)
        or wh.shape != (hidden, 4 * hidden)
        or b.shape != (4 * hidden,)
        or any(s is not None and s.shape != (n, hidden) for s in (h0, c0))
        or np.shape(lengths) != (n,)
    ):
        shape = lambda s: None if s is None else s.shape
        raise ShapeError(
            f"lstm_over shapes: x{x.shape} wx{wx.shape} wh{wh.shape} b{b.shape} "
            f"h0{shape(h0)} c0{shape(c0)} lengths{np.shape(lengths)}"
        )
    # The rows still inside their sequence at a step are a prefix of the
    # sorted order; `back` restores the input order. Steps take at least two
    # rows, so every recurrent product takes the GEMM path, whose rows do not
    # depend on how many there are. `runs` is the one schedule forward and
    # backward walk: (live rows k, rows stepped m, first step, end step) for
    # each stretch of steps with one live count.
    order = back = slice(None)
    runs = [(n, n, 0, steps)]
    floor = min(n, 2)
    ragged = False
    if n:
        lengths = np.asarray(lengths, dtype=np.int64)
        shortest, longest = lengths.min(), lengths.max()
        if shortest < 1 or longest > steps:
            raise ShapeError(f"lstm_over lengths must lie in [1, {steps}], got {lengths.tolist()}")
        ragged = shortest < steps
    if ragged:
        order = np.argsort(-lengths, kind="stable")
        back = np.argsort(order)
        inside = lengths[order] > np.arange(steps)[:, None]  # (T, B) in sorted order
        counts = inside.sum(axis=1)
        cuts = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), steps]
        live = counts[cuts[:-1]].tolist()
        runs = [(k, max(k, floor), first, end) for k, first, end in zip(live, cuts, cuts[1:])]
        inside[:, :floor] = True
        rows = (order * steps + np.arange(steps)[:, None])[inside]
        xs_run = np.take(x.data.reshape(n * steps, width), rows, axis=0)
    else:
        xs_run = x.data.swapaxes(0, 1).reshape(n * steps, width)
    # One GEMM over the rows the steps read, time-major; a row's bits do not
    # depend on how many rows there are or where it sits. Each step turns its
    # rows into the tanh of its scaled pre-activations in place.
    xw = xs_run @ wx.data
    xw += b.data
    dtype = xw.dtype
    step_scratch = LSTMScratch(wh.data, dtype, n)
    hs = np.empty((steps + 1, n, hidden), dtype=dtype)
    cs = np.empty_like(hs)
    hs[0] = 0 if h0 is None else h0.data[order]
    cs[0] = 0 if c0 is None else c0.data[order]
    tcs = np.empty((len(xw), hidden), dtype=dtype)  # tanh(c), packed like xw
    row = 0
    for k, m, first, end in runs:
        stop = row + (end - first) * m
        run = zip(
            xw[row:stop].reshape(end - first, m, 4 * hidden),
            tcs[row:stop].reshape(end - first, m, hidden),
            hs[first + 1 : end + 1, :m],
            cs[first + 1 : end + 1, :m],
        )
        lstm_run(run, hs[first, :m], cs[first, :m], step_scratch.views(m))
        if k < n:
            # Finished rows, a floor row past its end among them, carry
            # their state. A floor row is stepped inside the run from the
            # state of the step before, but nothing reads its results.
            hs[first + 1 : end + 1, k:] = hs[first, k:]
            cs[first + 1 : end + 1, k:] = cs[first, k:]
        row = stop
    out = _batch_major(hs[1:], back) if collect else hs[steps, back].copy()
    c_out = cs[steps, back].copy()
    # Backward keeps the gate constants, not the scratch and its tiles of wh.
    scale, shift, slope = step_scratch.scale, step_scratch.shift, step_scratch.slope
    ci, cf, cg, co = step_scratch.columns

    def backward(gs):
        # Elementwise work runs on the live prefix, in sorted order, of a scratch
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
        # Every step's gates, as forward formed them, then the derivatives
        # 1 - a^2 and 1 - tanh(c)^2 of every step at once; the first
        # overwrites the saved a, as a tape runs each backward once.
        all_gates = xw * scale[0]
        all_gates += shift[0]
        da = np.multiply(xw, xw, out=xw)
        np.subtract(1.0, da, out=da)
        dtanh = tcs * tcs
        np.subtract(1.0, dtanh, out=dtanh)
        row = len(xw)
        for k, m, first, end in reversed(runs):
            dz_live, slope_k = scratch[:k], slope[:k]
            for t in reversed(range(first, end)):
                if collect:
                    dh += g_out[:, t]
                row -= m
                live_rows = slice(row, row + k)
                step = all_gates[live_rows]
                i, f, g, o = step[:, ci], step[:, cf], step[:, cg], step[:, co]
                dh_k = dh[:k]
                dc_t = dh_k * o
                dc_t *= dtanh[live_rows]
                dc_t += dc[:k]
                np.multiply(dc_t, g, out=dz_live[:, ci])
                np.multiply(dc_t, cs[t, :k], out=dz_live[:, cf])
                np.multiply(dc_t, i, out=dz_live[:, cg])
                np.multiply(dh_k, tcs[live_rows], out=dz_live[:, co])
                dz_live *= da[live_rows]
                dz_live *= slope_k
                np.multiply(dc_t, f, out=dc[:k])
                if ragged:
                    # mode="clip" writes straight into dz_t; "raise" would buffer.
                    np.take(scratch, back, axis=0, out=dz_t, mode="clip")
                dz[:, t] = dz_t
                # dz_t @ wh.T with wh read in its own layout: no copy, bit-equal
                # on every shape tried, and under half the time of the view at
                # H = 512.
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
            x.data.reshape(n * steps, width).T @ dz,
            hs_in.T @ dz,
            dz.sum(axis=0),
            dh[back],
            dc[back],
        )

    starts = tuple(_NO_START if s is None else s for s in (h0, c0))
    return record((x, wx, wh, b) + starts, (out, c_out), backward)
