"""Products with a fixed right operand: set up once per operand, made many times.

The recurrent product ``h @ wh`` of an LSTM step is made once per step with
the same ``wh``. OpenBLAS forms a product whose M·N·K is above its
small-matrix bound with its packed GEMM path, which copies all of ``wh``
into its own layout on every call: at E = H = 512 and four rows, 4 MB per
step. Backpropagation through time makes ``dz @ wh.T`` once per step in the
same way. :class:`Product` copies ``wh`` or ``wh.T`` once into tiles small
enough for the small-matrix kernel, which reads them in place.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass, field

import numpy as np

# The BLAS the tiles copy and were measured on: numpy's scipy-openblas at
# OpenBLAS TILED_VERSION (its first three dotted components), on a core in
# TILED_CORES, at one thread. There the small-matrix kernel forms products of
# M·N·K up to SMALL_MATRIX_BOUND, and the packed path's K panel depth (GEMM_Q)
# and unroll (GEMM_UNROLL_M) are these, from OpenBLAS's param.h.
TILED_VERSION = "0.3.31"
TILED_CORES = ("SkylakeX",)
SMALL_MATRIX_BOUND = 100**3
GEMM_Q = {np.dtype(np.float32): 448, np.dtype(np.float64): 384}
GEMM_UNROLL = 16
# A tile is TILE wide; 512-wide tiles measured slower than 256-wide ones.
TILE = 256
# The right operands the tiles were measured on: ``wh`` at E = H = 512, and
# its transpose, which backpropagation through time multiplies by.
TILED_SHAPES = ((512, 2048), (2048, 512))


def k_blocks(depth: int, dtype) -> list[int]:
    """The K blocks OpenBLAS's packed path cuts a ``depth``-deep reduction
    into (``driver/level3/level3.c``, after Goto and van de Geijn, ACM TOMS
    34(3), 2008): GEMM_Q deep while at least 2·GEMM_Q remain; when more than
    GEMM_Q but less than 2·GEMM_Q remain, half of it, rounded up to the
    unroll; otherwise the rest. At 512 that is (256, 256) in either dtype,
    at 2048 (448, 448, 448, 352, 352) in float32 and (384, 384, 384, 384,
    256, 256) in float64."""
    q = GEMM_Q[np.dtype(dtype)]
    blocks = []
    left = depth
    while left > 0:
        if left >= 2 * q:
            block = q
        elif left > q:
            block = (left // 2 + GEMM_UNROLL - 1) // GEMM_UNROLL * GEMM_UNROLL
        else:
            block = left
        blocks.append(block)
        left -= block
    return blocks


def max_tiled_rows(depth: int, dtype) -> int:
    """The most rows whose product with each tile of a ``depth``-deep operand
    stays within the small-matrix bound: 15 at 512, 8 at 2048 in float32 and
    10 in float64."""
    return SMALL_MATRIX_BOUND // (max(k_blocks(depth, dtype)) * TILE)


@dataclass(frozen=True)
class Blas:
    """numpy's OpenBLAS as it runs; ``lib``, the library, sets its threads."""

    config: str
    version: str
    core: str
    threads: int
    lib: ctypes.CDLL = field(repr=False, compare=False)


@functools.cache
def _library():
    """numpy's scipy-openblas as a ctypes library; None for any other BLAS."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
                return lib
    return None


def blas() -> Blas | None:
    """The BLAS record, read now; None for a numpy that bundles no
    scipy-openblas (conda's MKL, Apple's Accelerate)."""
    lib = _library()
    if lib is None:
        return None
    get_config, get_core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
    get_config.restype = get_core.restype = ctypes.c_char_p
    config = get_config().decode()
    # The config string opens with "OpenBLAS <version>".
    return Blas(config, config.split()[1], get_core().decode(),
                lib.scipy_openblas_get_num_threads64_(), lib)


def tiling_kernels() -> bool:
    """Whether numpy runs the BLAS the tiles were measured on (above).

    Another version may block K otherwise than :func:`k_blocks`. On the
    Haswell core (picked on AVX2-only hosts) the tiles were no faster at 2
    and 4 rows and moved bits from 8. At two threads, which the packed path
    uses and the small-matrix kernel does not, they were slower from 15 rows.
    """
    record = blas()
    return (
        record is not None
        and record.version.split(".")[:3] == TILED_VERSION.split(".")
        and record.core in TILED_CORES
        and record.threads == 1
    )


class Product:
    """``out = x @ w`` for an ``x`` of 1 to ``rows`` rows, bit for bit as the
    plain product, with ``w`` (K, N) fixed.

    ``w`` is ``wh`` or its transpose ``wh.T``, a view. The plain product is
    ``np.matmul(x, w, out)`` for ``wh``, and ``(wh @ x.T).T`` for ``wh.T``:
    BLAS then reads ``wh`` in its own layout, which has the bits of
    ``x @ wh.T`` and at H = 512 under half its time.

    A ``Product`` tiles only where the tiles were measured: ``w`` of a shape
    in :data:`TILED_SHAPES`, in float32 or float64, ``2 <= rows <=``
    :func:`max_tiled_rows`, and :func:`tiling_kernels`: OpenBLAS
    :data:`TILED_VERSION` on a core in :data:`TILED_CORES` at one thread. It
    decides that when it is made, and then cuts its tiles. It forms an m-row
    product with them for m = 2 to ``rows``. Every other product is plain:
    one row (numpy's matrix-vector path), any other shape, a ``Product`` of
    more rows, and any other BLAS version, core or thread count.

    The tiles cut ``w`` into the K blocks the packed path makes
    (:func:`k_blocks`), and each block into :data:`TILE`-wide column tiles,
    as contiguous copies; tiles that are views of ``wh`` move bits. The
    first block's tiles write into ``out``, each further block's into one
    (rows, N) buffer, which is then added to ``out``. On those kernels each
    block's dot products are one sequential chain of fused multiply-adds in
    the small-matrix kernel as in the packed one, and the packed path adds
    each block's sums into C in turn, so the tiled product has the bits of
    the plain one (``tests/test_numcore.py::TestProduct``).
    """

    def __init__(self, w: np.ndarray, rows: int):
        self.w = w
        # wh.T has a unit row stride; wh of any H has a longer one.
        self._transposed = w.strides[0] < w.strides[1]
        self._blocks = self._rest = None
        depth, width = w.shape
        if (
            w.shape in TILED_SHAPES
            and w.dtype in GEMM_Q
            and 2 <= rows <= max_tiled_rows(depth, w.dtype)
            and tiling_kernels()
        ):
            # Each tile is a copy of its own: tiles sliced from one copy of
            # w made the products 2-7% slower.
            cols = [slice(j, j + TILE) for j in range(0, width, TILE)]
            self._blocks = []
            start = 0
            for block in k_blocks(depth, w.dtype):
                k = slice(start, start + block)
                self._blocks.append((k, [(c, np.ascontiguousarray(w[k, c])) for c in cols]))
                start += block
            self._rest = np.empty((rows, width), dtype=w.dtype)

    @property
    def plain(self):
        """The plain product, for any number of rows, a function ``(x, out)``.
        A ``Product`` keeps no bound method of its own: that would be a
        reference cycle, and its tiles would outlive it until the cyclic
        garbage collector ran."""
        return self._plain_of_transpose if self._transposed else self._plain

    def _plain(self, x: np.ndarray, out: np.ndarray) -> None:
        np.matmul(x, self.w, out)

    def _plain_of_transpose(self, x: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out, (self.w.T @ x.T).T)

    def _by_tiles(self, x: np.ndarray, out: np.ndarray) -> None:
        rest = self._rest[: len(x)]
        for i, (k, tiles) in enumerate(self._blocks):
            into = rest if i else out
            x_k = x[:, k]
            for cols, tile in tiles:
                np.matmul(x_k, tile, into[:, cols])
            if i:
                out += rest

    def for_rows(self, m: int):
        """The product for an x of m rows: :attr:`plain` or the tiled
        product, a function ``(x, out)`` that writes ``x @ w`` into ``out``."""
        if self._blocks is not None and 2 <= m <= len(self._rest):
            return self._by_tiles
        return self.plain
