"""Products with a fixed right operand: set up once per operand, made many times.

The recurrent product ``h @ wh`` of an LSTM step is made once per step with
the same ``wh``. OpenBLAS forms a product whose M·N·K is above its
small-matrix bound with its packed GEMM path, which copies all of ``wh``
into its own layout on every call: at E = H = 512 and four rows, 4 MB per
step. :class:`Product` copies ``wh`` once into column tiles small enough
for the small-matrix kernel, which reads them in place.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# OpenBLAS forms a product whose M·N·K is at most this with its small-matrix
# kernel (scipy-openblas 0.3.31, SkylakeX kernels), and any larger one with
# the packed GEMM path.
SMALL_MATRIX_BOUND = 100**3
# The packed path splits a 512-deep reduction into two blocks of this depth
# and adds the second block's sums to the first's. A 384-deep one it keeps
# whole: 256-deep halves there moved bits at every row count tried.
DEPTH_BLOCK = 256
# Up to this many rows the tiles are clearly faster. At H = 512 in float32
# (one OpenBLAS thread), plain against tiled took 796-936 against 567-628 us
# at 15 and 16 rows, but 907-1,094 against 788-955 at 24, where the ranges
# overlap.
MAX_TILED_ROWS = 16
# The widest tile; 512 columns measured slower than 256 at every row count.
MAX_TILE_COLUMNS = 256
# The OpenBLAS cores whose kernels the tiles were measured on.
TILED_CORES = (b"SkylakeX",)


@functools.cache
def openblas():
    """The OpenBLAS numpy runs, as a ctypes library: the scipy-openblas
    build its wheels bundle. None for any other BLAS."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_get_corename64_"):
                lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
                lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
                return lib
    return None


def tiling_kernels() -> bool:
    """Whether numpy runs the BLAS kernels the tiles were measured on:
    OpenBLAS's SkylakeX core at one thread.

    On its Haswell core (picked on AVX2-only hosts) the tiles were no faster
    at 2 and 4 rows and moved bits from 8. At two threads, which the packed
    path uses and the small-matrix kernel does not, they were slower from
    15 rows.
    """
    lib = openblas()
    return (
        lib is not None
        and lib.scipy_openblas_get_corename64_() in TILED_CORES
        and lib.scipy_openblas_get_num_threads64_() == 1
    )


class Product:
    """``out = x @ w`` for an ``x`` of 1 to ``rows`` rows, bit for bit as
    ``np.matmul(x, w, out)``, with ``w`` (K, N) fixed.

    On the kernels of :func:`tiling_kernels`, an m-row product is tiled when
    m is 2 to :data:`MAX_TILED_ROWS`, m·K·N is above
    :data:`SMALL_MATRIX_BOUND`, and K is a multiple of 16 that is at most
    :data:`DEPTH_BLOCK` or exactly twice it. Every other product is the one
    plain ``np.matmul``: one row (numpy's matrix-vector path), any product
    small enough for the small-matrix kernel already, more rows, any other
    K, and any other kernels.

    A tiled product cuts ``w`` into the K blocks the packed path makes and
    each block into column tiles of a power-of-two width, the widest up to
    :data:`MAX_TILE_COLUMNS` whose product over ``min(rows,``
    :data:`MAX_TILED_ROWS` ``)`` rows stays within the small-matrix bound.
    The tiles are contiguous copies, made at the first tiled product. The
    first block's tiles write into ``out``, the second block's into one
    buffer, which is then added to ``out``. On OpenBLAS 0.3.31's SkylakeX
    kernels, each block's dot products are one sequential chain of fused
    multiply-adds in the small-matrix kernel as in the packed one, so the
    sums, and their sum, have the bits of the plain product
    (``tests/test_numcore.py::TestProduct``). K must be a multiple of 16:
    over K = 40 to 256 and 2 to 32 rows, tiles moved bits at odd K, and in
    float32 at K = 2 (mod 4) from 90 on.
    """

    def __init__(self, w: np.ndarray, rows: int):
        self.w = w
        depth = w.shape[0]
        self._top = top = min(rows, MAX_TILED_ROWS)
        self._tiles = None
        self._tiled = (
            top >= 2
            and top * w.size > SMALL_MATRIX_BOUND
            and depth % 16 == 0
            and (depth <= DEPTH_BLOCK or depth == 2 * DEPTH_BLOCK)
            and tiling_kernels()
        )

    def plain(self, x: np.ndarray, out: np.ndarray) -> None:
        """The one plain product, for any number of rows."""
        np.matmul(x, self.w, out)

    def _cut(self) -> tuple:
        """The first block's tiles, the second block's (an empty list when K
        is one block) and the buffer that holds the second block's sums."""
        w, top = self.w, self._top
        depth, width = w.shape
        block = min(depth, DEPTH_BLOCK)
        cols = MAX_TILE_COLUMNS
        while top * block * cols > SMALL_MATRIX_BOUND:
            cols //= 2
        tiles = [
            [
                (slice(j, j + cols), np.ascontiguousarray(w[k : k + block, j : j + cols]))
                for j in range(0, width, cols)
            ]
            for k in range(0, depth, block)
        ]
        second = tiles[1] if depth > block else []
        return tiles[0], second, np.empty((top, width), dtype=w.dtype) if second else None

    def for_rows(self, m: int):
        """The product for an x of m rows: :meth:`plain` or the tiled
        product, a function ``(x, out)`` that writes ``x @ w`` into ``out``."""
        if not (self._tiled and 2 <= m <= self._top and m * self.w.size > SMALL_MATRIX_BOUND):
            return self.plain
        if self._tiles is None:
            self._tiles = self._cut()
        first, second, rest = self._tiles
        rest = rest[:m] if second else None

        def tiled(x, out):
            x_k = x[:, :DEPTH_BLOCK]
            for cols, tile in first:
                np.matmul(x_k, tile, out[:, cols])
            if second:
                x_k = x[:, DEPTH_BLOCK:]
                for cols, tile in second:
                    np.matmul(x_k, tile, rest[:, cols])
                out += rest

        return tiled
