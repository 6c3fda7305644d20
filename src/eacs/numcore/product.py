"""Products with a fixed right operand: set up once per operand, made many times.

The recurrent product ``h @ wh`` of an LSTM step is made once per step with
the same ``wh``. OpenBLAS forms a product whose M·N·K is above its
small-matrix bound with its packed GEMM path, which copies all of ``wh``
into its own layout on every call: at E = H = 512 and four rows, 4 MB per
step. :class:`Product` copies ``wh`` once into tiles small enough for the
small-matrix kernel, which reads them in place.
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
# A tile is TILE deep and TILE wide. The packed path splits a 512-deep
# reduction into two blocks of this depth and adds the second block's sums
# to the first's; 512-wide tiles measured slower than 256-wide ones.
TILE = 256
# The most rows whose product with one tile stays within the small-matrix
# bound: 15.
MAX_TILED_ROWS = SMALL_MATRIX_BOUND // TILE**2
# The one right operand the tiles were measured on: ``wh`` at E = H = 512.
TILED_SHAPE = (512, 2048)
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

    A ``Product`` tiles only where the tiles were measured: ``w`` of shape
    :data:`TILED_SHAPE`, ``2 <= rows <= MAX_TILED_ROWS``, and the kernels of
    :func:`tiling_kernels`. It decides that when it is made, and a tiling
    ``Product`` cuts its tiles then. It forms an m-row product with the
    tiles for m = 2 to ``rows``. Every other product is the one plain
    ``np.matmul``: one row (numpy's matrix-vector path), any other shape, a
    ``Product`` of more rows, and any other kernels.

    The tiles cut ``w`` into its two :data:`TILE`-deep K blocks, the blocks
    the packed path makes, and each block into :data:`TILE`-wide column
    tiles, as contiguous copies. The first block's tiles write into ``out``,
    the second block's into one (rows, N) buffer, which is then added to
    ``out``. On OpenBLAS 0.3.31's SkylakeX kernels, each block's dot
    products are one sequential chain of fused multiply-adds in the
    small-matrix kernel as in the packed one, so the sums, and their sum,
    have the bits of the plain product
    (``tests/test_numcore.py::TestProduct``).
    """

    def __init__(self, w: np.ndarray, rows: int):
        self.w = w
        self._tiles = self._rest = None
        if w.shape == TILED_SHAPE and 2 <= rows <= MAX_TILED_ROWS and tiling_kernels():
            depth, width = w.shape
            self._tiles = [
                [
                    (slice(j, j + TILE), np.ascontiguousarray(w[k : k + TILE, j : j + TILE]))
                    for j in range(0, width, TILE)
                ]
                for k in range(0, depth, TILE)
            ]
            self._rest = np.empty((rows, width), dtype=w.dtype)

    def plain(self, x: np.ndarray, out: np.ndarray) -> None:
        """The one plain product, for any number of rows."""
        np.matmul(x, self.w, out)

    def _by_tiles(self, x: np.ndarray, out: np.ndarray) -> None:
        first, second = self._tiles
        rest = self._rest[: len(x)]
        x_k = x[:, :TILE]
        for cols, tile in first:
            np.matmul(x_k, tile, out[:, cols])
        x_k = x[:, TILE:]
        for cols, tile in second:
            np.matmul(x_k, tile, rest[:, cols])
        out += rest

    def for_rows(self, m: int):
        """The product for an x of m rows: :meth:`plain` or the tiled
        product, a function ``(x, out)`` that writes ``x @ w`` into ``out``."""
        if self._tiles is not None and 2 <= m <= len(self._rest):
            return self._by_tiles
        return self.plain
