"""Hot numeric kernels.

The longest-common-subsequence length is the one genuinely hot inner loop in
this package: the labeling oracle evaluates it O(n^2) times per snippet and
corpus evaluation once per sample. It runs bit-parallel over Python ints
(L. Allison & T. I. Dix, "A bit-string longest-common-subsequence
algorithm", IPL 1986; H. Hyyro, "Bit-parallel LCS-length computation
revisited", AWOCA 2004): one row of the LCS table is one integer, so each
token of ``b`` costs a handful of big-int operations instead of ``len(a)``
table cells.
"""

from typing import Hashable, Sequence

# Kept as a constant because benchmark records report it; there is no JIT path.
USING_NUMBA = False


def lcs_len_ids(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """LCS length of two token sequences (strings, ids, anything hashable)."""
    masks: dict = {}
    bit = 1
    for tok in a:
        masks[tok] = masks.get(tok, 0) | bit
        bit <<= 1
    full = bit - 1
    # Each zero bit of v is one step of the LCS row over a; their count is the length.
    v = full
    for tok in b:
        mask = masks.get(tok)
        # A token absent from a leaves v unchanged, as most statement tokens are.
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()
