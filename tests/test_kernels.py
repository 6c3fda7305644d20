import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eacs import _kernels

from .oracles import lcs_brute

# A small alphabet makes long common subsequences likely; lengths up to 150
# make the bitmasks span several 30-bit digits of a Python int.
TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d", "."]), max_size=150)


class TestLcsKernel:
    @settings(max_examples=300, deadline=None)
    @given(TOKENS, TOKENS)
    def test_matches_brute_force_on_random_tokens(self, a, b):
        expected = lcs_brute(a, b)
        assert _kernels.lcs_len_ids(a, b, None) == expected
        assert _kernels.lcs_len_ids(b, a, None) == expected
        assert _kernels.lcs_len_ids(a, b, _kernels.lcs_masks(a)) == expected

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        one = np.array([3], dtype=np.int64)
        assert _kernels.lcs_len_ids(empty, one, None) == 0
        assert _kernels.lcs_len_ids(one, empty, None) == 0
