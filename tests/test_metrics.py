import gc
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eacs import metrics as M
from eacs.errors import EmptyInput, ShapeError

from .oracles import (
    alignment_reference,
    bleu4_brute,
    lcs_brute,
    meteor_alignment_brute,
    meteor_brute,
    ngram_stats_brute,
    packed_links_reference,
    rank_sum_reference,
    rouge_l_brute,
)

tokens = st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=15)


def repetitive_pairs(alphabets, max_size):
    """Token-list pairs over one small alphabet: the repetitive, hard case."""

    def over(alphabet):
        side = st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_size)
        return st.tuples(side, side)

    return st.sampled_from(alphabets).flatmap(over)


COPY_22 = (
    "returns the value of the key in the map or the default value if the key is not in the map ."
).split()


class TestLcs:
    def test_identical(self):
        assert M.lcs_length(list("abcde"), list("abcde")) == 5

    def test_disjoint(self):
        assert M.lcs_length(["a", "b"], ["c", "d"]) == 0

    def test_interleaved(self):
        # DP oracle value for [a,b,c,d] vs [a,c,b,d]
        assert M.lcs_length(list("abcd"), list("acbd")) == 3

    def test_empty(self):
        assert M.lcs_length([], ["a"]) == 0

    @given(tokens, tokens)
    @settings(max_examples=150, deadline=None)
    def test_properties(self, a, b):
        lcs = M.lcs_length(a, b)
        assert lcs == M.lcs_length(b, a)
        assert 0 <= lcs <= min(len(a), len(b))
        assert lcs == lcs_brute(a, b)


class TestRougeL:
    def test_identity_is_one(self):
        assert M.rouge_l(["g"], ["g"]) == 1.0
        assert M.rouge_l(list("abc"), list("abc")) == 1.0

    def test_zero_at_no_lcs(self):
        assert M.rouge_l(["a", "b"], ["c"]) == 0.0

    def test_hand_evaluated(self):
        # R = 2/3, P = 1, beta = 1.2:
        # (1 + 1.44) * (2/3) / (2/3 + 1.44) = 0.7721518987341772
        assert M.rouge_l(["a", "b", "c"], ["a", "b"]) == pytest.approx(
            0.7721518987341772, abs=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            M.rouge_l([], ["a"])
        with pytest.raises(EmptyInput):
            M.rouge_l(["a"], [])

    def test_recall(self):
        assert M.rouge_l_recall(list("abcd"), list("abcd")) == 1.0
        assert M.rouge_l_recall(["a"], []) == 0.0
        assert M.rouge_l_recall(list("abcd"), ["a", "d"]) == 0.5
        with pytest.raises(EmptyInput):
            M.rouge_l_recall([], ["a"])


class TestBleu4:
    def test_identity(self):
        r = ["w", "x", "y", "z"]
        assert M.bleu4(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_brevity_penalty_branch(self):
        # |r| = 4, |g| = 2, g matches r's prefix: all precisions 1 after
        # smoothing, so the score is exactly e^(1 - 4/2).
        assert M.bleu4(list("abcd"), list("ab")) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert M.brevity_penalty(4, 2) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_no_overlap_is_zero(self):
        assert M.bleu4(["a", "b"], ["c", "d"]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            M.bleu4([], ["a"])

    @given(tokens, tokens)
    @settings(max_examples=150, deadline=None)
    def test_bp_is_one_for_longer_hypotheses(self, r, g):
        if len(g) > len(r):
            assert M.brevity_penalty(len(r), len(g)) == 1.0
        assert 0.0 <= M.bleu4(r, g) <= 1.0


class TestMeteor:
    def test_no_match_is_zero(self):
        assert M.meteor(["a"], ["b"]) == 0.0

    def test_identity_three_tokens(self):
        # m=3, chunks=1: (1 - 0.5 * (1/3)^3) * 1 = 1 - 0.5/27
        got = M.meteor(["add", "two", "numbers"], ["add", "two", "numbers"])
        assert got == pytest.approx(1.0 - 0.5 / 27.0, abs=1e-12)

    def test_swap_gives_half(self):
        # m=2, chunks=2, frag=1, F=1 -> 0.5
        assert M.meteor(["a", "b"], ["b", "a"]) == pytest.approx(0.5, abs=1e-12)

    def test_chunk_minimizing_alignment(self):
        # Greedy left-to-right matching would produce 3 chunks here; the
        # minimum is 2 ([a at r2] plus the [a,b] run).
        assert M.alignment_stats(["a", "b", "a"], ["a", "a", "b"]) == (3, 2)

    def test_packing_off_by_one_chunk(self):
        # Leftmost-greedy packing takes [a,a] at r0/g1 and leaves 3 chunks;
        # [b,a] plus [a] at r1 gives 2.
        assert M.alignment_stats(["a", "a", "b", "a"], ["b", "a", "a", "a"]) == (4, 2)

    def test_bigram_bound_not_reached(self):
        # Both bigrams are shared (UB = 2), but they overlap in g, so the
        # search has to show that only one link fits.
        assert M.alignment_stats(["b", "a", "a", "b"], ["b", "a", "b"]) == (3, 2)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            M.meteor([], ["a"])

    @pytest.mark.parametrize(
        "pair",
        [(["the"] * 30, ["the"] * 30), (COPY_22, COPY_22)],
        ids=["the-x30", "copy-22"],
    )
    def test_degenerate_pairs_are_fast(self, pair):
        # The memoized search took seconds on the first and ~52 s on the
        # second; the bound and the greedy packing settle both at once.
        start = time.perf_counter()
        score = M.meteor(*pair)
        assert time.perf_counter() - start < 0.1
        assert M.alignment_stats(*pair) == (len(pair[0]), 1)
        assert score == pytest.approx(1.0 - 0.5 / len(pair[0]) ** 3, abs=1e-12)

    def test_alignment_leaves_no_garbage(self):
        # With the cyclic collector off, whatever one call leaves behind
        # stays allocated (the old search's memo for ["the"] * 10 was ~5 MB).
        # The second pair runs the exact search.
        cases = [
            ((["the"] * 10, ["the"] * 10), (10, 1)),
            ((["b", "a", "a", "b"], ["b", "a", "b"]), (3, 2)),
        ]
        for pair, want in cases:
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert M.alignment_stats(*pair) == want
                left = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
                gc.enable()
            assert left < 1_000_000

    @given(repetitive_pairs(["ab", "abc"], 8))
    @settings(max_examples=400, deadline=None)
    def test_alignment_matches_enumeration(self, pair):
        assert M.alignment_stats(*pair) == meteor_alignment_brute(*pair)

    @given(repetitive_pairs(["ab", "abc", "abcd"], 12))
    @settings(max_examples=300, deadline=None)
    def test_alignment_matches_memoized_search(self, pair):
        assert M.alignment_stats(*pair) == alignment_reference(*pair)


class TestPackedLinks:
    """The greedy packing finds each diagonal run once and cuts it at used
    positions; it must pick the same blocks as the plain rescan, since the
    packed links are printed for bounded pairs."""

    @given(repetitive_pairs(["ab", "abc", "abcdefghij"], 40), st.integers(1, 40))
    @settings(max_examples=400, deadline=None)
    def test_matches_rescanning_packing(self, pair, upper):
        assert M._packed_links(*pair, upper) == (packed_links_reference(*pair, upper), True)

    def test_random_long_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            alphabet = list("abcdef"[: rng.integers(2, 7)])
            r, g = ([alphabet[i] for i in rng.integers(0, len(alphabet), rng.integers(1, 60))]
                    for _ in range(2))
            upper = int(rng.integers(1, 60))
            assert M._packed_links(r, g, upper) == (packed_links_reference(r, g, upper), True)


class TestBruteForceEquivalence:
    """Acceptance-style oracle equivalence on random pairs (smaller sample
    here; the full 1,000-pair run lives in the acceptance suite)."""

    def test_random_pairs(self):
        rng = np.random.default_rng(42)
        vocab = list("abcdefghij")
        for _ in range(200):
            r = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 16))]
            g = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 16))]
            assert M.lcs_length(r, g) == lcs_brute(r, g)
            for n in (1, 2, 3, 4):
                assert M.modified_ngram_stats(r, g, n) == ngram_stats_brute(r, g, n)
            assert M.bleu4(r, g) == pytest.approx(bleu4_brute(r, g), abs=1e-9)
            assert M.rouge_l(r, g) == pytest.approx(rouge_l_brute(r, g), abs=1e-9)
            assert M.meteor(r, g) == pytest.approx(meteor_brute(r, g), abs=1e-9)


class TestMannWhitney:
    def test_exact_enumeration(self):
        res = M.mann_whitney_u_test([1, 2, 3], [4, 5, 6])
        assert res.method == "exact"
        assert res.u_statistic == 0.0
        assert res.p_value == pytest.approx(0.1, abs=1e-12)

    def test_identical_multisets(self):
        res = M.mann_whitney_u_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p_value >= 0.99

    def test_large_separated_samples(self):
        xs = list(range(100))
        ys = [x + 1000 for x in range(100)]
        res = M.mann_whitney_u_test(xs, ys)
        assert res.method == "normal-approx"
        assert res.band == "****"

    def test_exact_rank_sum_leaves_no_garbage(self):
        # With the cyclic collector off, whatever one call leaves behind
        # stays allocated (a self-referring recursive closure left ~220 KB here).
        xs, ys = [float(i) for i in range(12)], [i + 0.5 for i in range(12)]
        M.mann_whitney_u_test(xs[:2], ys[:2], method="exact")  # warm numpy's lazy state
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = M.mann_whitney_u_test(xs, ys, method="exact")
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert res.method == "exact"
        assert left < 20_000

    @given(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)), min_size=2, max_size=14),
        st.integers(1, 7),
        st.sampled_from(["auto", "exact", "normal-approx"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, pooled, n, method):
        n = min(n, len(pooled) - 1)
        xs, ys = pooled[:n], pooled[n:]
        res = M.mann_whitney_u_test(xs, ys, method=method)
        u, p, used = rank_sum_reference(xs, ys, method)
        assert (res.u_statistic, res.method) == (u, used)
        assert res.p_value == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_exact_close_to_normal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xs = list(rng.normal(0.0, 1.0, 10))
            ys = list(rng.normal(0.4, 1.0, 10))
            exact = M.mann_whitney_u_test(xs, ys, method="exact")
            approx = M.mann_whitney_u_test(xs, ys, method="normal-approx")
            assert abs(exact.p_value - approx.p_value) <= 0.02

    def test_bands(self):
        assert M.significance_band(0.5) == "ns"
        assert M.significance_band(0.05) == "ns"
        assert M.significance_band(0.03) == "*"
        assert M.significance_band(0.01) == "**"
        assert M.significance_band(0.002) == "**"
        assert M.significance_band(0.0005) == "***"
        assert M.significance_band(0.00005) == "****"

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            M.mann_whitney_u_test([], [1.0])


class TestEvaluateCorpus:
    def test_identity_corpus(self):
        refs = [list("abcd"), ["x", "y", "z"]]
        report = M.evaluate_corpus(refs, refs)
        means = report.to_record()["means"]
        assert means["bleu"] == pytest.approx(1.0)
        assert means["rouge_l"] == pytest.approx(1.0)
        assert means["meteor"] < 1.0  # fragmentation penalty at chunks=1

    def test_single_pair_mean_equals_sample(self):
        report = M.evaluate_corpus([list("abcd")], [list("abce")])
        assert report.to_record()["means"]["bleu"] == pytest.approx(float(report.scores["bleu"][0]))

    def test_disjoint_pairs(self):
        refs = [["a", "b"], ["c", "d"]]
        hyps = [["x", "y"], ["z", "w"]]
        report = M.evaluate_corpus(refs, hyps)
        means = report.to_record()["means"]
        assert means["bleu"] == 0.0
        assert means["rouge_l"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            M.evaluate_corpus([["a"]], [["a"], ["b"]])

    def test_comment_buckets(self):
        refs = [["a"] * 3, ["b"] * 8, ["c"] * 12]
        report = M.evaluate_corpus(refs, refs, buckets=("comment", [3, 8, 12]))
        assert set(report.buckets) == {"comment 1-5", "comment 6-10", "comment 11-15"}
        assert len(report.buckets["comment 1-5"].scores["bleu"]) == 1

    def test_code_buckets_need_lengths(self):
        # One line count per pair: a --codes corpus of another size is rejected.
        for lengths in ([], [25, 25]):
            with pytest.raises(ShapeError):
                M.evaluate_corpus([["a"]], [["a"]], buckets=("code", lengths))
        report = M.evaluate_corpus([["a"]], [["a"]], buckets=("code", [25]))
        assert list(report.buckets) == ["code 21-30"]

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        refs = [[str(i) for i in rng.integers(0, 9, 6)] for _ in range(8)]
        hyps = [[str(i) for i in rng.integers(0, 9, 6)] for _ in range(8)]
        fwd = M.evaluate_corpus(refs, hyps)
        rev = M.evaluate_corpus(refs[::-1], hyps[::-1])
        assert fwd.to_record()["means"] == rev.to_record()["means"]


def profiled_cases():
    """A reference and two hypotheses over one small alphabet, short enough
    for the brute-force METEOR enumeration; a hypothesis may be empty."""

    def over(alphabet):
        token = st.sampled_from(alphabet)
        return st.tuples(
            st.lists(token, min_size=1, max_size=8),
            st.lists(token, max_size=8),
            st.lists(token, max_size=8),
        )

    return st.sampled_from(["ab", "abc", "abcdef"]).flatmap(over)


class TestSharedProfiles:
    """A reference profiled once scores like each metric called standalone
    and like the brute-force oracles, to the last bit."""

    @given(profiled_cases())
    @settings(max_examples=300, deadline=None)
    def test_score_pair_matches_standalone_and_brute_force(self, case):
        r, g1, g2 = case
        profile = M.profile_reference(r)
        # Two hypothesis files against one profile, an exact copy, one token.
        for g in (g1, g2, list(r), g1[:1]):
            got = M.score_pair(r, g, profile)
            if not g:
                assert got == (0.0, 0.0, 0.0)
                continue
            assert got == M.score_pair(r, g)
            assert got == (M.bleu4(r, g), M.meteor(r, g), M.rouge_l(r, g))
            assert got == (bleu4_brute(r, g), meteor_brute(r, g), rouge_l_brute(r, g))
            assert M.alignment_stats(r, g) == meteor_alignment_brute(r, g)

    @given(profiled_cases())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_references_share_profiles_across_files(self, case):
        r, g1, g2 = case
        refs = [r, list(r), r]
        profiles = [M.profile_reference(x) for x in refs]
        for hyps in ([g1, g2, list(r)], [g2, g1, []]):
            report = M.evaluate_corpus(refs, hyps, profiles=profiles)
            rows = np.array([M.score_pair(x, g) for x, g in zip(refs, hyps)])
            for k, name in enumerate(M.METRICS):
                assert report.scores[name].tolist() == rows[:, k].tolist()
            assert report.meteor_bounded == []
        assert profiles == [M.profile_reference(x) for x in refs]

    def test_profiles_must_align_with_references(self):
        with pytest.raises(ShapeError):
            M.evaluate_corpus([["a"], ["b"]], [["a"], ["b"]], profiles=[M.profile_reference(["a"])])


class TestSearchBudget:
    # Over two tokens the exact link search is exponential; this pair needs
    # more than SEARCH_NODES nodes, and its exact answer is 13 links.
    HARD = (list("baaaaabbababbaaabaaa"), list("babaaabbaabbbbaaaaba"))

    def test_budget_keeps_the_packing_and_reports_it(self, monkeypatch):
        bounded = []
        m, chunks = M.alignment_stats(*self.HARD, None, bounded)
        assert bounded == [(11, 17)] and (m, chunks) == (18, 18 - 11)
        assert M.alignment_stats(*self.HARD) == (m, chunks)  # the same without a sink
        monkeypatch.setattr(M, "SEARCH_NODES", 10**7)
        exact = M.alignment_stats(*self.HARD)
        assert exact == (18, 18 - 13)
        low, high = bounded[0]
        assert low <= m - exact[1] <= high

    def test_spent_packing_keeps_its_links_and_skips_the_search(self, monkeypatch):
        assert M._packed_links(*self.HARD, 17) == (11, True)
        monkeypatch.setattr(M, "PACK_STEPS", 250)  # spent in the packing's rounds
        assert M._packed_links(*self.HARD, 17) == (10, False)
        monkeypatch.setattr(M, "SEARCH_NODES", 10**7)  # the search would find 13 links
        bounded = []
        assert M.alignment_stats(*self.HARD, None, bounded) == (18, 18 - 10)
        assert bounded == [(10, 17)]
        monkeypatch.setattr(M, "PACK_STEPS", 100)  # spent while listing the blocks
        assert M._packed_links(*self.HARD, 17) == (0, False)

    def test_bounded_pairs_are_recorded_by_index(self):
        refs = [list("ab"), self.HARD[0], list("ab")]
        hyps = [list("ab"), self.HARD[1], list("ba")]
        report = M.evaluate_corpus(refs, hyps, buckets=("comment", [len(r) for r in refs]))
        record = report.to_record()
        assert record["meteor_bounded"] == [{"index": 1, "links": [11, 17]}]
        assert all("meteor_bounded" not in sub for sub in record["buckets"].values())
        assert "meteor_bounded" not in M.evaluate_corpus(refs[:1], hyps[:1]).to_record()
