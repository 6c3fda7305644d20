import numpy as np
import pytest

from eacs import oracle
from eacs._kernels import lcs_masks
from eacs.corpus import tokenize_comment
from eacs.errors import EmptyInput
from eacs.oracle import informativity, label_statements
from eacs.segmenter import SegmentedSnippet, Statement, segment

from .oracles import best_subset_informativity, greedy_labels_brute


def make_snippet(statement_tokens):
    statements = tuple(
        Statement(text=" ".join(toks), tokens=tuple(toks)) for toks in statement_tokens
    )
    full = tuple(t for toks in statement_tokens for t in toks)
    return SegmentedSnippet(statements=statements, full_tokens=full)


class TestInformativity:
    def test_empty_selection(self):
        snip = make_snippet([["a", "b"]])
        assert informativity([], snip, ["a"], lcs_masks(["a"])) == 0.0

    def test_full_cover(self):
        snip = make_snippet([["x", "a", "b", "y"]])
        assert informativity([0], snip, ["a", "b"], lcs_masks(["a", "b"])) == 1.0

    def test_two_of_three_matches_dp(self):
        snip = make_snippet([["a", "b"], ["z"], ["c", "d"]])
        comment = ["a", "c", "d", "q"]
        # LCS([a,c,d,q], [a,b,c,d]) = 3 -> 3/4
        assert informativity([0, 2], snip, comment, lcs_masks(comment)) == pytest.approx(0.75)

    def test_recall(self):
        # LCS(comment, tokens) / |comment|: full cover, no tokens, two of four.
        abcd = list("abcd")
        snip = make_snippet([abcd, [], ["a", "d"]])
        assert informativity([0], snip, abcd, lcs_masks(abcd)) == 1.0
        assert informativity([1], snip, ["a"], lcs_masks(["a"])) == 0.0
        assert informativity([2], snip, abcd, lcs_masks(abcd)) == 0.5


class TestLabelStatements:
    def test_empty_comment_raises(self):
        with pytest.raises(EmptyInput):
            label_statements(segment("int a = 1;", "java"), [])

    def test_exact_statement_selected(self):
        snip = make_snippet([["x", "y"], ["a", "b"], ["q"]])
        labeled = label_statements(snip, ["a", "b"])
        assert labeled.labels == (0, 1, 0)

    def test_disjoint_comment_forces_first(self):
        snip = make_snippet([["x"], ["y"], ["z"]])
        labeled = label_statements(snip, ["unrelated"])
        assert labeled.labels == (1, 0, 0)
        assert labeled.trace[0].informativity == 0.0

    def test_joint_cover_from_two_statements(self):
        snip = make_snippet([["a", "b"], ["noise"], ["c", "d"]])
        labeled = label_statements(snip, ["a", "b", "c", "d"])
        assert labeled.labels == (1, 0, 1)
        # The greedy set's final score matches the exhaustive-best subset here.
        best = best_subset_informativity([list(s.tokens) for s in snip.statements],
                                         ["a", "b", "c", "d"])
        assert labeled.trace[-1].informativity == pytest.approx(best)

    def test_trace_strictly_increases(self, toy_corpus):
        for pair in toy_corpus:
            labeled = label_statements(segment(pair.code, "java"),
                                       tokenize_comment(pair.comment))
            infos = [t.informativity for t in labeled.trace]
            assert all(b > a for a, b in zip(infos, infos[1:]))
            assert sum(labeled.labels) >= 1

    def test_deterministic(self):
        snip = make_snippet([["a", "b"], ["b", "c"], ["c", "a"]])
        comment = ["a", "b", "c"]
        first = label_statements(snip, comment)
        second = label_statements(snip, comment)
        assert first.labels == second.labels and first.trace == second.trace


def random_case(rng):
    vocab = [f"t{i}" for i in range(12)]
    n_stmts = int(rng.integers(1, 9))
    stmts = [
        [vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 7))]
        for _ in range(n_stmts)
    ]
    comment = [vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 9))]
    return stmts, comment


class TestGreedyRegression:
    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            stmts, comment = random_case(rng)
            labeled = label_statements(make_snippet(stmts), comment)
            labels, trace = greedy_labels_brute(stmts, comment)
            assert list(labeled.labels) == labels
            assert [(t.index, t.informativity) for t in labeled.trace] == pytest.approx(trace)

    @pytest.mark.parametrize("shared", [2, 0])
    def test_matches_on_statements_without_comment_tokens(self, shared):
        # Most (shared=2) or all (shared=0) statements draw only from tokens
        # the comment lacks: the early stop and the forced label.
        rng = np.random.default_rng(7 + shared)
        comment_vocab = [f"c{i}" for i in range(6)]
        other_vocab = [f"o{i}" for i in range(6)]
        for _ in range(100):
            n = int(rng.integers(1, 10))
            hits = set(rng.choice(n, size=min(shared, n), replace=False).tolist())
            stmts = [
                [str(t) for t in rng.choice(comment_vocab + other_vocab if i in hits else other_vocab,
                                            size=int(rng.integers(1, 6)))]
                for i in range(n)
            ]
            comment = [str(t) for t in rng.choice(comment_vocab, size=int(rng.integers(1, 8)))]
            labeled = label_statements(make_snippet(stmts), comment)
            labels, trace = greedy_labels_brute(stmts, comment)
            assert list(labeled.labels) == labels
            assert [(t.index, t.informativity) for t in labeled.trace] == pytest.approx(trace)

    def test_scan_stops_at_first_statement_without_comment_tokens(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "lcs_len_ids", lambda a, b, masks: calls.append(b) or 0)
        label_statements(make_snippet([["x"], ["y"], ["z"]]), ["a"])
        # Three individual scores and no joint one.
        assert len(calls) == 3

    def test_greedy_bounded_by_exhaustive_best(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            stmts, comment = random_case(rng)
            labeled = label_statements(make_snippet(stmts), comment)
            final = labeled.trace[-1].informativity
            assert final <= best_subset_informativity(stmts, comment) + 1e-12
