import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eacs import corpus as C
from eacs.errors import EmptyComment, FormatError, IoError
from eacs.segmenter import segment_pairs

from .conftest import SOURCE_TEXT, vocabulary_of
from .oracles import tokenize_code_reference


class TestTokenizeCode:
    def test_camel_case_and_punctuation(self):
        assert C.tokenize_code("cacheMap.remove(key)") == [
            "cache", "map", ".", "remove", "(", "key", ")",
        ]

    def test_empty(self):
        assert C.tokenize_code("") == []

    def test_digits_attach_to_previous_subtoken(self):
        assert C.tokenize_code("foo_bar2") == ["foo", "bar2"]

    def test_acronym_runs(self):
        assert C.tokenize_code("HTTPServer") == ["http", "server"]

    def test_leading_digits(self):
        assert C.tokenize_code("2fast") == ["2", "fast"]

    def test_non_ascii_letters_and_digits_dropped(self):
        assert C.tokenize_code("café") == ["caf"]
        assert C.tokenize_code("x² = straße;") == ["x", "=", "stra", "e", ";"]

    @given(SOURCE_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_tokenizer(self, text):
        assert C.tokenize_code(text) == tokenize_code_reference(text)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_no_empty_tokens_and_deterministic(self, text):
        tokens = C.tokenize_code(text)
        assert all(tokens)
        assert all(t == t.lower() for t in tokens)
        assert tokens == C.tokenize_code(text)


class TestTokenizeComment:
    def test_first_sentence_keeps_terminator(self):
        assert C.tokenize_comment("Removes the key. Internal use.") == [
            "removes", "the", "key", ".",
        ]

    def test_no_terminator(self):
        assert C.tokenize_comment("adds x") == ["adds", "x"]

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyComment):
            C.tokenize_comment("   ")


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_two_records(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps({"code": "int a;", "comment": "a field."}),
                json.dumps({"code": "int b;", "comment": "b field.", "extra": 1}),
            ],
        )
        corpus = C.load_corpus(path)
        assert [p.id for p in corpus] == [0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(C.load_corpus(str(path))) == 0

    def test_missing_field_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps({"code": "int a;", "comment": "a."}),
                json.dumps({"code": "int b;"}),
            ],
        )
        with pytest.raises(FormatError) as exc:
            C.load_corpus(path)
        assert exc.value.line == 2

    def test_bad_json_reports_line(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(FormatError) as exc:
            C.load_corpus(path)
        assert exc.value.line == 1

    def test_preprocessing_failures_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps({"code": "   ", "comment": "blank code."}),
                json.dumps({"code": "int a;", "comment": "  "}),
                json.dumps({"code": "int b;", "comment": "kept."}),
            ],
        )
        # Loading keeps every record under its record index; segment_pairs
        # alone skips, and the skip count is what it does not yield.
        corpus = C.load_corpus(path)
        assert [p.id for p in corpus] == [0, 1, 2]
        kept = [pair.id for pair, _, _ in segment_pairs(corpus, "java")]
        assert kept == [2]
        assert len(corpus) - len(kept) == 2

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(IoError):
            C.load_corpus(str(tmp_path / "missing.jsonl"))


def _tokens(freqs):
    # One token sequence carrying each token `freq` times.
    return [[tok for tok, n in freqs.items() for _ in range(n)]]


class TestVocabulary:
    def test_min_freq_filter(self):
        vocab = C.build_vocabulary(_tokens({"aa": 5, "bb": 1}), min_freq=2, max_size=10)
        assert vocab.index_to_token[:4] == list(C.RESERVED_TOKENS)
        assert "aa" in vocab.token_to_index and "bb" not in vocab.token_to_index

    def test_reserved_only_at_max_size_four(self):
        vocab = C.build_vocabulary(_tokens({"aa": 5}), min_freq=1, max_size=4)
        assert len(vocab) == 4

    def test_lexicographic_tie_break(self):
        vocab = C.build_vocabulary(_tokens({"yy": 3, "xx": 3}), min_freq=1, max_size=10)
        assert vocab.token_to_index["xx"] < vocab.token_to_index["yy"]

    def test_deterministic(self, toy_prepared):
        a = vocabulary_of(toy_prepared, max_size=100)
        b = vocabulary_of(toy_prepared, max_size=100)
        assert a.index_to_token == b.index_to_token

    def test_unknown_maps_to_unk(self):
        vocab = C.build_vocabulary(_tokens({"aa": 2}), min_freq=1, max_size=10)
        assert list(vocab.encode(["nope"])) == [C.UNK]


class TestEncodeAndPad:
    def test_pad_ragged_ids(self):
        batch = C.Batch.pad([[5, 6, 7], [], [8]])
        assert batch.indices.tolist() == [[5, 6, 7], [C.PAD] * 3, [8, C.PAD, C.PAD]]
        assert batch.lengths.tolist() == [3, 0, 1]
        assert batch.mean_weights().tolist() == [1 / 9] * 3 + [0] * 3 + [1 / 3, 0, 0]

    @given(st.lists(st.sampled_from("abc"), min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, seq):
        vocab = C.Vocabulary(list(C.RESERVED_TOKENS) + ["a", "b", "c"])
        assert vocab.decode(vocab.encode(seq)) == list(seq)
