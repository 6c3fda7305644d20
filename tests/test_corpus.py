import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eacs import corpus as C
from eacs.errors import EmptyComment, FormatError, IoError


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
        assert corpus.skipped == 0

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
        corpus = C.load_corpus(path)
        assert corpus.skipped == 2
        assert len(corpus) == 1
        assert corpus[0].id == 0

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(IoError):
            C.load_corpus(str(tmp_path / "missing.jsonl"))


def _pairs(freqs):
    # One synthetic pair whose code carries each token `freq` times.
    code = " ".join(" ".join([tok] * n) for tok, n in freqs.items())
    return [C.RawPair(id=0, code=code, comment="x.")]


class TestVocabulary:
    def test_min_freq_filter(self):
        vocab = C.build_vocabulary(_pairs({"aa": 5, "bb": 1}), min_freq=2, max_size=10)
        assert vocab.index_to_token[:4] == list(C.RESERVED_TOKENS)
        assert "aa" in vocab and "bb" not in vocab

    def test_reserved_only_at_max_size_four(self):
        vocab = C.build_vocabulary(_pairs({"aa": 5}), min_freq=1, max_size=4)
        assert len(vocab) == 4

    def test_lexicographic_tie_break(self):
        vocab = C.build_vocabulary(_pairs({"yy": 3, "xx": 3}), min_freq=1, max_size=10)
        assert vocab.token_to_index["xx"] < vocab.token_to_index["yy"]

    def test_deterministic(self, toy_corpus):
        a = C.build_vocabulary(toy_corpus, min_freq=1, max_size=100)
        b = C.build_vocabulary(toy_corpus, min_freq=1, max_size=100)
        assert a.index_to_token == b.index_to_token

    def test_unknown_maps_to_unk(self):
        vocab = C.build_vocabulary(_pairs({"aa": 2}), min_freq=1, max_size=10)
        assert list(vocab.encode(["nope"])) == [C.UNK]


class TestEncodeAndPad:
    @pytest.fixture()
    def vocab(self):
        return C.Vocabulary(list(C.RESERVED_TOKENS) + ["a", "b", "c"])

    def test_single_token_row(self, vocab):
        batch = C.encode_and_pad([["a"]], vocab, max_len=4)
        assert list(batch.indices[0]) == [vocab.token_to_index["a"], C.EOS, C.PAD, C.PAD]
        assert list(batch.mask[0]) == [1, 1, 0, 0]
        assert batch.lengths[0] == 2

    def test_truncation(self, vocab):
        batch = C.encode_and_pad([["a"] * 10], vocab, max_len=4)
        row = list(batch.indices[0])
        assert row == [vocab.token_to_index["a"]] * 3 + [C.EOS]

    def test_bos_side(self, vocab):
        batch = C.encode_and_pad([["a", "b"]], vocab, max_len=5, add_bos=True)
        assert list(batch.indices[0][:4]) == [
            C.BOS, vocab.token_to_index["a"], vocab.token_to_index["b"], C.EOS,
        ]

    def test_cells_are_valid_and_mask_matches_lengths(self, vocab):
        batch = C.encode_and_pad([["a", "zz"], ["b"] * 9], vocab, max_len=6)
        assert batch.indices.max() < len(vocab)
        assert (batch.mask.sum(axis=1) == batch.lengths).all()

    @given(st.lists(st.sampled_from("abc"), min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, seq):
        vocab = C.Vocabulary(list(C.RESERVED_TOKENS) + ["a", "b", "c"])
        batch = C.encode_and_pad([seq], vocab, max_len=8)
        assert vocab.decode(batch.indices[0]) == list(seq)
