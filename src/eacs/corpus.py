"""Corpus loading, tokenization, vocabulary construction, and batching.

The corpus file is JSON lines with string fields ``code`` and ``comment``;
unknown fields are ignored. Code is split into lowercase subtokens (camelCase
and underscores split, digits attached to the preceding subtoken, punctuation
kept as single-character tokens). Comments keep only their first sentence.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyComment, FormatError
from .fileio import read_lines

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

# One match per subtoken: group 1 is an ASCII word piece with the digits that
# follow it, a bare "_" splits words, group 2 is any other non-space character.
_CODE_TOKEN_RE = re.compile(
    r"([0-9]+|[A-Z]+(?![a-z])[0-9]*|[A-Z][a-z]*[0-9]*|[a-z]+[0-9]*)|_|([^\sA-Za-z0-9_])"
)
_COMMENT_TOKEN_RE = re.compile(r"[a-z0-9_]+|[^\sa-z0-9_]")
_SENTENCE_END_RE = re.compile(r"[.!?]")


@dataclass(frozen=True)
class RawPair:
    id: int
    code: str
    comment: str


def tokenize_code(text: str) -> list[str]:
    """Lowercase subtoken stream of a source fragment.

    Only ASCII letters and digits form subtokens; a non-ASCII letter or digit
    is dropped, so ``café`` gives ``["caf"]``. Every other non-space
    character is its own token.
    """
    return [
        word.lower() if word else ch
        for word, ch in _CODE_TOKEN_RE.findall(text)
        if word or (ch and not ch.isalnum())
    ]


def tokenize_comment(text: str) -> list[str]:
    """First sentence of a comment, lowercased and split on punctuation."""
    match = _SENTENCE_END_RE.search(text)
    sentence = text[: match.end()] if match else text
    tokens = _COMMENT_TOKEN_RE.findall(sentence.lower())
    if not tokens:
        raise EmptyComment("comment has no tokens after preprocessing")
    return tokens


def load_corpus(path: str) -> list[RawPair]:
    """Read a JSON-lines corpus file in order, one line at a time.

    Blank lines are ignored, and each record's id is its index among the
    records. A malformed line (bad JSON, missing or non-string fields) raises
    :class:`FormatError` naming ``path`` and the 1-based line. Content is not
    checked here: :func:`eacs.segmenter.segment_pairs` skips the pairs that
    fail preprocessing.
    """
    pairs: list[RawPair] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON ({exc.msg})", path, lineno) from exc
        except RecursionError as exc:
            raise FormatError("JSON nested too deeply", path, lineno) from exc
        if not isinstance(record, dict):
            raise FormatError("record is not an object", path, lineno)
        for fld in ("code", "comment"):
            if fld not in record:
                raise FormatError(f"missing `{fld}` field", path, lineno)
            if not isinstance(record[fld], str):
                raise FormatError(f"`{fld}` is not a string", path, lineno)
        pairs.append(RawPair(id=len(pairs), code=record["code"], comment=record["comment"]))
    return pairs


class Vocabulary:
    """Bijective token <-> index table; ``tokens`` begins with :data:`RESERVED_TOKENS`."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise ValueError(f"vocabulary does not begin with {' '.join(RESERVED_TOKENS)}")
        self.index_to_token: list[str] = list(tokens)
        self.token_to_index: dict[str, int] = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.index_to_token == other.index_to_token

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.fromiter(
            (self.token_to_index.get(t, UNK) for t in tokens),
            dtype=np.int64,
            count=len(tokens),
        )

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Tokens of ``ids``, dropping <pad>, <bos> and <eos>."""
        return [self.index_to_token[int(i)] for i in ids if i not in (PAD, BOS, EOS)]


def build_vocabulary(
    sequences: Iterable[Sequence[str]], min_freq: int, max_size: int
) -> Vocabulary:
    """Vocabulary of the tokens in ``sequences``, counted over all of them.

    Tokens with frequency >= ``min_freq`` are kept, most frequent first with
    lexicographic tie-breaks, truncated to ``max_size`` entries including the
    four reserved slots.
    """
    if max_size < 4:
        raise ValueError("max_size must leave room for the reserved tokens")
    counts: Counter[str] = Counter()
    for tokens in sequences:
        counts.update(tokens)
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq and t not in RESERVED_TOKENS),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(RESERVED_TOKENS) + ranked[: max_size - 4])


@dataclass
class Batch:
    """Padded index matrix with the true row lengths."""

    indices: np.ndarray  # (batch, max_len) int64
    lengths: np.ndarray  # (batch,) int64

    @classmethod
    def pad(cls, seqs: Sequence[Sequence[int]]) -> "Batch":
        """Rows of ``seqs`` left-aligned and padded with PAD to the longest row."""
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
        width = int(lengths.max(initial=0))
        rows = np.full((len(seqs), width), PAD, dtype=np.int64)
        for i, seq in enumerate(seqs):
            rows[i, : len(seq)] = seq
        return cls(indices=rows, lengths=lengths)

    def mean_weights(self) -> np.ndarray:
        """Flat (batch * max_len,) weights of the per-row mean, then the batch
        mean: a position of row b weighs 1 / (lengths[b] * batch), padding 0."""
        real = np.arange(self.indices.shape[1]) < self.lengths[:, None]
        rows = np.maximum(self.lengths, 1)[:, None] * len(self.lengths)
        return (real / rows).reshape(-1)

