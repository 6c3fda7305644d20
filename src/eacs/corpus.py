"""Corpus loading, tokenization, vocabulary construction, and batching.

The corpus file is JSON lines with string fields ``code`` and ``comment``;
unknown fields are ignored. Code is split into lowercase subtokens (camelCase
and underscores split, digits attached to the preceding subtoken, punctuation
kept as single-character tokens). Comments keep only their first sentence.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyComment, FormatError, IoError

log = logging.getLogger(__name__)

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

_RUN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_PIECE_RE = re.compile(r"[0-9]+|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")
_COMMENT_TOKEN_RE = re.compile(r"[a-z0-9_]+|[^\sa-z0-9_]")
_SENTENCE_END_RE = re.compile(r"[.!?]")


@dataclass(frozen=True)
class RawPair:
    id: int
    code: str
    comment: str


class Corpus(Sequence[RawPair]):
    """Loaded code/comment pairs plus the count of lines skipped in preprocessing."""

    def __init__(self, pairs: list[RawPair], skipped: int = 0):
        self.pairs = pairs
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def __iter__(self) -> Iterator[RawPair]:
        return iter(self.pairs)


def tokenize_code(text: str) -> list[str]:
    """Lowercase subtoken stream of a source fragment."""
    tokens: list[str] = []
    for run in _RUN_RE.findall(text):
        if run[0].isalnum() or run[0] == "_":
            for word in run.split("_"):
                if not word:
                    continue
                pieces = _PIECE_RE.findall(word)
                merged: list[str] = []
                for piece in pieces:
                    # Digit runs belong to the subtoken before them.
                    if piece[0].isdigit() and merged:
                        merged[-1] += piece
                    else:
                        merged.append(piece)
                tokens.extend(p.lower() for p in merged)
        else:
            tokens.append(run)
    return tokens


def tokenize_comment(text: str) -> list[str]:
    """First sentence of a comment, lowercased and split on punctuation."""
    match = _SENTENCE_END_RE.search(text)
    sentence = text[: match.end()] if match else text
    tokens = _COMMENT_TOKEN_RE.findall(sentence.lower())
    if not tokens:
        raise EmptyComment("comment has no tokens after preprocessing")
    return tokens


def load_corpus(path: str) -> Corpus:
    """Read a JSON-lines corpus file in order.

    Malformed lines (bad JSON, missing or non-string fields) raise
    :class:`FormatError` with the 1-based line number. Lines whose content
    fails preprocessing (blank code, empty comment after the first-sentence
    rule) are skipped and counted, so large corpora ingest robustly.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read corpus file {path}: {exc}") from exc
    pairs: list[RawPair] = []
    skipped = 0
    try:
        with fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"invalid JSON ({exc.msg})", line=lineno) from exc
                if not isinstance(record, dict):
                    raise FormatError("record is not an object", line=lineno)
                for fld in ("code", "comment"):
                    if fld not in record:
                        raise FormatError(f"missing `{fld}` field", line=lineno)
                    if not isinstance(record[fld], str):
                        raise FormatError(f"`{fld}` is not a string", line=lineno)
                code, comment = record["code"], record["comment"]
                if not code.strip():
                    skipped += 1
                    continue
                try:
                    tokenize_comment(comment)
                except EmptyComment:
                    skipped += 1
                    continue
                pairs.append(RawPair(id=len(pairs), code=code, comment=comment))
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read corpus file {path}: {exc}") from exc
    if skipped:
        log.info("skipped %d line(s) that failed preprocessing", skipped)
    return Corpus(pairs, skipped=skipped)


class Vocabulary:
    """Bijective token <-> index table with fixed reserved slots 0..3."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            tokens = list(RESERVED_TOKENS) + [t for t in tokens if t not in RESERVED_TOKENS]
        self.index_to_token: list[str] = list(tokens)
        self.token_to_index: dict[str, int] = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.index_to_token == other.index_to_token

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.fromiter(
            (self.token_to_index.get(t, UNK) for t in tokens),
            dtype=np.int64,
            count=len(tokens),
        )

    def decode(self, ids: Sequence[int], keep_special: bool = False) -> list[str]:
        out = []
        for i in ids:
            if not keep_special and i in (PAD, BOS, EOS):
                continue
            out.append(self.index_to_token[int(i)])
        return out


def build_vocabulary(pairs: Sequence[RawPair], min_freq: int = 1, max_size: int = 2000) -> Vocabulary:
    """Joint vocabulary over code and comment tokens.

    Tokens with frequency >= ``min_freq`` are kept, most frequent first with
    lexicographic tie-breaks, truncated to ``max_size`` entries including the
    four reserved slots.
    """
    if max_size < 4:
        raise ValueError("max_size must leave room for the reserved tokens")
    counts: Counter[str] = Counter()
    for pair in pairs:
        counts.update(tokenize_code(pair.code))
        try:
            counts.update(tokenize_comment(pair.comment))
        except EmptyComment:
            continue
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq and t not in RESERVED_TOKENS),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(list(RESERVED_TOKENS) + ranked[: max_size - 4])


@dataclass
class Batch:
    """Padded index matrix with a non-PAD mask and the true row lengths."""

    indices: np.ndarray  # (batch, max_len) int64
    mask: np.ndarray  # (batch, max_len) float, 1.0 at non-PAD positions
    lengths: np.ndarray = field(default=None)  # (batch,) int64

    def __post_init__(self):
        if self.lengths is None:
            self.lengths = self.mask.sum(axis=1).astype(np.int64)


def encode_and_pad(
    seqs: Sequence[Sequence[str]],
    vocab: Vocabulary,
    max_len: int,
    add_bos: bool = False,
) -> Batch:
    """Encode token sequences into a fixed-width index matrix.

    Each sequence is truncated to fit, terminated with EOS, optionally
    prefixed with BOS (comment side), then padded with PAD to ``max_len``.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rows = np.full((len(seqs), max_len), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=np.float64)
    for i, seq in enumerate(seqs):
        ids = list(vocab.encode(seq))
        budget = max_len - (2 if add_bos else 1)
        ids = ids[: max(budget, 0)]
        row = ([BOS] if add_bos else []) + ids + [EOS]
        row = row[:max_len]
        rows[i, : len(row)] = row
        mask[i, : len(row)] = 1.0
    return Batch(indices=rows, mask=mask)
