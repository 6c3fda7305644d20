"""Extractive model: classify each statement of a snippet as important or not.

Statements are encoded token-by-token with an LSTM, the resulting statement
vectors are passed through a second LSTM so each statement sees its
neighbors (importance is relative within a snippet), and a 2-way softmax
head predicts the label. Training targets come from the greedy labeling
oracle; binary cross entropy is computed on P(label=1).

The minibatch training loop, :func:`fit`, lives here too and also trains the
abstracter.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import numcore as nc
from .config import RunConfig
from .corpus import Corpus, RawPair, Vocabulary, build_vocabulary, tokenize_comment
from .errors import (
    EmptyCorpus,
    EmptyInput,
    EmptySnippet,
    NonFiniteLoss,
    ShapeError,
    TruncationWarning,
)
from .oracle import label_statements
from .segmenter import SegmentedSnippet, Statement, segment

log = logging.getLogger(__name__)

PROB_CLAMP = 1e-7


class ExtractorModel:
    """Token LSTM -> statement vectors -> context LSTM -> softmax head."""

    KIND = "extractor"
    # The config fields a checkpoint needs to rebuild this model.
    HYPERPARAMETERS = (
        "embed_dim",
        "hidden_dim",
        "dropout",
        "max_statement_tokens",
        "max_statements",
    )

    def __init__(
        self, vocab_size: int, config: RunConfig, rng: np.random.Generator, dtype=np.float32
    ):
        self.config = config
        self.vocab_size = vocab_size
        self._params = nc.init_parameters(self.shapes(vocab_size, config), rng, dtype)
        for p in self._params:
            setattr(self, p.name, p)

    @staticmethod
    def shapes(vocab_size: int, config: RunConfig) -> dict[str, tuple[int, ...]]:
        """Parameter shapes in declaration order."""
        e, h = config.embed_dim, config.hidden_dim
        return {
            "embedding": (vocab_size, e),
            "tok_wx": (e, 4 * h),
            "tok_wh": (h, 4 * h),
            "tok_b": (4 * h,),
            "ctx_wx": (h, 4 * h),
            "ctx_wh": (h, 4 * h),
            "ctx_b": (4 * h,),
            "cls_w": (h, 2),
            "cls_b": (2,),
        }

    def parameters(self) -> list[nc.Parameter]:
        return list(self._params)

    def encode_statements(
        self,
        stmt_ids: Sequence[np.ndarray],
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> nc.Tensor:
        """Contextualized statement embedding matrix, one row per statement."""
        p = self.config.dropout
        rows = []
        for ids in stmt_ids:
            emb = nc.embedding_lookup(self.embedding, ids)
            emb = nc.dropout(emb, p, rng, train=train)
            rows.append(nc.lstm_over(emb, self.tok_wx, self.tok_wh, self.tok_b))
        mat = nc.concat(rows, axis=0) if len(rows) > 1 else rows[0]
        mat = nc.dropout(mat, p, rng, train=train)
        return nc.lstm_over(mat, self.ctx_wx, self.ctx_wh, self.ctx_b, collect=True)

    def classify_statements(self, embeddings: nc.Tensor) -> nc.Tensor:
        """Per-statement probability pairs; each row sums to 1."""
        if embeddings.shape[-1] != self.config.hidden_dim:
            raise ShapeError(
                f"embedding width {embeddings.shape[-1]} != hidden {self.config.hidden_dim}"
            )
        logits = nc.add(nc.matmul(embeddings, self.cls_w), self.cls_b)
        return nc.softmax(logits, axis=-1)

    def statement_probs(
        self,
        stmt_ids: Sequence[np.ndarray],
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> nc.Tensor:
        return self.classify_statements(self.encode_statements(stmt_ids, train=train, rng=rng))


def extractor_loss(probs: nc.Tensor, gold: np.ndarray) -> nc.Tensor:
    """Mean binary cross entropy of P(label=1) against 0/1 gold labels.

    Probabilities are clamped to [1e-7, 1 - 1e-7] so a fully wrong statement
    costs about 16.1 rather than infinity.
    """
    gold = np.asarray(gold, dtype=np.float64).reshape(-1, 1)
    if probs.data.ndim != 2 or probs.shape[1] != 2 or probs.shape[0] != gold.shape[0]:
        raise ShapeError(f"probs {probs.shape} vs gold {gold.shape}")
    p1 = nc.clip(nc.slice_axis(probs, 1, 2, axis=-1), PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = nc.mul(nc.log(p1), gold)
    neg = nc.mul(nc.log(nc.sub(1.0, p1)), 1.0 - gold)
    return nc.mul(nc.mean_all(nc.add(pos, neg)), -1.0)


def extractor_batch_loss(
    model: ExtractorModel,
    samples: Sequence[ExtractorSample],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nc.Tensor:
    """Batch loss: per-snippet mean cross entropy, then mean over the batch."""
    if not samples:
        raise EmptyInput("extractor_batch_loss needs at least one sample")
    total = None
    for s in samples:
        term = extractor_loss(model.statement_probs(s.stmt_ids, train=train, rng=rng), s.labels)
        total = term if total is None else nc.add(total, term)
    return nc.mul(total, 1.0 / len(samples))


@dataclass
class ExtractorSample:
    pair_id: int
    snippet: SegmentedSnippet
    stmt_ids: list[np.ndarray]
    labels: np.ndarray
    comment_tokens: list[str]


def truncate_snippet(snippet: SegmentedSnippet, max_statements: int) -> SegmentedSnippet:
    if len(snippet.statements) <= max_statements:
        return snippet
    warnings.warn(
        f"snippet truncated from {len(snippet.statements)} to {max_statements} statements",
        TruncationWarning,
        stacklevel=2,
    )
    return SegmentedSnippet(
        language=snippet.language,
        statements=snippet.statements[:max_statements],
        full_tokens=snippet.full_tokens,
    )


def extractor_input(
    snippet: SegmentedSnippet, vocab: Vocabulary, config: RunConfig
) -> tuple[SegmentedSnippet, list[np.ndarray]]:
    """The truncated snippet and its per-statement token ids, for training and inference."""
    snippet = truncate_snippet(snippet, config.max_statements)
    return snippet, [
        vocab.encode(st.tokens[: config.max_statement_tokens]) for st in snippet.statements
    ]


def build_extractor_dataset(
    pairs: Sequence[RawPair],
    language: str,
    vocab: Vocabulary,
    config: RunConfig,
) -> list[ExtractorSample]:
    samples = []
    for pair in pairs:
        try:
            snippet, stmt_ids = extractor_input(segment(pair.code, language), vocab, config)
            comment = tokenize_comment(pair.comment)
        except EmptySnippet:
            continue
        labeled = label_statements(snippet, comment)
        samples.append(
            ExtractorSample(
                pair_id=pair.id,
                snippet=snippet,
                stmt_ids=stmt_ids,
                labels=np.array(labeled.labels, dtype=np.int64),
                comment_tokens=comment,
            )
        )
    return samples


@dataclass
class TrainHistory:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    def log_epoch(self, epoch: int, train: float, val: float) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(train)
        self.val_loss.append(val)
        log.info("epoch %d: train loss %.6f, val loss %.6f", epoch, train, val)


def split_validation(samples: list, val_fraction: float) -> tuple[list, list]:
    """Hold out the last ``val_fraction`` of the samples; with none held out,
    validation runs on the training set itself (the desk-scale default)."""
    n_val = int(len(samples) * val_fraction)
    if not n_val:
        return samples, samples
    return samples[: len(samples) - n_val], samples[len(samples) - n_val :]


def dataset_loss(model, batch_loss: Callable[..., nc.Tensor], samples: Sequence) -> float:
    """Mean per-sample loss with dropout off."""
    return sum(batch_loss(model, [s]).item() for s in samples) / len(samples)


def _check_finite(loss: float, where: str) -> None:
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"{where}: loss is {loss}; lower lr or check the data")


def fit(
    model,
    batch_loss: Callable[..., nc.Tensor],
    train_set: Sequence,
    val_set: Sequence,
    config: RunConfig,
) -> tuple[TrainHistory, int]:
    """Minibatch AdamW on ``train_set``; restores the best-validation weights.

    ``batch_loss(model, samples, train=..., rng=...)`` is the mean loss of a
    minibatch. Shuffling and dropout draw from streams 1 and 2 of
    ``rng_streams(config.seed)``; stream 0 initialises the model. Returns the
    history and the best epoch; a non-finite loss raises
    :class:`NonFiniteLoss`.
    """
    _, shuffle_rng, drop_rng = nc.rng_streams(config.seed)
    params = model.parameters()
    opt = nc.AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    history = TrainHistory()
    best_val = float("inf")
    best_epoch = -1
    best_state = [p.data.copy() for p in params]
    # Overflow surfaces as a NonFiniteLoss naming the batch, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(train_set))
            for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
                batch = [train_set[i] for i in order[start : start + config.batch_size]]
                opt.zero_grad()
                with nc.Tape() as tape:
                    loss = batch_loss(model, batch, train=True, rng=drop_rng)
                    _check_finite(loss.item(), f"epoch {epoch}, batch {batch_no}")
                    tape.backward(loss, params=params)
                opt.step()
            train_loss = dataset_loss(model, batch_loss, train_set)
            val_loss = (
                train_loss if val_set is train_set else dataset_loss(model, batch_loss, val_set)
            )
            _check_finite(train_loss, f"epoch {epoch}, training set")
            _check_finite(val_loss, f"epoch {epoch}, validation set")
            history.log_epoch(epoch, train_loss, val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = [p.data.copy() for p in params]
    for p, data in zip(params, best_state):
        p.data = data
    return history, best_epoch


@dataclass
class ExtractorTrainResult:
    model: ExtractorModel
    vocab: Vocabulary
    history: TrainHistory
    best_epoch: int


def label_accuracy(model: ExtractorModel, samples: Sequence[ExtractorSample]) -> float:
    """Fraction of statements whose argmax label matches the oracle label."""
    hit = 0
    total = 0
    for s in samples:
        probs = model.statement_probs(s.stmt_ids, train=False).data
        pred = (probs[:, 1] > probs[:, 0]).astype(np.int64)
        hit += int((pred == s.labels).sum())
        total += len(s.labels)
    return hit / max(total, 1)


def train_extractor(
    corpus: Corpus | Sequence[RawPair],
    config: RunConfig,
    language: str = "java",
    vocab: Optional[Vocabulary] = None,
) -> ExtractorTrainResult:
    """Oracle labeling + minibatch AdamW; returns the best-validation model."""
    pairs = list(corpus)
    if not pairs:
        raise EmptyCorpus("no pairs to train on")
    if vocab is None:
        vocab = build_vocabulary(pairs, min_freq=config.min_freq, max_size=config.vocab_size)
    samples = build_extractor_dataset(pairs, language, vocab, config)
    if not samples:
        raise EmptyCorpus("no usable samples after segmentation")
    model = ExtractorModel(len(vocab), config, nc.rng_streams(config.seed)[0])
    train_set, val_set = split_validation(samples, config.val_fraction)
    history, best_epoch = fit(model, extractor_batch_loss, train_set, val_set, config)
    return ExtractorTrainResult(model=model, vocab=vocab, history=history, best_epoch=best_epoch)


def predict_important(
    code: str | SegmentedSnippet,
    model: ExtractorModel,
    vocab: Vocabulary,
    language: str = "java",
) -> tuple[list[Statement], list[int]]:
    """Statements predicted important, in source order.

    ``code`` is source text in ``language`` or an already segmented snippet.
    A tie at exactly P=0.5 resolves to label 0; when nothing is labeled 1 the
    single highest-P(1) statement is returned so downstream encoders always
    receive input.
    """
    if isinstance(code, str):
        code = segment(code, language)
    snippet, stmt_ids = extractor_input(code, vocab, model.config)
    probs = model.statement_probs(stmt_ids, train=False).data
    indices = [i for i in range(len(snippet.statements)) if probs[i, 1] > probs[i, 0]]
    if not indices:
        indices = [int(np.argmax(probs[:, 1]))]
    return [snippet.statements[i] for i in indices], indices
