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

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import numcore as nc
from .config import RunConfig
from .corpus import Batch, RawPair, Vocabulary, build_vocabulary
from .errors import EmptyCorpus, EmptyInput, NonFiniteLoss, ShapeError
from .oracle import label_statements
from .segmenter import PreparedPair, SegmentedSnippet, segment_pairs

log = logging.getLogger(__name__)

PROB_CLAMP = 1e-7
# Tokens of one statement that either model reads; the rest are dropped.
MAX_STATEMENT_TOKENS = 30


class ExtractorModel(nc.Model):
    """Token LSTM -> statement vectors -> context LSTM -> softmax head."""

    KIND = "extractor"
    # The config fields a checkpoint needs to rebuild this model.
    HYPERPARAMETERS = (
        "embed_dim",
        "hidden_dim",
        "dropout",
        "max_statements",
    )

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

    def encode_batch(
        self, snippets: Sequence[Sequence[np.ndarray]], rng: Optional[np.random.Generator] = None
    ) -> tuple[nc.Tensor, Batch]:
        """Contextualized statement embeddings of several snippets at once.

        All statements run through the token LSTM as one padded batch, then
        each snippet's statement vectors through the context LSTM as a
        (B, S_max) batch. Returns the (B * S_max, H) rows, snippet-major and
        padded per snippet, with the statement batch whose ``lengths`` are
        the statement counts. With a dropout ``rng``, the token embeddings
        and then the statement vectors each take one mask.
        """
        tokens = Batch.pad([ids for stmt_ids in snippets for ids in stmt_ids])
        offsets = np.cumsum([0] + [len(stmt_ids) for stmt_ids in snippets])
        # Each snippet's rows of the token batch; padding points at row 0.
        stmts = Batch.pad([np.arange(a, b) for a, b in zip(offsets[:-1], offsets[1:])])
        emb = self.drop(nc.embedding_lookup(self.embedding, tokens.indices), rng)
        vecs, _ = nc.lstm_over(emb, self.tok_wx, self.tok_wh, self.tok_b, lengths=tokens.lengths)
        mat = self.drop(nc.embedding_lookup(vecs, stmts.indices), rng)
        ctx, _ = nc.lstm_over(
            mat, self.ctx_wx, self.ctx_wh, self.ctx_b, lengths=stmts.lengths, collect=True
        )
        return nc.reshape(ctx, (-1, self.config.hidden_dim)), stmts

    def classify_statements(self, embeddings: nc.Tensor) -> nc.Tensor:
        """Per-statement probability pairs; each row sums to 1."""
        if embeddings.shape[-1] != self.config.hidden_dim:
            raise ShapeError(
                f"embedding width {embeddings.shape[-1]} != hidden {self.config.hidden_dim}"
            )
        logits = nc.add(nc.matmul(embeddings, self.cls_w), self.cls_b)
        return nc.softmax(logits)


def extractor_loss(probs: nc.Tensor, gold: np.ndarray, weights: np.ndarray) -> nc.Tensor:
    """Binary cross entropy of P(label=1) against 0/1 gold labels, summed
    with one weight per statement. Probabilities are clamped to
    [1e-7, 1 - 1e-7] so a fully wrong statement costs about 16.1 rather than
    infinity.
    """
    gold = np.asarray(gold, dtype=np.float64).reshape(-1, 1)
    if probs.data.ndim != 2 or probs.shape[1] != 2 or probs.shape[0] != gold.shape[0]:
        raise ShapeError(f"probs {probs.shape} vs gold {gold.shape}")
    p1 = nc.clip(nc.slice_axis(probs, 1, 2), PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = nc.mul(nc.log(p1), gold)
    neg = nc.mul(nc.log(nc.sub(1.0, p1)), 1.0 - gold)
    terms = nc.add(pos, neg)
    return nc.mul(nc.sum_all(nc.mul(terms, weights.reshape(-1, 1))), -1.0)


def extractor_batch_loss(
    model: ExtractorModel,
    samples: Sequence[ExtractorSample],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nc.Tensor:
    """Batch loss: per-snippet mean cross entropy, then mean over the batch."""
    if not samples:
        raise EmptyInput("extractor_batch_loss needs at least one sample")
    emb, stmts = model.encode_batch([s.stmt_ids for s in samples], rng if train else None)
    gold = Batch.pad([s.labels for s in samples]).indices.reshape(-1)
    return extractor_loss(model.classify_statements(emb), gold, stmts.mean_weights())


@dataclass
class ExtractorSample:
    pair_id: int
    stmt_ids: list[np.ndarray]
    labels: np.ndarray


def truncate_snippet(snippet: SegmentedSnippet, max_statements: int) -> SegmentedSnippet:
    if len(snippet.statements) <= max_statements:
        return snippet
    log.warning(
        "snippet truncated from %d to %d statements", len(snippet.statements), max_statements
    )
    return dataclasses.replace(snippet, statements=snippet.statements[:max_statements])


def extractor_input(
    snippet: SegmentedSnippet, vocab: Vocabulary, config: RunConfig
) -> tuple[SegmentedSnippet, list[np.ndarray]]:
    """The truncated snippet and its per-statement token ids, for training and inference."""
    snippet = truncate_snippet(snippet, config.max_statements)
    return snippet, [
        vocab.encode(st.tokens[:MAX_STATEMENT_TOKENS]) for st in snippet.statements
    ]


def build_extractor_dataset(
    prepared: Iterable[PreparedPair], vocab: Vocabulary, config: RunConfig
) -> list[ExtractorSample]:
    samples = []
    for pair, snippet, comment in prepared:
        snippet, stmt_ids = extractor_input(snippet, vocab, config)
        labeled = label_statements(snippet, comment)
        samples.append(
            ExtractorSample(
                pair_id=pair.id,
                stmt_ids=stmt_ids,
                labels=np.array(labeled.labels, dtype=np.int64),
            )
        )
    return samples


def split_validation(samples: list, val_fraction: float) -> tuple[list, list]:
    """Hold out the last ``val_fraction`` of the samples; with none held out,
    validation runs on the training set itself (the desk-scale default)."""
    n_val = int(len(samples) * val_fraction)
    if not n_val:
        return samples, samples
    return samples[: len(samples) - n_val], samples[len(samples) - n_val :]


def dataset_loss(
    model, batch_loss: Callable[..., nc.Tensor], samples: Sequence, batch_size: int
) -> float:
    """Mean per-sample loss with dropout off, in batches of ``batch_size``."""
    total = 0.0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        total += batch_loss(model, chunk).item() * len(chunk)
    return total / len(samples)


def _check_finite(loss: float, where: str) -> None:
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"{where}: loss is {loss}; lower lr or check the data")


@dataclass
class TrainResult:
    """What :func:`fit`, and so both trainers, return."""

    model: nc.Model
    vocab: Vocabulary
    train_loss: list[float]  # one per epoch, dropout off
    val_loss: list[float]
    best_epoch: int  # -1 when no epoch ran
    pairs: int  # samples trained and validated on


def fit(
    model_class: type[nc.Model],
    vocab: Vocabulary,
    batch_loss: Callable[..., nc.Tensor],
    samples: Sequence,
    config: RunConfig,
) -> TrainResult:
    """The one training run of both models: a new ``model_class`` trained
    by minibatch AdamW on ``samples``, restoring the best-validation weights.

    Raises :class:`EmptyCorpus` when there are no samples, then holds out a
    validation set with :func:`split_validation`. ``batch_loss(model,
    samples, train=..., rng=...)`` is the mean loss of a minibatch. Stream 0
    of ``rng_streams(config.seed)`` initialises the model, and shuffling and
    dropout draw from streams 1 and 2. Each epoch's losses are logged and
    returned. A non-finite loss raises :class:`NonFiniteLoss`.
    """
    if not samples:
        raise EmptyCorpus("no usable pairs to train on")
    init_rng, shuffle_rng, drop_rng = nc.rng_streams(config.seed)
    model = model_class(len(vocab), config, init_rng)
    train_set, val_set = split_validation(samples, config.val_fraction)
    params = model.parameters()
    opt = nc.AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    result = TrainResult(model, vocab, [], [], best_epoch=-1, pairs=len(samples))
    best_val = float("inf")
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
            train_loss = dataset_loss(model, batch_loss, train_set, config.batch_size)
            val_loss = (
                train_loss
                if val_set is train_set
                else dataset_loss(model, batch_loss, val_set, config.batch_size)
            )
            _check_finite(train_loss, f"epoch {epoch}, training set")
            _check_finite(val_loss, f"epoch {epoch}, validation set")
            log.info("epoch %d: train loss %.6f, val loss %.6f", epoch, train_loss, val_loss)
            result.train_loss.append(train_loss)
            result.val_loss.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                result.best_epoch = epoch
                best_state = [p.data.copy() for p in params]
    for p, data in zip(params, best_state):
        p.data = data
    return result


def label_accuracy(model: ExtractorModel, samples: Sequence[ExtractorSample]) -> float:
    """Fraction of statements whose argmax label matches the oracle label."""
    hit = 0
    total = 0
    for s in samples:
        probs = model.classify_statements(model.encode_batch([s.stmt_ids])[0]).data
        pred = (probs[:, 1] > probs[:, 0]).astype(np.int64)
        hit += int((pred == s.labels).sum())
        total += len(s.labels)
    return hit / max(total, 1)


def train_extractor(corpus: Sequence[RawPair], config: RunConfig) -> TrainResult:
    """Oracle labeling + minibatch AdamW on the pairs of ``config.language``;
    returns the best-validation model. The vocabulary covers the code and
    comment tokens of the pairs :func:`segment_pairs` keeps."""
    prepared = list(segment_pairs(corpus, config.language))
    vocab = build_vocabulary(
        (tokens for _, snippet, comment in prepared for tokens in (snippet.full_tokens, comment)),
        min_freq=config.min_freq,
        max_size=config.vocab_size,
    )
    samples = build_extractor_dataset(prepared, vocab, config)
    return fit(ExtractorModel, vocab, extractor_batch_loss, samples, config)


def predict_important(
    snippet: SegmentedSnippet, model: ExtractorModel, vocab: Vocabulary
) -> tuple[list[int], np.ndarray]:
    """Indices of the statements of a segmented snippet predicted important,
    in source order, and those statements' token ids as the model read them,
    concatenated in the same order.

    A tie at exactly P=0.5 resolves to label 0; when nothing is labeled 1 the
    single highest-P(1) statement is chosen so downstream encoders always
    receive input.
    """
    snippet, stmt_ids = extractor_input(snippet, vocab, model.config)
    probs = model.classify_statements(model.encode_batch([stmt_ids])[0]).data
    indices = [i for i in range(len(snippet.statements)) if probs[i, 1] > probs[i, 0]]
    if not indices:
        indices = [int(np.argmax(probs[:, 1]))]
    return indices, np.concatenate([stmt_ids[i] for i in indices])
