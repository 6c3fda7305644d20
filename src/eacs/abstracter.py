"""Abstractive model: dual encoders, concatenation fusion, LSTM decoder.

The important statements (from the frozen, well-trained extractor) and the
whole snippet are encoded separately into fixed vectors, concatenated in a
configurable order, and the fused vector drives the decoder twice: projected
once into the initial hidden state and once into a per-step input alongside
the previous token's embedding. Training is teacher-forced negative
log-likelihood. Generation is one beam search whose steps run all live
hypotheses through the decoder as one batch; greedy decoding is width 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numcore as nc
from .config import RunConfig
from .corpus import BOS, EOS, Batch, RawPair, Vocabulary
from .errors import EmptyInput, ShapeError, UsageError, VocabMismatch
from .extractor import ExtractorModel, TrainResult, fit, predict_important
from .segmenter import PreparedPair, SegmentedSnippet, segment, segment_pairs

log = logging.getLogger(__name__)

LOGPROB_CLAMP = 1e-9
# The widest beam search. Each step ranks up to width x vocabulary candidates.
# At desk width (vocabulary 143) a width-256 summary takes about 0.3 s from a
# model that emits <eos> early, and about 3.4 s at max_len 30 from a decoder
# that never emits it, almost all of it in the candidate loop and sort.
MAX_BEAM_WIDTH = 256


# The shared run configuration under the abstracter's name, which
# perfbench/workloads.py imports to build its published-width model.
AbstracterConfig = RunConfig


class AbstracterModel(nc.Model):
    KIND = "abstracter"
    # The config fields a checkpoint needs to rebuild this model, besides fusion.
    HYPERPARAMETERS = (
        "embed_dim",
        "hidden_dim",
        "dropout",
        "max_code_tokens",
        "max_comment_tokens",
    )

    @staticmethod
    def shapes(vocab_size: int, config: RunConfig) -> dict[str, tuple[int, ...]]:
        """Parameter shapes in declaration order; both encoders and the
        decoder read the one embedding table."""
        e, h = config.embed_dim, config.hidden_dim
        return {
            "embedding": (vocab_size, e),
            "ex_wx": (e, 4 * h),
            "ex_wh": (h, 4 * h),
            "ex_b": (4 * h,),
            "ab_wx": (e, 4 * h),
            "ab_wh": (h, 4 * h),
            "ab_b": (4 * h,),
            "ctx_w": (2 * h, h),
            "ctx_b": (h,),
            "step_w": (2 * h, h),
            "step_b": (h,),
            "dec_wx": (e + h, 4 * h),
            "dec_wh": (h, 4 * h),
            "dec_b": (4 * h,),
            "out_w": (h, vocab_size),
            "out_b": (vocab_size,),
        }

    def encode(
        self, which: str, batch: Batch, rng: Optional[np.random.Generator] = None
    ) -> nc.Tensor:
        """(B, H) final states of the "ex" or "ab" encoder over a padded batch,
        its embeddings dropped out with ``rng`` when given."""
        emb = self.drop(nc.embedding_lookup(self.embedding, batch.indices), rng)
        wx, wh, b = (getattr(self, f"{which}_{name}") for name in ("wx", "wh", "b"))
        return nc.lstm_over(emb, wx, wh, b, lengths=batch.lengths)[0]

    def encode_extractive(self, ids: np.ndarray) -> nc.Tensor:
        """Fixed vector for the concatenated important-statement tokens."""
        if len(ids) == 0:
            raise EmptyInput("no important-statement tokens to encode")
        return self.encode("ex", Batch.pad([ids]))

    def encode_abstractive(self, ids: np.ndarray) -> nc.Tensor:
        """Fixed vector for the whole snippet's token stream."""
        if len(ids) == 0:
            raise EmptyInput("no snippet tokens to encode")
        return self.encode("ab", Batch.pad([ids]))

    def init_decoder(self, e_fu: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor, nc.Tensor]:
        """Initial (h, c) plus the per-step fused-context input."""
        h0 = nc.tanh(nc.add(nc.matmul(e_fu, self.ctx_w), self.ctx_b))
        c0 = nc.Tensor(np.zeros_like(h0.data))
        u = nc.add(nc.matmul(e_fu, self.step_w), self.step_b)
        return h0, c0, u

    def decode_teacher_forced(
        self, inputs: Batch, e_fu: nc.Tensor, rng: Optional[np.random.Generator]
    ) -> nc.Tensor:
        """(B, T, H) decoder states over padded previous-token ids, as one node;
        the embeddings are dropped out with ``rng`` when given."""
        h0, c0, u = self.init_decoder(e_fu)
        emb = self.drop(nc.embedding_lookup(self.embedding, inputs.indices), rng)
        # Each sequence's u, repeated over its steps.
        rows = np.broadcast_to(np.arange(len(inputs.lengths))[:, None], inputs.indices.shape)
        x = nc.concat([emb, nc.embedding_lookup(u, rows)])
        return nc.lstm_over(
            x, self.dec_wx, self.dec_wh, self.dec_b,
            lengths=inputs.lengths, h0=h0, c0=c0, collect=True,
        )[0]

    def decoder_input(self, u: nc.Tensor, rows: int) -> np.ndarray:
        """A (rows, E+H) input buffer for :meth:`decode_step`: its last H
        columns hold the fused context u (1, H) in every row."""
        e = self.embedding.shape[1]
        inp = np.empty((rows, e + u.shape[1]), dtype=self.embedding.dtype)
        inp[:, e:] = u.data
        return inp

    def decode_step(
        self, y_prev: np.ndarray, h_prev: nc.Tensor, c_prev: nc.Tensor, inp: np.ndarray
    ) -> tuple[nc.Tensor, nc.Tensor, nc.Tensor]:
        """One decoder step over k hypotheses: previous ids (k,), h and c (k, H)
        and a :meth:`decoder_input` buffer of at least k rows.

        The ids' embeddings are gathered into the first E columns of the
        buffer's first k rows, beside the fused context written once per
        decode, so a step makes no lookup or concat. Its input is therefore
        a constant, overwritten by the next step: no gradient reaches the
        embedding or u, and training runs :meth:`decode_teacher_forced`.
        Returns (h, c, distributions over the vocabulary), each with k rows.
        """
        table = self.embedding.data
        if y_prev.min() < 0:  # np.take wraps negative ids; it raises past the table
            raise IndexError("embedding id out of range")
        x = inp[: len(y_prev)]
        np.take(table, y_prev, axis=0, out=x[:, : table.shape[1]])
        h, c = nc.lstm_cell(nc.Tensor(x), h_prev, c_prev, self.dec_wx, self.dec_wh, self.dec_b)
        logits = nc.add(nc.matmul(h, self.out_w), self.out_b)
        return h, c, nc.softmax(logits)


def fuse(e_ex: nc.Tensor, e_ab: nc.Tensor, order: str) -> nc.Tensor:
    """Concatenate the two encodings; "abex" puts the whole-snippet vector first."""
    if e_ex.shape != e_ab.shape:
        raise ShapeError(f"fuse: {e_ex.shape} vs {e_ab.shape}")
    if order == "exab":
        return nc.concat([e_ex, e_ab])
    if order == "abex":
        return nc.concat([e_ab, e_ex])
    raise ValueError(f"unknown fusion order {order!r}")


@dataclass
class AbstracterSample:
    pair_id: int
    code_ids: np.ndarray
    important_ids: np.ndarray
    comment_ids: np.ndarray  # BOS ... EOS
    comment_tokens: list[str]


def abstracter_loss(
    model: AbstracterModel,
    samples: Sequence[AbstracterSample],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nc.Tensor:
    """Batch loss: per-sequence token mean, then mean over the batch.

    Both encoders, the decoder and the output projection each run once over
    the padded batch. Every gold probability is clamped to [1e-9, 1] before
    the log, and the tokens are weighed by :meth:`Batch.mean_weights`.
    """
    if not samples:
        raise EmptyInput("abstracter_loss needs at least one sample")
    for s in samples:
        if len(s.important_ids) == 0 or len(s.code_ids) == 0:
            raise EmptyInput(f"sample {s.pair_id}: nothing to encode")
        if len(s.comment_ids) < 2:
            raise EmptyInput(f"sample {s.pair_id}: comment has no token to predict")
    important = Batch.pad([s.important_ids for s in samples])
    code = Batch.pad([s.code_ids for s in samples])
    previous = Batch.pad([s.comment_ids[:-1] for s in samples])
    gold = Batch.pad([s.comment_ids[1:] for s in samples])
    rng = rng if train else None
    e_fu = fuse(
        model.encode("ex", important, rng), model.encode("ab", code, rng), model.config.fusion
    )
    states = model.decode_teacher_forced(previous, e_fu, rng)
    flat = nc.reshape(states, (-1, model.config.hidden_dim))
    probs = nc.softmax(nc.add(nc.matmul(flat, model.out_w), model.out_b))
    p_gold = nc.gather_rows(probs, gold.indices.reshape(-1))
    log_p = nc.log(nc.clip(p_gold, LOGPROB_CLAMP, 1.0))
    return nc.mul(nc.sum_all(nc.mul(log_p, gold.mean_weights())), -1.0)


def abstracter_input(
    snippet: SegmentedSnippet, extractor: ExtractorModel, vocab: Vocabulary, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(important_ids, code_ids), the two encoders' inputs, for training and inference."""
    _, important_ids = predict_important(snippet, extractor, vocab)
    return important_ids, vocab.encode(snippet.full_tokens[: config.max_code_tokens])


def build_abstracter_dataset(
    prepared: Iterable[PreparedPair],
    vocab: Vocabulary,
    extractor: ExtractorModel,
    config: RunConfig,
) -> list[AbstracterSample]:
    """Encode pairs; important statements come from the frozen extractor."""
    samples = []
    for pair, snippet, comment in prepared:
        important_ids, code_ids = abstracter_input(snippet, extractor, vocab, config)
        comment_core = list(vocab.encode(comment[: config.max_comment_tokens - 2]))
        samples.append(
            AbstracterSample(
                pair_id=pair.id,
                code_ids=code_ids,
                important_ids=important_ids,
                comment_ids=np.array([BOS] + comment_core + [EOS], dtype=np.int64),
                comment_tokens=comment,
            )
        )
    return samples


def train_abstracter(
    corpus: Sequence[RawPair], extractor: ExtractorModel, vocab: Vocabulary, config: RunConfig
) -> TrainResult:
    """Jointly train both encoders, projections, and the decoder with AdamW on
    the pairs of ``config.language``.

    The extractor stays frozen: its selections are computed once up front and
    its parameters are never handed to the optimizer.
    """
    prepared = list(segment_pairs(corpus, config.language))
    samples = build_abstracter_dataset(prepared, vocab, extractor, config)
    return fit(AbstracterModel, vocab, abstracter_loss, samples, config)


@dataclass
class DecodeResult:
    tokens: list[str]
    step_log_probs: list[float] = field(default_factory=list)


def beam_decode(
    model: AbstracterModel, e_fu: nc.Tensor, vocab: Vocabulary, max_len: int, width: int
) -> DecodeResult:
    """Beam search from one fused vector; width 1 is greedy decoding.

    Each step runs the k live hypotheses through one batched decode_step.
    Every live row proposes its ``width`` most likely next tokens, finished
    hypotheses carry over unchanged, and the ``width`` candidates with the
    highest total log-prob survive, ties going to the lower token ids.
    Probabilities are clamped at 1e-9 before the log. A width outside
    [1, MAX_BEAM_WIDTH] or a ``max_len`` below 1 is a :class:`UsageError`.
    """
    if not 1 <= width <= MAX_BEAM_WIDTH:
        raise UsageError(f"beam width must be in [1, {MAX_BEAM_WIDTH}], got {width}")
    if max_len < 1:
        raise UsageError(f"max_len must be >= 1, got {max_len}")
    h, c, u = model.init_decoder(e_fu)
    inp = model.decoder_input(u, width)
    # hypothesis: (ids, step log-probs, total, finished, row of h and c)
    beams = [((), (), 0.0, False, 0)]
    for _ in range(max_len):
        live = [b for b in beams if not b[3]]
        if not live:
            break
        rows = [b[4] for b in live]
        y_prev = np.array([b[0][-1] if b[0] else BOS for b in live], dtype=np.int64)
        h, c, probs = model.decode_step(
            y_prev, nc.Tensor(h.data[rows]), nc.Tensor(c.data[rows]), inp
        )
        dist = np.log(np.maximum(probs.data, LOGPROB_CLAMP))
        top = np.argsort(-dist, axis=-1, kind="stable")[:, :width]
        candidates = [b for b in beams if b[3]]
        for row, (ids, lps, total, _, _) in enumerate(live):
            for tok in top[row].tolist():
                lp = float(dist[row, tok])
                candidates.append((ids + (tok,), lps + (lp,), total + lp, tok == EOS, row))
        # Highest total log-prob first; ties prefer the lower token indices.
        candidates.sort(key=lambda b: (-b[2], b[0]))
        beams = candidates[:width]
    ids, lps = beams[0][:2]
    return DecodeResult(tokens=vocab.decode(ids), step_log_probs=list(lps))


def generate_summary(
    code: str,
    extractor: ExtractorModel,
    ex_vocab: Vocabulary,
    abstracter: AbstracterModel,
    ab_vocab: Vocabulary,
    language: str,
    max_len: int,
    beam_width: int,
) -> DecodeResult:
    """Deployment path: extract important statements, then decode a summary."""
    if ex_vocab != ab_vocab:
        raise VocabMismatch("extractor and abstracter checkpoints disagree on vocabulary")
    cfg = abstracter.config
    important_ids, code_ids = abstracter_input(segment(code, language), extractor, ab_vocab, cfg)
    e_ex = abstracter.encode_extractive(important_ids)
    e_ab = abstracter.encode_abstractive(code_ids)
    e_fu = fuse(e_ex, e_ab, cfg.fusion)
    return beam_decode(abstracter, e_fu, ab_vocab, max_len, beam_width)
