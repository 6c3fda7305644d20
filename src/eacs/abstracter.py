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

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numcore as nc
from .config import RunConfig
from .corpus import BOS, EOS, Batch, RawPair, Vocabulary
from .errors import EmptyInput, ShapeError, UsageError, VocabMismatch
from .extractor import ExtractorModel, TrainResult, fit, predict_important
from .segmenter import PreparedPair, SegmentedSnippet, segment, segment_pairs

LOGPROB_CLAMP = 1e-9
# The widest beam search. Each step ranks up to width x vocabulary candidates.
# At desk width (vocabulary 143; a 2-core shared x86-64 VM, one OpenBLAS
# thread) a width-256 summary takes 0.07-0.16 s from a model that emits <eos>
# early, and 1.7-2.8 s at max_len 30 from a decoder that never emits it,
# almost all of it in the candidate loop and sort.
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

    def init_decoder(self, e_fu: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor]:
        """The initial hidden state h0 and the per-step fused-context input u;
        the cell state starts at zeros."""
        h0 = nc.tanh(nc.add(nc.matmul(e_fu, self.ctx_w), self.ctx_b))
        u = nc.add(nc.matmul(e_fu, self.step_w), self.step_b)
        return h0, u

    def decode_teacher_forced(
        self, inputs: Batch, e_fu: nc.Tensor, rng: Optional[np.random.Generator]
    ) -> nc.Tensor:
        """(B, T, H) decoder states over padded previous-token ids, as one node;
        the embeddings are dropped out with ``rng`` when given."""
        h0, u = self.init_decoder(e_fu)
        emb = self.drop(nc.embedding_lookup(self.embedding, inputs.indices), rng)
        # Each sequence's u, repeated over its steps.
        rows = np.broadcast_to(np.arange(len(inputs.lengths))[:, None], inputs.indices.shape)
        x = nc.concat([emb, nc.embedding_lookup(u, rows)])
        return nc.lstm_over(
            x, self.dec_wx, self.dec_wh, self.dec_b,
            lengths=inputs.lengths, h0=h0, collect=True,
        )[0]

    def decode_step(
        self, y_prev: np.ndarray, parents: list[int], state: DecoderState
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One decoder step over k hypotheses: their previous ids (k,) and the
        rows of their parents' states among the last step's rows in ``state``.

        The ids' embeddings are gathered into the first E columns of the
        state's first k input rows, beside the fused context written once
        per decode, so a step makes no lookup or concat. It runs on arrays,
        records nothing and is for inference only: training runs
        :meth:`decode_teacher_forced`. Returns (h, c, distributions over the
        vocabulary), each k rows of the state's buffers, which the next step
        overwrites.
        """
        if y_prev.min() < 0:  # np.take wraps negative ids; it raises past the table
            raise IndexError("embedding id out of range")
        k = len(y_prev)
        x, emb, xw, tc, probs, views = state.rows(k)
        np.take(state.table, y_prev, axis=0, out=emb)
        h, c = state.select(parents)
        np.matmul(x, state.wx, xw)
        xw += state.b
        nc.lstm_run(((xw, tc, h, c),), h, c, views)
        np.matmul(h, state.out_w, probs)
        probs += state.out_b
        nc.softmax_into(probs, probs)
        return h, c, probs


class DecoderState:
    """One decode of up to ``width`` hypotheses: its buffers, the decoder's
    weights and its views, set up once, so that each
    :meth:`AbstracterModel.decode_step` only computes.

    It holds the (width, E+H) input rows with the fused context u written
    into their last H columns once, the (width, 4H) x Wx + b rows, the
    (width, 4H) gate scratch and gate constants of a
    :class:`numcore.LSTMScratch`, the (width, H) tanh(c) rows, the (width, V)
    rows that hold the logits and then the probabilities, and two (width, H)
    buffers each for h and c, the cell state starting at zeros.
    A step whose parents are rows 0..k-1 steps them in place; any other step
    first gathers its parents into the other buffer, so the gather never
    reads a row it has written. Every product runs over the step's k rows
    only.
    """

    def __init__(self, model: AbstracterModel, e_fu: nc.Tensor, width: int):
        h0, u = model.init_decoder(e_fu)
        self.table = model.embedding.data
        self.wx, self.b = model.dec_wx.data, model.dec_b.data
        self.out_w, self.out_b = model.out_w.data, model.out_b.data
        vocab, e = self.table.shape
        hidden, dtype = model.dec_wh.shape[0], self.table.dtype
        self.x = np.empty((width, e + hidden), dtype=dtype)
        self.x[:, e:] = u.data
        self.xw = np.empty((width, 4 * hidden), dtype=dtype)
        self.tc = np.empty((width, hidden), dtype=dtype)
        self.probs = np.empty((width, vocab), dtype=dtype)
        self.h = np.empty((2, width, hidden), dtype=dtype)
        self.c = np.empty_like(self.h)
        self._scratch = nc.LSTMScratch(model.dec_wh.data, dtype, width)
        self._rows: dict[int, tuple] = {}
        self.start(h0.data, 0.0)

    def start(self, h: np.ndarray, c) -> None:
        """Make the k rows of ``h`` (k, H) and ``c``, (k, H) or a scalar,
        the state of hypotheses 0..k-1."""
        self.cur = 0
        self.h[0, : len(h)] = h
        self.c[0, : len(h)] = c

    def rows(self, k: int) -> tuple:
        """The first k rows of the input, its embedding columns, the x Wx + b,
        tanh(c) and probability buffers, and the scratch views of
        :func:`numcore.lstm_run`, sliced once per k."""
        views = self._rows.get(k)
        if views is None:
            e = self.table.shape[1]
            views = self._rows[k] = (
                self.x[:k], self.x[:k, :e], self.xw[:k], self.tc[:k],
                self.probs[:k], self._scratch.views(k),
            )
        return views

    def select(self, parents: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The (h, c) rows of the k hypotheses whose parents sit at rows
        ``parents`` of the last step's state, which the next step overwrites."""
        k = len(parents)
        if parents != list(range(k)):
            # mode="clip" writes straight into the buffer; "raise" would buffer.
            np.take(self.h[self.cur], parents, axis=0, out=self.h[1 - self.cur, :k], mode="clip")
            np.take(self.c[self.cur], parents, axis=0, out=self.c[1 - self.cur, :k], mode="clip")
            self.cur = 1 - self.cur
        return self.h[self.cur, :k], self.c[self.cur, :k]


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

    A :class:`DecoderState` is set up once, and each step runs the k live
    hypotheses through one batched decode_step. Every live row proposes its
    ``width`` most likely next tokens, finished hypotheses carry over
    unchanged, and the ``width`` candidates with the highest total log-prob
    survive, ties going to the lower token ids.
    Probabilities are clamped at 1e-9 before the log. A width outside
    [1, MAX_BEAM_WIDTH] or a ``max_len`` below 1 is a :class:`UsageError`.
    """
    if not 1 <= width <= MAX_BEAM_WIDTH:
        raise UsageError(f"beam width must be in [1, {MAX_BEAM_WIDTH}], got {width}")
    if max_len < 1:
        raise UsageError(f"max_len must be >= 1, got {max_len}")
    state = DecoderState(model, e_fu, width)
    # hypothesis: (ids, step log-probs, total, finished, row of h and c)
    beams = [((), (), 0.0, False, 0)]
    for _ in range(max_len):
        live = [b for b in beams if not b[3]]
        if not live:
            break
        parents = [b[4] for b in live]
        y_prev = np.array([b[0][-1] if b[0] else BOS for b in live], dtype=np.int64)
        probs = model.decode_step(y_prev, parents, state)[2]
        # The log-probs overwrite the state's probabilities, which nothing else reads.
        dist = np.log(np.maximum(probs, LOGPROB_CLAMP, out=probs), out=probs)
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
