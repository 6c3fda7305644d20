"""Abstractive model: dual encoders, concatenation fusion, LSTM decoder.

The important statements (from the frozen, well-trained extractor) and the
whole snippet are encoded separately into fixed vectors, concatenated in a
configurable order, and the fused vector drives the decoder twice: projected
once into the initial hidden state and once into a per-step input alongside
the previous token's embedding. Training is teacher-forced negative
log-likelihood; generation is greedy by default with optional beam search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import numcore as nc
from .config import RunConfig
from .corpus import BOS, EOS, Corpus, RawPair, Vocabulary, tokenize_comment
from .errors import EmptyCorpus, EmptyInput, EmptySnippet, ShapeError, VocabMismatch
from .extractor import ExtractorModel, TrainHistory, fit, predict_important, split_validation
from .segmenter import SegmentedSnippet, segment

log = logging.getLogger(__name__)

FUSION_ORDERS = ("abex", "exab")
LOGPROB_CLAMP = 1e-9


# The shared run configuration under the abstracter's name, which
# perfbench/workloads.py imports to build its published-width model.
AbstracterConfig = RunConfig


class AbstracterModel:
    KIND = "abstracter"
    # The config fields a checkpoint needs to rebuild this model, besides fusion.
    HYPERPARAMETERS = (
        "embed_dim",
        "hidden_dim",
        "dropout",
        "max_statement_tokens",
        "max_code_tokens",
        "max_comment_tokens",
        "share_embeddings",
    )

    def __init__(
        self, vocab_size: int, config: RunConfig, rng: np.random.Generator, dtype=np.float32
    ):
        if config.fusion not in FUSION_ORDERS:
            raise ValueError(f"fusion must be one of {FUSION_ORDERS}, got {config.fusion!r}")
        self.config = config
        self.vocab_size = vocab_size
        self._params = nc.init_parameters(self.shapes(vocab_size, config), rng, dtype)
        for p in self._params:
            setattr(self, p.name, p)
        if config.share_embeddings:
            self.embedding_ex = self.embedding_ab = self.embedding_dec = self.embedding

    @staticmethod
    def shapes(vocab_size: int, config: RunConfig) -> dict[str, tuple[int, ...]]:
        """Parameter shapes in declaration order."""
        e, h = config.embed_dim, config.hidden_dim
        if config.share_embeddings:
            names = ("embedding",)
        else:
            names = ("embedding_ex", "embedding_ab", "embedding_dec")
        return {name: (vocab_size, e) for name in names} | {
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

    def parameters(self) -> list[nc.Parameter]:
        return list(self._params)

    def encode_extractive(
        self,
        ids: np.ndarray,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> nc.Tensor:
        """Fixed vector for the concatenated important-statement tokens."""
        if len(ids) == 0:
            raise EmptyInput("no important-statement tokens to encode")
        emb = nc.embedding_lookup(self.embedding_ex, ids)
        emb = nc.dropout(emb, self.config.dropout, rng, train=train)
        return nc.lstm_over(emb, self.ex_wx, self.ex_wh, self.ex_b)

    def encode_abstractive(
        self,
        ids: np.ndarray,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> nc.Tensor:
        """Fixed vector for the whole snippet's token stream."""
        if len(ids) == 0:
            raise EmptyInput("no snippet tokens to encode")
        emb = nc.embedding_lookup(self.embedding_ab, ids)
        emb = nc.dropout(emb, self.config.dropout, rng, train=train)
        return nc.lstm_over(emb, self.ab_wx, self.ab_wh, self.ab_b)

    def init_decoder(self, e_fu: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor, nc.Tensor]:
        """Initial (h, c) plus the per-step fused-context input."""
        h0 = nc.tanh(nc.add(nc.matmul(e_fu, self.ctx_w), self.ctx_b))
        c0 = nc.Tensor(np.zeros_like(h0.data))
        u = nc.add(nc.matmul(e_fu, self.step_w), self.step_b)
        return h0, c0, u

    def decode_step(
        self,
        y_prev: int,
        h_prev: nc.Tensor,
        c_prev: nc.Tensor,
        u: nc.Tensor,
        train: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[nc.Tensor, nc.Tensor, nc.Tensor]:
        """One decoder step; returns (h, c, distribution over the vocabulary)."""
        emb = nc.embedding_lookup(self.embedding_dec, np.array([y_prev], dtype=np.int64))
        emb = nc.dropout(emb, self.config.dropout, rng, train=train)
        inp = nc.concat([emb, u], axis=-1)
        h, c = nc.lstm_cell(inp, h_prev, c_prev, self.dec_wx, self.dec_wh, self.dec_b)
        logits = nc.add(nc.matmul(h, self.out_w), self.out_b)
        return h, c, nc.softmax(logits, axis=-1)


def fuse(e_ex: nc.Tensor, e_ab: nc.Tensor, order: str = "abex") -> nc.Tensor:
    """Concatenate the two encodings; "abex" puts the whole-snippet vector first."""
    if e_ex.shape != e_ab.shape:
        raise ShapeError(f"fuse: {e_ex.shape} vs {e_ab.shape}")
    if order == "exab":
        return nc.concat([e_ex, e_ab], axis=-1)
    if order == "abex":
        return nc.concat([e_ab, e_ex], axis=-1)
    raise ValueError(f"unknown fusion order {order!r}")


@dataclass
class AbstracterSample:
    pair_id: int
    code_ids: np.ndarray
    important_ids: np.ndarray
    comment_ids: np.ndarray  # BOS ... EOS
    comment_tokens: list[str]


def _sequence_nll(
    model: AbstracterModel,
    sample: AbstracterSample,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nc.Tensor:
    """Teacher-forced mean negative log-likelihood of one gold comment."""
    e_ex = model.encode_extractive(sample.important_ids, train=train, rng=rng)
    e_ab = model.encode_abstractive(sample.code_ids, train=train, rng=rng)
    h, c, u = model.init_decoder(fuse(e_ex, e_ab, model.config.fusion))
    terms = []
    for y_prev, y_t in zip(sample.comment_ids[:-1], sample.comment_ids[1:]):
        h, c, probs = model.decode_step(int(y_prev), h, c, u, train=train, rng=rng)
        p_gold = nc.gather_rows(probs, np.array([y_t], dtype=np.int64))
        terms.append(nc.log(nc.clip(p_gold, LOGPROB_CLAMP, 1.0)))
    joined = terms[0] if len(terms) == 1 else nc.concat(terms, axis=0)
    return nc.mul(nc.mean_all(joined), -1.0)


def abstracter_loss(
    model: AbstracterModel,
    samples: Sequence[AbstracterSample],
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nc.Tensor:
    """Batch loss: per-sequence token mean, then mean over the batch."""
    if not samples:
        raise EmptyInput("abstracter_loss needs at least one sample")
    total = None
    for s in samples:
        term = _sequence_nll(model, s, train=train, rng=rng)
        total = term if total is None else nc.add(total, term)
    return nc.mul(total, 1.0 / len(samples))


def step_distributions(model: AbstracterModel, sample: AbstracterSample) -> list[np.ndarray]:
    """Inference-mode per-step distributions under teacher forcing.

    Lets tests recompute the loss independently from the distributions.
    """
    e_ex = model.encode_extractive(sample.important_ids)
    e_ab = model.encode_abstractive(sample.code_ids)
    h, c, u = model.init_decoder(fuse(e_ex, e_ab, model.config.fusion))
    out = []
    for y_prev in sample.comment_ids[:-1]:
        h, c, probs = model.decode_step(int(y_prev), h, c, u)
        out.append(probs.data[0].copy())
    return out


def abstracter_input(
    snippet: SegmentedSnippet, extractor: ExtractorModel, vocab: Vocabulary, config: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(important_ids, code_ids), the two encoders' inputs, for training and inference."""
    selected, _ = predict_important(snippet, extractor, vocab)
    important = [tok for st in selected for tok in st.tokens[: config.max_statement_tokens]]
    return vocab.encode(important), vocab.encode(snippet.full_tokens[: config.max_code_tokens])


def build_abstracter_dataset(
    pairs: Sequence[RawPair],
    language: str,
    vocab: Vocabulary,
    extractor: ExtractorModel,
    config: RunConfig,
) -> list[AbstracterSample]:
    """Encode pairs; important statements come from the frozen extractor."""
    samples = []
    for pair in pairs:
        try:
            snippet = segment(pair.code, language)
            comment = tokenize_comment(pair.comment)
        except EmptySnippet:
            continue
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


@dataclass
class AbstracterTrainResult:
    model: AbstracterModel
    vocab: Vocabulary
    history: TrainHistory
    best_epoch: int


def train_abstracter(
    corpus: Corpus | Sequence[RawPair],
    extractor: ExtractorModel,
    vocab: Vocabulary,
    config: RunConfig,
    language: str = "java",
) -> AbstracterTrainResult:
    """Jointly train both encoders, projections, and the decoder with AdamW.

    The extractor stays frozen: its selections are computed once up front and
    its parameters are never handed to the optimizer.
    """
    pairs = list(corpus)
    if not pairs:
        raise EmptyCorpus("no pairs to train on")
    samples = build_abstracter_dataset(pairs, language, vocab, extractor, config)
    if not samples:
        raise EmptyCorpus("no usable samples after segmentation")
    model = AbstracterModel(len(vocab), config, nc.rng_streams(config.seed)[0])
    train_set, val_set = split_validation(samples, config.val_fraction)
    history, best_epoch = fit(model, abstracter_loss, train_set, val_set, config)
    return AbstracterTrainResult(model=model, vocab=vocab, history=history, best_epoch=best_epoch)


@dataclass
class DecodeResult:
    tokens: list[str]
    step_log_probs: list[float] = field(default_factory=list)

    @property
    def total_log_prob(self) -> float:
        return float(sum(self.step_log_probs))


def _greedy_decode(model: AbstracterModel, e_fu: nc.Tensor, vocab: Vocabulary, max_len: int) -> DecodeResult:
    h, c, u = model.init_decoder(e_fu)
    y = BOS
    tokens: list[str] = []
    log_probs: list[float] = []
    for _ in range(max_len):
        h, c, probs = model.decode_step(y, h, c, u)
        dist = probs.data[0]
        y = int(np.argmax(dist))
        log_probs.append(float(np.log(max(dist[y], LOGPROB_CLAMP))))
        if y == EOS:
            break
        tokens.append(vocab.index_to_token[y])
    return DecodeResult(tokens=tokens, step_log_probs=log_probs)


def _beam_decode(
    model: AbstracterModel, e_fu: nc.Tensor, vocab: Vocabulary, max_len: int, width: int
) -> DecodeResult:
    h0, c0, u = model.init_decoder(e_fu)
    # hypothesis: (ids, step log-probs, total, h, c, finished)
    beams = [((), (), 0.0, h0, c0, False)]
    for _ in range(max_len):
        if all(b[5] for b in beams):
            break
        candidates = []
        for ids, lps, total, h, c, finished in beams:
            if finished:
                candidates.append((ids, lps, total, h, c, True))
                continue
            y_prev = ids[-1] if ids else BOS
            h2, c2, probs = model.decode_step(int(y_prev), h, c, u)
            dist = np.log(np.maximum(probs.data[0], LOGPROB_CLAMP))
            top = np.argsort(-dist, kind="stable")[:width]
            for tok in top:
                tok = int(tok)
                candidates.append(
                    (
                        ids + (tok,),
                        lps + (float(dist[tok]),),
                        total + float(dist[tok]),
                        h2,
                        c2,
                        tok == EOS,
                    )
                )
        # Highest total log-prob first; ties prefer the lower token indices.
        candidates.sort(key=lambda b: (-b[2], b[0]))
        beams = candidates[:width]
    best = min(beams, key=lambda b: (-b[2], b[0]))
    ids = [i for i in best[0] if i != EOS]
    return DecodeResult(tokens=vocab.decode(ids), step_log_probs=list(best[1]))


def generate_summary(
    code: str,
    extractor: ExtractorModel,
    ex_vocab: Vocabulary,
    abstracter: AbstracterModel,
    ab_vocab: Vocabulary,
    language: str = "java",
    max_len: int = 30,
    beam_width: int = 1,
) -> DecodeResult:
    """Deployment path: extract important statements, then decode a summary."""
    if ex_vocab != ab_vocab:
        raise VocabMismatch("extractor and abstracter checkpoints disagree on vocabulary")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    cfg = abstracter.config
    important_ids, code_ids = abstracter_input(segment(code, language), extractor, ab_vocab, cfg)
    e_ex = abstracter.encode_extractive(important_ids)
    e_ab = abstracter.encode_abstractive(code_ids)
    e_fu = fuse(e_ex, e_ab, cfg.fusion)
    if beam_width <= 1:
        return _greedy_decode(abstracter, e_fu, ab_vocab, max_len)
    return _beam_decode(abstracter, e_fu, ab_vocab, max_len, beam_width)
