import dataclasses
import logging
import math

import numpy as np
import pytest

from eacs import numcore as nc
from eacs.config import RunConfig
from eacs.corpus import PAD, RawPair, load_corpus
from eacs.errors import EmptyCorpus, ShapeError
from eacs.extractor import (
    ExtractorModel,
    ExtractorSample,
    build_extractor_dataset,
    dataset_loss,
    extractor_batch_loss,
    extractor_loss,
    fit,
    label_accuracy,
    predict_important,
    split_validation,
    train_extractor,
)
from eacs.oracle import label_statements
from eacs.segmenter import segment, segment_pairs

from .conftest import vocabulary_of
from .oracles import RecordingRng

TINY = RunConfig(embed_dim=8, hidden_dim=8, dropout=0.0, epochs=3, seed=7)


@pytest.fixture()
def tiny_model():
    return ExtractorModel(vocab_size=20, config=TINY, rng=np.random.default_rng(0))


def encode(model, stmt_ids):
    """Contextualized statement rows of one snippet."""
    return model.encode_batch([stmt_ids])[0]


def statement_probs(model, stmt_ids):
    return model.classify_statements(encode(model, stmt_ids))


class TestForward:
    def test_embedding_matrix_shape(self, tiny_model):
        ids = [np.array([4, 5, 6]), np.array([7]), np.array([8, 9])]
        enc = encode(tiny_model, ids)
        assert enc.shape == (3, 8)

    def test_single_statement(self, tiny_model):
        assert encode(tiny_model, [np.array([4])]).shape == (1, 8)

    def test_token_order_matters(self, tiny_model):
        a = encode(tiny_model, [np.array([4, 5, 6])]).data
        b = encode(tiny_model, [np.array([6, 5, 4])]).data
        assert not np.allclose(a, b)

    def test_rows_are_distributions(self, tiny_model):
        probs = statement_probs(tiny_model, [np.array([4, 5]), np.array([6])])
        assert probs.data.shape == (2, 2)
        assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-6
        assert (probs.data >= 0).all()

    def test_zero_projection_gives_half(self, tiny_model):
        tiny_model.cls_w.data[:] = 0.0
        tiny_model.cls_b.data[:] = 0.0
        probs = statement_probs(tiny_model, [np.array([4]), np.array([5, 6])])
        assert np.allclose(probs.data, 0.5)

    def test_classify_shape_error(self, tiny_model):
        with pytest.raises(ShapeError):
            tiny_model.classify_statements(nc.Tensor(np.zeros((2, 5))))


def uniform(n):
    """Weights of the mean over ``n`` statements."""
    return np.full(n, 1.0 / n)


class TestLoss:
    def test_uniform_predictions_cost_ln2(self):
        probs = nc.Tensor(np.full((4, 2), 0.5))
        assert extractor_loss(probs, np.array([1, 0, 1, 0]), uniform(4)).item() == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_confident_wrong_is_clamped(self):
        probs = nc.Tensor(np.array([[1.0, 0.0]]))
        loss = extractor_loss(probs, np.array([1]), uniform(1)).item()
        assert loss == pytest.approx(-math.log(1e-7), rel=1e-6)

    def test_perfect_predictions_cost_about_zero(self):
        probs = nc.Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert extractor_loss(probs, np.array([1, 0]), uniform(2)).item() < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            extractor_loss(nc.Tensor(np.full((2, 2), 0.5)), np.array([1]), uniform(1))

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p1 = rng.uniform(0, 1, (5, 1))
            probs = nc.Tensor(np.hstack([1 - p1, p1]))
            gold = rng.integers(0, 2, 5)
            assert extractor_loss(probs, gold, uniform(5)).item() >= 0.0


def _grads(model, loss_fn):
    params = model.parameters()
    for p in params:
        p.grad = None
    with nc.Tape() as tape:
        loss = loss_fn()
        tape.backward(loss, params=params)
    return loss.item(), [p.grad.copy() for p in params]


class TestBatchedLoss:
    """The padded-batch loss against per-snippet extractor_loss."""

    @staticmethod
    def _samples():
        snippets = [
            ([np.array([4, 5, 6]), np.array([7])], [1, 0]),
            (
                [np.array([8]), np.array([9, 4, 5, 6, 7]), np.array([10, 11]), np.array([5])],
                [0, 1, 1, 0],
            ),
            ([np.array([12, 13])], [1]),
        ]
        return [
            ExtractorSample(k, stmt_ids, np.array(labels))
            for k, (stmt_ids, labels) in enumerate(snippets)
        ]

    @staticmethod
    def _model(dropout=0.0):
        config = RunConfig(embed_dim=6, hidden_dim=5, dropout=dropout)
        return ExtractorModel(20, config, np.random.default_rng(8), dtype=np.float64)

    def test_ragged_batch_matches_per_snippet_loss_and_gradients(self):
        model = self._model()
        samples = self._samples()
        loss, batched = _grads(model, lambda: extractor_batch_loss(model, samples))
        singles = [
            _grads(model, lambda s=s: extractor_loss(
                statement_probs(model, s.stmt_ids), s.labels, uniform(len(s.labels))
            ))
            for s in samples
        ]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-12)
        for k, g in enumerate(batched):
            mean = sum(grads[k] for _, grads in singles) / len(samples)
            assert np.abs(g - mean).max() < 1e-12

    def test_dropout_draws_one_mask_per_padded_tensor(self):
        model = self._model(dropout=0.3)
        samples = self._samples()
        rng = RecordingRng(6)
        extractor_batch_loss(model, samples, train=True, rng=rng)
        # The 7 statements' tokens (up to 5, E = 6), then the 3 snippets'
        # statement vectors (up to 4, H = 5).
        assert rng.shapes == [(7, 5, 6), (3, 4, 5)]
        extractor_batch_loss(model, samples, rng=rng)
        assert len(rng.shapes) == 2

    def test_pad_embedding_reaches_neither_loss_nor_gradients(self):
        samples = self._samples()
        runs = []
        for shift in (0.0, 3.0):
            model = self._model(dropout=0.3)
            model.embedding.data[PAD] += shift
            runs.append(_grads(model, lambda: extractor_batch_loss(
                model, samples, train=True, rng=np.random.default_rng(6)
            )))
        (loss, grads), (shifted_loss, shifted_grads) = runs
        assert loss == shifted_loss
        assert all(np.array_equal(a, b) for a, b in zip(grads, shifted_grads))
        assert not grads[0][PAD].any()

    def test_dataset_loss_is_the_per_sample_mean(self):
        model = self._model()
        samples = self._samples()
        per_sample = np.mean([extractor_batch_loss(model, [s]).item() for s in samples])
        for batch_size in (1, 2, 8):
            got = dataset_loss(model, extractor_batch_loss, samples, batch_size)
            assert got == pytest.approx(per_sample, abs=1e-12)


class TestPredict:
    CODE = "int a = 1;\nint b = 2;\nreturn a + b;"

    def _forced(self, bias):
        model = ExtractorModel(vocab_size=40, config=TINY, rng=np.random.default_rng(0))
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = bias
        return model

    def test_all_positive_returns_everything(self, toy_prepared):
        vocab = vocabulary_of(toy_prepared, max_size=40)
        model = self._forced([-5.0, 5.0])
        indices, _ = predict_important(segment(self.CODE, "java"), model, vocab)
        assert indices == [0, 1, 2]

    def test_all_negative_falls_back_to_best_single(self, toy_prepared):
        vocab = vocabulary_of(toy_prepared, max_size=40)
        model = self._forced([5.0, -5.0])
        indices, _ = predict_important(segment(self.CODE, "java"), model, vocab)
        assert len(indices) == 1

    def test_exact_tie_resolves_to_label_zero(self, toy_prepared):
        vocab = vocabulary_of(toy_prepared, max_size=40)
        model = self._forced([0.0, 0.0])  # every row is exactly [0.5, 0.5]
        indices, _ = predict_important(segment(self.CODE, "java"), model, vocab)
        assert len(indices) == 1  # fallback, not all three


class TestTraining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_extractor([], TINY)

    def test_identical_seeds_identical_parameters(self, toy_corpus):
        cfg = RunConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=5, vocab_size=100)
        a = train_extractor(toy_corpus, cfg)
        b = train_extractor(toy_corpus, cfg)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_lr_zero_leaves_parameters_at_init(self, toy_corpus):
        cfg = RunConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=5,
                              lr=0.0, weight_decay=0.0, vocab_size=100)
        result = train_extractor(toy_corpus, cfg)
        fresh = ExtractorModel(
            len(result.vocab), cfg, nc.rng_streams(cfg.seed)[0]
        )
        for trained, init in zip(result.model.parameters(), fresh.parameters()):
            assert np.array_equal(trained.data, init.data)

    def test_full_batch_loss_decreases(self, toy_corpus):
        # Full-batch AdamW on a slice of the corpus: the epoch losses
        # (measured with dropout off) should be near-monotone.
        pairs = list(toy_corpus)[:12]
        cfg = RunConfig(
            embed_dim=16, hidden_dim=16, epochs=25, batch_size=12,
            dropout=0.0, seed=3, vocab_size=100,
        )
        result = train_extractor(pairs, cfg)
        losses = result.train_loss
        regressions = [b - a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(regressions) <= max(1, int(0.05 * len(losses)))
        assert all(r < 1e-3 for r in regressions)
        assert losses[-1] < losses[0]


class TestValidationSplit:
    def test_held_out_quarter_is_validated_and_best_epoch_restored(self, toy_prepared):
        """At val_fraction 0.25, fit trains on the first three quarters, logs
        the last quarter's mean loss as the validation loss, and restores the
        weights of the epoch where that loss was lowest. The held-out labels
        are flipped, so validation loss rises as training goes on and the best
        epoch is not the last."""
        prepared = toy_prepared[:8]
        cfg = RunConfig(embed_dim=8, hidden_dim=8, epochs=6, batch_size=4, seed=5,
                        vocab_size=100, val_fraction=0.25)
        vocab = vocabulary_of(prepared, max_size=100)
        samples = build_extractor_dataset(prepared, vocab, cfg)
        samples[6:] = [dataclasses.replace(s, labels=1 - s.labels) for s in samples[6:]]
        train_set, val_set = split_validation(samples, cfg.val_fraction)
        assert [s.pair_id for s in train_set] == list(range(6))
        assert [s.pair_id for s in val_set] == [6, 7]

        # Pair ids of each training batch; pair ids and weights of each evaluation batch.
        trained, evaluated = [], []

        def recording_loss(model, batch, train=False, rng=None):
            ids = [s.pair_id for s in batch]
            if train:
                trained.append(ids)
            else:
                evaluated.append((ids, [p.data.copy() for p in model.parameters()]))
            return extractor_batch_loss(model, batch, train, rng)

        result = fit(ExtractorModel, vocab, recording_loss, samples, cfg)
        assert sorted(i for ids in trained for i in ids) == sorted(list(range(6)) * cfg.epochs)
        val_weights = [weights for ids, weights in evaluated if ids == [6, 7]]
        assert len(val_weights) == cfg.epochs

        best = int(np.argmin(result.val_loss))
        assert result.best_epoch == best < cfg.epochs - 1
        for p, w in zip(result.model.parameters(), val_weights[best]):
            assert np.array_equal(p.data, w)
        assert not all(
            np.array_equal(p.data, w) for p, w in zip(result.model.parameters(), val_weights[-1])
        )
        for weights, logged in zip(val_weights, result.val_loss):
            probe = ExtractorModel.from_parameters(
                len(vocab), cfg,
                [nc.Parameter(p.name, w) for p, w in zip(result.model.parameters(), weights)],
            )
            losses = [extractor_batch_loss(probe, [s]).item() for s in val_set]
            assert logged == pytest.approx(np.mean(losses), rel=1e-5)


class TestTruncation:
    def test_only_the_first_max_statements_are_read_and_labeled(self, monkeypatch, caplog):
        """A snippet of max_statements + 3 statements: the extractor encodes,
        predicts over and labels only the first max_statements, and logs one
        warning each time it cuts."""
        cfg = dataclasses.replace(TINY, max_statements=4)
        code = "\n".join(f"int v{i} = {i};" for i in range(cfg.max_statements + 3))
        # The comment names only a statement past the cut.
        pair = RawPair(id=0, code=code, comment="set v6 to 6.")
        prepared = list(segment_pairs([pair], "java"))
        snippet = prepared[0][1]
        assert len(snippet.statements) == cfg.max_statements + 3
        vocab = vocabulary_of(prepared, max_size=100)
        model = ExtractorModel(len(vocab), cfg, np.random.default_rng(0))
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = [-5.0, 5.0]  # every statement read is important
        read = []  # statements per snippet of each encode_batch call
        encode_batch = model.encode_batch

        def recording_encode(snippets, rng=None):
            read.append([len(stmt_ids) for stmt_ids in snippets])
            return encode_batch(snippets, rng)

        monkeypatch.setattr(model, "encode_batch", recording_encode)

        with caplog.at_level(logging.WARNING, logger="eacs.extractor"):
            indices, ids = predict_important(snippet, model, vocab)
        assert read == [[cfg.max_statements]]
        assert indices == list(range(cfg.max_statements))
        assert len(ids) == sum(len(st.tokens) for st in snippet.statements[: cfg.max_statements])
        assert [r.getMessage() for r in caplog.records] == [
            "snippet truncated from 7 to 4 statements"
        ]

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="eacs.extractor"):
            (sample,) = build_extractor_dataset(prepared, vocab, cfg)
        assert len(caplog.records) == 1
        assert len(sample.stmt_ids) == len(sample.labels) == cfg.max_statements
        kept = dataclasses.replace(snippet, statements=snippet.statements[: cfg.max_statements])
        assert sample.labels.tolist() == list(label_statements(kept, prepared[0][2]).labels)


def test_dataset_drops_unsegmentable_pair(overfit_run, unsegmentable_corpus_path):
    ex = overfit_run.extractor
    corpus = load_corpus(unsegmentable_corpus_path)
    samples = build_extractor_dataset(segment_pairs(corpus, "java"), ex.vocab, ex.model.config)
    assert corpus[1].code == "___" and not corpus[3].code.strip()
    assert [s.pair_id for s in samples] == [0, 2] + list(range(4, len(corpus)))


class TestOverfit:
    def test_reaches_perfect_label_accuracy(self, overfit_run, toy_prepared):
        ex = overfit_run.extractor
        samples = build_extractor_dataset(toy_prepared, ex.vocab, ex.model.config)
        assert label_accuracy(ex.model, samples) == 1.0

    def test_reproduces_oracle_labels_per_snippet(self, overfit_run, toy_corpus, toy_prepared):
        ex = overfit_run.extractor
        samples = build_extractor_dataset(toy_prepared, ex.vocab, ex.model.config)
        for s in samples:
            indices, _ = predict_important(
                segment(toy_corpus[s.pair_id].code, "java"), ex.model, ex.vocab
            )
            assert indices == [i for i, l in enumerate(s.labels) if l == 1]
