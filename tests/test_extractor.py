import math

import numpy as np
import pytest

from eacs import numcore as nc
from eacs.config import RunConfig
from eacs.corpus import PAD, load_corpus
from eacs.errors import EmptyCorpus, ShapeError
from eacs.extractor import (
    ExtractorModel,
    ExtractorSample,
    build_extractor_dataset,
    dataset_loss,
    extractor_batch_loss,
    extractor_loss,
    label_accuracy,
    predict_important,
    train_extractor,
)
from eacs.segmenter import segment

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


class TestLoss:
    def test_uniform_predictions_cost_ln2(self):
        probs = nc.Tensor(np.full((4, 2), 0.5))
        assert extractor_loss(probs, np.array([1, 0, 1, 0])).item() == pytest.approx(
            math.log(2.0), abs=1e-9
        )

    def test_confident_wrong_is_clamped(self):
        probs = nc.Tensor(np.array([[1.0, 0.0]]))
        loss = extractor_loss(probs, np.array([1])).item()
        assert loss == pytest.approx(-math.log(1e-7), rel=1e-6)

    def test_perfect_predictions_cost_about_zero(self):
        probs = nc.Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert extractor_loss(probs, np.array([1, 0])).item() < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            extractor_loss(nc.Tensor(np.full((2, 2), 0.5)), np.array([1]))

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p1 = rng.uniform(0, 1, (5, 1))
            probs = nc.Tensor(np.hstack([1 - p1, p1]))
            gold = rng.integers(0, 2, 5)
            assert extractor_loss(probs, gold).item() >= 0.0


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
            _grads(model, lambda s=s: extractor_loss(statement_probs(model, s.stmt_ids), s.labels))
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

    def test_all_positive_returns_everything(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, min_freq=1, max_size=40)
        model = self._forced([-5.0, 5.0])
        statements, indices = predict_important(segment(self.CODE, "java"), model, vocab)
        assert len(statements) == 3
        assert indices == sorted(indices)

    def test_all_negative_falls_back_to_best_single(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, min_freq=1, max_size=40)
        model = self._forced([5.0, -5.0])
        statements, indices = predict_important(segment(self.CODE, "java"), model, vocab)
        assert len(statements) == 1

    def test_exact_tie_resolves_to_label_zero(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, min_freq=1, max_size=40)
        model = self._forced([0.0, 0.0])  # every row is exactly [0.5, 0.5]
        _, indices = predict_important(segment(self.CODE, "java"), model, vocab)
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
        losses = result.history.train_loss
        regressions = [b - a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(regressions) <= max(1, int(0.05 * len(losses)))
        assert all(r < 1e-3 for r in regressions)
        assert losses[-1] < losses[0]


def test_dataset_drops_unsegmentable_pair(overfit_run, unsegmentable_corpus_path):
    ex = overfit_run.extractor
    corpus = load_corpus(unsegmentable_corpus_path)
    samples = build_extractor_dataset(corpus, "java", ex.vocab, ex.model.config)
    assert corpus[1].code == "___"
    assert [s.pair_id for s in samples] == [0] + list(range(2, len(corpus)))


class TestOverfit:
    def test_reaches_perfect_label_accuracy(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        samples = build_extractor_dataset(
            list(toy_corpus), "java", ex.vocab, ex.model.config
        )
        assert label_accuracy(ex.model, samples) == 1.0

    def test_reproduces_oracle_labels_per_snippet(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        samples = build_extractor_dataset(list(toy_corpus), "java", ex.vocab, ex.model.config)
        for s in samples:
            _, indices = predict_important(
                segment(toy_corpus[s.pair_id].code, "java"), ex.model, ex.vocab
            )
            assert indices == [i for i, l in enumerate(s.labels) if l == 1]
