import math

import numpy as np
import pytest

from eacs import numcore as nc
from eacs.config import RunConfig
from eacs.errors import EmptyCorpus, ShapeError
from eacs.extractor import (
    ExtractorModel,
    build_extractor_dataset,
    extractor_loss,
    label_accuracy,
    predict_important,
    train_extractor,
)

TINY = RunConfig(embed_dim=8, hidden_dim=8, dropout=0.0, epochs=3, seed=7)


@pytest.fixture()
def tiny_model():
    return ExtractorModel(vocab_size=20, config=TINY, rng=np.random.default_rng(0))


class TestForward:
    def test_embedding_matrix_shape(self, tiny_model):
        ids = [np.array([4, 5, 6]), np.array([7]), np.array([8, 9])]
        enc = tiny_model.encode_statements(ids)
        assert enc.shape == (3, 8)

    def test_single_statement(self, tiny_model):
        assert tiny_model.encode_statements([np.array([4])]).shape == (1, 8)

    def test_token_order_matters(self, tiny_model):
        a = tiny_model.encode_statements([np.array([4, 5, 6])]).data
        b = tiny_model.encode_statements([np.array([6, 5, 4])]).data
        assert not np.allclose(a, b)

    def test_rows_are_distributions(self, tiny_model):
        probs = tiny_model.statement_probs([np.array([4, 5]), np.array([6])])
        assert probs.data.shape == (2, 2)
        assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-6
        assert (probs.data >= 0).all()

    def test_zero_projection_gives_half(self, tiny_model):
        tiny_model.cls_w.data[:] = 0.0
        tiny_model.cls_b.data[:] = 0.0
        probs = tiny_model.statement_probs([np.array([4]), np.array([5, 6])])
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


class TestPredict:
    CODE = "int a = 1;\nint b = 2;\nreturn a + b;"

    def _forced(self, bias):
        model = ExtractorModel(vocab_size=40, config=TINY, rng=np.random.default_rng(0))
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = bias
        return model

    def test_all_positive_returns_everything(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, max_size=40)
        model = self._forced([-5.0, 5.0])
        statements, indices = predict_important(self.CODE, model, vocab, "java")
        assert len(statements) == 3
        assert indices == sorted(indices)

    def test_all_negative_falls_back_to_best_single(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, max_size=40)
        model = self._forced([5.0, -5.0])
        statements, indices = predict_important(self.CODE, model, vocab, "java")
        assert len(statements) == 1

    def test_exact_tie_resolves_to_label_zero(self, toy_corpus):
        from eacs.corpus import build_vocabulary

        vocab = build_vocabulary(toy_corpus, max_size=40)
        model = self._forced([0.0, 0.0])  # every row is exactly [0.5, 0.5]
        _, indices = predict_important(self.CODE, model, vocab, "java")
        assert len(indices) == 1  # fallback, not all three


class TestTraining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_extractor([], TINY)

    def test_identical_seeds_identical_parameters(self, toy_corpus):
        cfg = RunConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=5, vocab_size=100)
        a = train_extractor(toy_corpus, cfg, language="java")
        b = train_extractor(toy_corpus, cfg, language="java")
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_lr_zero_leaves_parameters_at_init(self, toy_corpus):
        cfg = RunConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=5,
                              lr=0.0, weight_decay=0.0, vocab_size=100)
        result = train_extractor(toy_corpus, cfg, language="java")
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
        result = train_extractor(pairs, cfg, language="java")
        losses = result.history.train_loss
        regressions = [b - a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(regressions) <= max(1, int(0.05 * len(losses)))
        assert all(r < 1e-3 for r in regressions)
        assert losses[-1] < losses[0]


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
                toy_corpus[s.pair_id].code, ex.model, ex.vocab, "java"
            )
            assert indices == [i for i, l in enumerate(s.labels) if l == 1]
