import math

import numpy as np
import pytest

from eacs import numcore as nc
from eacs.abstracter import (
    AbstracterConfig,
    AbstracterModel,
    AbstracterSample,
    _sequence_nll,
    build_abstracter_dataset,
    fuse,
    generate_summary,
    step_distributions,
    train_abstracter,
)
from eacs.corpus import BOS, EOS, Vocabulary, RESERVED_TOKENS
from eacs.errors import EmptyInput, ShapeError, VocabMismatch

TINY = AbstracterConfig(embed_dim=8, hidden_dim=8, dropout=0.0, epochs=3, seed=7)


@pytest.fixture()
def tiny_model():
    return AbstracterModel(vocab_size=10, config=TINY, rng=np.random.default_rng(0))


def make_sample(code=(4, 5, 6, 7), important=(5, 6), comment=(4, 6, 5)):
    return AbstracterSample(
        pair_id=0,
        code_ids=np.array(code, dtype=np.int64),
        important_ids=np.array(important, dtype=np.int64),
        comment_ids=np.array([BOS, *comment, EOS], dtype=np.int64),
        comment_tokens=[str(t) for t in comment],
    )


class TestEncoders:
    def test_deterministic_fixed_vector(self, tiny_model):
        ids = np.array([4, 5, 6])
        a = tiny_model.encode_extractive(ids).data
        b = tiny_model.encode_extractive(ids).data
        assert np.array_equal(a, b)
        assert a.shape == (1, 8)

    def test_width_independent_of_length(self, tiny_model):
        assert tiny_model.encode_extractive(np.array([4])).shape == (1, 8)
        assert tiny_model.encode_extractive(np.arange(4, 10)).shape == (1, 8)

    def test_same_params_same_input_match(self):
        config = AbstracterConfig(embed_dim=8, hidden_dim=8, dropout=0.0)
        model = AbstracterModel(10, config, np.random.default_rng(1))
        # Force both encoders to share weights: identical input must encode
        # identically through either path.
        for src, dst in (
            (model.ex_wx, model.ab_wx), (model.ex_wh, model.ab_wh), (model.ex_b, model.ab_b),
        ):
            dst.data = src.data.copy()
        ids = np.array([4, 5, 6, 7])
        assert np.allclose(
            model.encode_extractive(ids).data, model.encode_abstractive(ids).data
        )

    def test_permutation_changes_encoding(self, tiny_model):
        a = tiny_model.encode_abstractive(np.array([4, 5, 6])).data
        b = tiny_model.encode_abstractive(np.array([6, 5, 4])).data
        assert not np.allclose(a, b)

    def test_empty_raises(self, tiny_model):
        with pytest.raises(EmptyInput):
            tiny_model.encode_extractive(np.array([], dtype=np.int64))


class TestFuse:
    def test_exab_layout(self):
        a = nc.Tensor(np.full((1, 4), 1.0))
        b = nc.Tensor(np.full((1, 4), 2.0))
        fused = fuse(a, b, "exab").data
        assert fused.shape == (1, 8)
        assert (fused[0, :4] == 1.0).all() and (fused[0, 4:] == 2.0).all()

    def test_width_is_double(self):
        a = nc.Tensor(np.zeros((1, 512)))
        assert fuse(a, a, "abex").shape == (1, 1024)

    def test_orders_are_block_swaps(self):
        rng = np.random.default_rng(0)
        a = nc.Tensor(rng.normal(size=(1, 6)))
        b = nc.Tensor(rng.normal(size=(1, 6)))
        exab = fuse(a, b, "exab").data
        abex = fuse(a, b, "abex").data
        assert np.array_equal(exab, np.hstack([abex[:, 6:], abex[:, :6]]))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            fuse(nc.Tensor(np.zeros((1, 4))), nc.Tensor(np.zeros((1, 5))), "abex")


class TestDecodeStep:
    def test_distribution_sums_to_one(self, tiny_model):
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5, 6])),
            "abex",
        )
        h, c, u = tiny_model.init_decoder(e_fu)
        h, c, probs = tiny_model.decode_step(BOS, h, c, u)
        assert abs(probs.data.sum() - 1.0) < 1e-6

    def test_zero_output_projection_is_uniform(self, tiny_model):
        tiny_model.out_w.data[:] = 0.0
        tiny_model.out_b.data[:] = 0.0
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        h, c, u = tiny_model.init_decoder(e_fu)
        _, _, probs = tiny_model.decode_step(BOS, h, c, u)
        assert np.allclose(probs.data, 1.0 / 10)

    def test_repeat_call_is_deterministic(self, tiny_model):
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        h, c, u = tiny_model.init_decoder(e_fu)
        one = tiny_model.decode_step(4, h, c, u)[2].data
        two = tiny_model.decode_step(4, h, c, u)[2].data
        assert np.array_equal(one, two)

    def test_invalid_token_index(self, tiny_model):
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        h, c, u = tiny_model.init_decoder(e_fu)
        with pytest.raises(IndexError):
            tiny_model.decode_step(99, h, c, u)


class TestLoss:
    def test_uniform_model_costs_ln_vocab(self):
        model = AbstracterModel(10, TINY, np.random.default_rng(3))
        for p in model.parameters():
            p.data[:] = 0.0
        loss = _sequence_nll(model, make_sample()).item()
        assert loss == pytest.approx(math.log(10.0), abs=1e-6)

    def test_confident_model_costs_about_zero(self):
        model = AbstracterModel(10, TINY, np.random.default_rng(3))
        target = 4
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[target] = 40.0
        sample = make_sample(comment=(target, target, target))
        sample.comment_ids = np.array([BOS, target, target, target], dtype=np.int64)
        assert _sequence_nll(model, sample).item() < 1e-6

    def test_matches_independent_recomputation(self):
        config = AbstracterConfig(embed_dim=6, hidden_dim=6, dropout=0.0)
        model = AbstracterModel(10, config, np.random.default_rng(9), dtype=np.float64)
        sample = make_sample()
        loss = _sequence_nll(model, sample).item()
        dists = step_distributions(model, sample)
        targets = sample.comment_ids[1:]
        recomputed = -np.mean([math.log(d[t]) for d, t in zip(dists, targets)])
        assert loss == pytest.approx(recomputed, abs=1e-12)


class TestTraining:
    def test_extractor_stays_frozen(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        before = [p.data.copy() for p in ex.model.parameters()]
        cfg = AbstracterConfig(embed_dim=8, hidden_dim=8, epochs=1, seed=3)
        train_abstracter(list(toy_corpus)[:6], ex.model, ex.vocab, cfg, language="java")
        for prev, p in zip(before, ex.model.parameters()):
            assert prev.tobytes() == p.data.tobytes()

    def test_identical_seeds_identical_parameters(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        cfg = AbstracterConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=11)
        pairs = list(toy_corpus)[:8]
        a = train_abstracter(pairs, ex.model, ex.vocab, cfg, language="java")
        b = train_abstracter(pairs, ex.model, ex.vocab, cfg, language="java")
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


class TestGeneration:
    def _uniform_setup(self):
        vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(6)])
        model = AbstracterModel(len(vocab), TINY, np.random.default_rng(1))
        return vocab, model

    def test_immediate_eos_gives_empty_summary(self):
        vocab, model = self._uniform_setup()
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[EOS] = 40.0
        e_fu = fuse(
            model.encode_extractive(np.array([4])),
            model.encode_abstractive(np.array([5])),
            "abex",
        )
        from eacs.abstracter import _greedy_decode

        result = _greedy_decode(model, e_fu, vocab, max_len=10)
        assert result.tokens == []
        assert len(result.step_log_probs) == 1

    def test_no_eos_truncates_at_max_len(self):
        vocab, model = self._uniform_setup()
        tok = 5  # never EOS
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[tok] = 40.0
        e_fu = fuse(
            model.encode_extractive(np.array([4])),
            model.encode_abstractive(np.array([5])),
            "abex",
        )
        from eacs.abstracter import _greedy_decode

        result = _greedy_decode(model, e_fu, vocab, max_len=7)
        assert len(result.tokens) == 7

    def test_total_log_prob_sums_steps(self):
        vocab, model = self._uniform_setup()
        e_fu = fuse(
            model.encode_extractive(np.array([4])),
            model.encode_abstractive(np.array([5])),
            "abex",
        )
        from eacs.abstracter import _beam_decode, _greedy_decode

        greedy = _greedy_decode(model, e_fu, vocab, max_len=6)
        assert greedy.total_log_prob == pytest.approx(sum(greedy.step_log_probs))
        beam = _beam_decode(model, e_fu, vocab, max_len=6, width=3)
        assert beam.total_log_prob == pytest.approx(sum(beam.step_log_probs))

    def test_vocab_mismatch_rejected(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        ab = overfit_run.abstracter
        other = Vocabulary(list(RESERVED_TOKENS) + ["different"])
        with pytest.raises(VocabMismatch):
            generate_summary(
                toy_corpus[0].code, ex.model, ex.vocab, ab.model, other, "java"
            )


class TestOverfitGeneration:
    def test_reproduces_gold_comments(self, overfit_run, toy_corpus):
        ex, ab = overfit_run.extractor, overfit_run.abstracter
        samples = build_abstracter_dataset(
            list(toy_corpus), "java", ex.vocab, ex.model, ab.model.config
        )
        exact = 0
        for pair, s in zip(toy_corpus, samples):
            out = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java", max_len=20
            )
            if out.tokens == ex.vocab.decode(s.comment_ids):
                exact += 1
        assert exact / len(samples) >= 0.90

    def test_greedy_log_prob_never_beats_beam(self, overfit_run, toy_corpus):
        ex, ab = overfit_run.extractor, overfit_run.abstracter
        for pair in list(toy_corpus)[:8]:
            greedy = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java", max_len=20
            )
            beam = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java",
                max_len=20, beam_width=3,
            )
            assert greedy.total_log_prob <= beam.total_log_prob + 1e-9
