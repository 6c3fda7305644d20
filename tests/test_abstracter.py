import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eacs import numcore as nc
from eacs.abstracter import (
    AbstracterConfig,
    AbstracterModel,
    AbstracterSample,
    DecoderState,
    abstracter_loss,
    beam_decode,
    build_abstracter_dataset,
    fuse,
    generate_summary,
    train_abstracter,
)
from eacs.corpus import BOS, EOS, PAD, RESERVED_TOKENS, Vocabulary, load_corpus
from eacs.errors import EmptyInput, ShapeError, VocabMismatch
from eacs.segmenter import segment_pairs

from .oracles import (
    RecordingRng,
    adamw_reference,
    beam_decode_reference,
    beam_reference,
    decode_step_reference,
    lstm_over_reference,
    step_distributions,
)

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
        state = DecoderState(tiny_model, e_fu, 1)
        h, c, probs = tiny_model.decode_step(np.array([BOS]), [0], state)
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_zero_output_projection_is_uniform(self, tiny_model):
        tiny_model.out_w.data[:] = 0.0
        tiny_model.out_b.data[:] = 0.0
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        state = DecoderState(tiny_model, e_fu, 1)
        _, _, probs = tiny_model.decode_step(np.array([BOS]), [0], state)
        assert np.allclose(probs, 1.0 / 10)

    def test_repeat_call_is_deterministic(self, tiny_model):
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        one = tiny_model.decode_step(np.array([4]), [0], DecoderState(tiny_model, e_fu, 1))[2]
        two = tiny_model.decode_step(np.array([4]), [0], DecoderState(tiny_model, e_fu, 1))[2]
        assert np.array_equal(one, two)

    def test_invalid_token_index(self, tiny_model):
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        state = DecoderState(tiny_model, e_fu, 1)
        with pytest.raises(IndexError):
            tiny_model.decode_step(np.array([99]), [0], state)

    def test_negative_token_index(self, tiny_model):
        # np.take would read -1 as the last row.
        e_fu = fuse(
            tiny_model.encode_extractive(np.array([4])),
            tiny_model.encode_abstractive(np.array([5])),
            "abex",
        )
        state = DecoderState(tiny_model, e_fu, 1)
        with pytest.raises(IndexError):
            tiny_model.decode_step(np.array([-1]), [0], state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_lookup_and_concat_bit_for_bit(self, dtype):
        # The state is written at k = 8 first, so every smaller k reads
        # rows and columns an earlier step left behind.
        model = AbstracterModel(10, TINY, np.random.default_rng(3), dtype=dtype)
        e_fu = fuse(
            model.encode_extractive(np.array([4, 7])),
            model.encode_abstractive(np.array([5, 6, 9])),
            "abex",
        )
        _, u = model.init_decoder(e_fu)
        state = DecoderState(model, e_fu, 8)
        rng = np.random.default_rng(11)
        for k in range(8, 0, -1):
            ids = rng.integers(0, 10, k)
            h, c = (nc.Tensor(rng.normal(0, 0.5, (k, 8)).astype(dtype)) for _ in range(2))
            state.start(h.data, c.data)
            got = model.decode_step(ids, list(range(k)), state)
            want = decode_step_reference(model, ids, h, c, u)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == dtype and np.array_equal(g, w.data), k

    def test_published_width_matches_plain_step(self, one_blas_thread):
        # At E = H = 512 the recurrent product of k >= 2 rows is tiled
        # (numcore.Product) on the kernels it was measured on. decode_step_reference runs lstm_cell, which
        # tiles too, so the reference here is lstm_over_reference's plain
        # numpy step and a plain projection and softmax.
        width, vocab = 512, 50
        config = AbstracterConfig(embed_dim=width, hidden_dim=width, dropout=0.0, seed=7)
        model = AbstracterModel(vocab, config, np.random.default_rng(5))
        rng = np.random.default_rng(13)
        e_fu = nc.Tensor(rng.normal(0, 1, (1, 2 * width)).astype(np.float32))
        _, u = model.init_decoder(e_fu)
        state = DecoderState(model, e_fu, 8)
        for k in (8, 4, 2):
            ids = rng.integers(0, vocab, k)
            h, c = (rng.normal(0, 0.5, (k, width)).astype(np.float32) for _ in range(2))
            state.start(h, c)
            got = model.decode_step(ids, list(range(k)), state)
            x = np.concatenate([model.embedding.data[ids], np.repeat(u.data, k, axis=0)], axis=1)
            zeros = np.zeros((k, width), np.float32)
            want_h, want_c, _ = lstm_over_reference(
                x[:, None], model.dec_wx.data, model.dec_wh.data, model.dec_b.data,
                np.ones(k, np.int64), h, c, False, zeros, zeros,
            )
            logits = want_h @ model.out_w.data + model.out_b.data
            want_p = np.exp(logits - logits.max(axis=1, keepdims=True))
            want_p /= want_p.sum(axis=1, keepdims=True)
            for g, w in zip(got, (want_h, want_c, want_p)):
                assert np.array_equal(g, w), k


class TestLoss:
    def test_uniform_model_costs_ln_vocab(self):
        model = AbstracterModel(10, TINY, np.random.default_rng(3))
        for p in model.parameters():
            p.data[:] = 0.0
        loss = abstracter_loss(model, [make_sample()]).item()
        assert loss == pytest.approx(math.log(10.0), abs=1e-6)

    def test_confident_model_costs_about_zero(self):
        model = AbstracterModel(10, TINY, np.random.default_rng(3))
        target = 4
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[target] = 40.0
        sample = make_sample(comment=(target, target, target))
        sample.comment_ids = np.array([BOS, target, target, target], dtype=np.int64)
        assert abstracter_loss(model, [sample]).item() < 1e-6

    def test_matches_independent_recomputation(self):
        config = AbstracterConfig(embed_dim=6, hidden_dim=6, dropout=0.0)
        model = AbstracterModel(10, config, np.random.default_rng(9), dtype=np.float64)
        sample = make_sample()
        loss = abstracter_loss(model, [sample]).item()
        dists = step_distributions(model, sample)
        targets = sample.comment_ids[1:]
        recomputed = -np.mean([math.log(d[t]) for d, t in zip(dists, targets)])
        assert loss == pytest.approx(recomputed, abs=1e-12)


def _grads(model, loss_fn):
    params = model.parameters()
    for p in params:
        p.grad = None
    with nc.Tape() as tape:
        loss = loss_fn()
        tape.backward(loss, params=params)
    return loss.item(), [p.grad.copy() for p in params]


class TestBatchedLoss:
    """The padded-batch loss against per-sample and step-by-step recomputation."""

    RAGGED = (
        dict(code=(4, 5, 6, 7, 8), important=(5,), comment=(4, 6, 5, 9)),
        dict(code=(9, 4), important=(6, 7, 8), comment=(7,)),
        dict(code=(6, 6, 5), important=(4, 9), comment=(8, 5)),
    )

    def _model(self, **overrides):
        config = AbstracterConfig(**{"embed_dim": 6, "hidden_dim": 5, "dropout": 0.0, **overrides})
        return AbstracterModel(10, config, np.random.default_rng(21), dtype=np.float64)

    def test_ragged_batch_matches_stepwise_decoding(self):
        model = self._model()
        samples = [make_sample(**kw) for kw in self.RAGGED]
        loss = abstracter_loss(model, samples).item()
        per_sample = []
        for sample in samples:
            dists = step_distributions(model, sample)
            targets = sample.comment_ids[1:]
            per_sample.append(-np.mean([math.log(d[t]) for d, t in zip(dists, targets)]))
        assert loss == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_ragged_batch_gradients_match_per_sample(self):
        model = self._model()
        samples = [make_sample(**kw) for kw in self.RAGGED]
        loss, batched = _grads(model, lambda: abstracter_loss(model, samples))
        singles = [_grads(model, lambda s=s: abstracter_loss(model, [s])) for s in samples]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-12)
        for k, g in enumerate(batched):
            mean = sum(grads[k] for _, grads in singles) / len(samples)
            assert np.abs(g - mean).max() < 1e-12

    def test_dropout_draws_one_mask_per_padded_tensor(self):
        model = self._model(dropout=0.3)
        samples = [make_sample(**kw) for kw in self.RAGGED]
        rng = RecordingRng(5)
        abstracter_loss(model, samples, train=True, rng=rng)
        # Important, code and previous-token embeddings (E = 6), in that order.
        assert rng.shapes == [(3, 3, 6), (3, 5, 6), (3, 5, 6)]
        abstracter_loss(model, samples, rng=rng)
        assert len(rng.shapes) == 3

    def test_pad_embedding_reaches_neither_loss_nor_gradients(self):
        samples = [make_sample(**kw) for kw in self.RAGGED]
        runs = []
        for shift in (0.0, 3.0):
            model = self._model(dropout=0.3)
            model.embedding.data[PAD] += shift
            runs.append(_grads(model, lambda: abstracter_loss(
                model, samples, train=True, rng=np.random.default_rng(5)
            )))
        (loss, grads), (shifted_loss, shifted_grads) = runs
        assert loss == shifted_loss
        assert all(np.array_equal(a, b) for a, b in zip(grads, shifted_grads))
        # The one embedding table comes first among the parameters.
        assert not grads[0][PAD].any()

    def test_clamped_gold_probabilities_pass_no_gradient(self):
        # Gold probability exactly 1.0 in one sample and about 1e-35 in the
        # other: the clamp caps the second at -log(1e-9), and neither passes
        # a gradient, exactly as for 1e-9 < p < 1 only.
        model = self._model()
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[4] = 40.0
        sure = make_sample(comment=(4, 4, 4))
        sure.comment_ids = np.array([BOS, 4, 4, 4], dtype=np.int64)
        hopeless = make_sample(comment=(5, 5))
        hopeless.comment_ids = np.array([BOS, 5, 5], dtype=np.int64)
        assert step_distributions(model, sure)[0][4] == 1.0
        assert step_distributions(model, hopeless)[0][5] < 1e-9
        loss, grads = _grads(model, lambda: abstracter_loss(model, [sure, hopeless]))
        assert loss == pytest.approx(-0.5 * math.log(1e-9), rel=1e-12)
        assert not any(g.any() for g in grads)

    def test_comment_without_target_rejected(self):
        sample = make_sample()
        sample.comment_ids = np.array([BOS], dtype=np.int64)
        with pytest.raises(EmptyInput):
            abstracter_loss(self._model(), [sample])


class TestTraining:
    def test_extractor_stays_frozen(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        before = [p.data.copy() for p in ex.model.parameters()]
        cfg = AbstracterConfig(embed_dim=8, hidden_dim=8, epochs=1, seed=3)
        train_abstracter(list(toy_corpus)[:6], ex.model, ex.vocab, cfg)
        for prev, p in zip(before, ex.model.parameters()):
            assert prev.tobytes() == p.data.tobytes()

    def test_identical_seeds_identical_parameters(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        cfg = AbstracterConfig(embed_dim=8, hidden_dim=8, epochs=2, seed=11)
        pairs = list(toy_corpus)[:8]
        a = train_abstracter(pairs, ex.model, ex.vocab, cfg)
        b = train_abstracter(pairs, ex.model, ex.vocab, cfg)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


class TestPublishedWidthStep:
    """Two AdamW steps at E = H = 512, where BLAS runs other kernels than at desk width."""

    def _two_steps(self):
        config = AbstracterConfig(embed_dim=512, hidden_dim=512, dropout=0.1, seed=4)
        init_rng, _, drop_rng = nc.rng_streams(config.seed)
        model = AbstracterModel(12, config, init_rng)
        params = model.parameters()
        start = [p.data.copy() for p in params]
        optimizer = nc.AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
        samples = [make_sample(), make_sample(code=(9, 8, 11), important=(10,), comment=(7, 4))]
        grads = []
        for _ in range(2):
            optimizer.zero_grad()
            with nc.Tape() as tape:
                loss = abstracter_loss(model, samples, train=True, rng=drop_rng)
                tape.backward(loss, params=params)
            grads.append([p.grad.copy() for p in params])
            optimizer.step()
        return start, grads, [p.data for p in params], config

    def test_same_seed_same_bytes_and_reference_update(self):
        start, grads, first, config = self._two_steps()
        _, _, second, _ = self._two_steps()
        assert [a.tobytes() for a in first] == [b.tobytes() for b in second]
        want = adamw_reference(start, grads, 2, lr=config.lr, weight_decay=config.weight_decay)
        for got, w in zip(first, want):
            assert got.dtype == np.float32
            assert np.array_equal(got, w)


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
        result = beam_decode(model, e_fu, vocab, max_len=10, width=1)
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
        result = beam_decode(model, e_fu, vocab, max_len=7, width=1)
        assert len(result.tokens) == 7

    def test_special_token_argmax_prints_nothing(self):
        # The likeliest token is always <bos>, which is never printed, and
        # the search runs to max_len because <eos> never wins.
        vocab, model = self._uniform_setup()
        model.out_w.data[:] = 0.0
        model.out_b.data[:] = -40.0
        model.out_b.data[BOS] = 40.0
        e_fu = fuse(
            model.encode_extractive(np.array([4])),
            model.encode_abstractive(np.array([5])),
            "abex",
        )
        for width in (1, 3):
            result = beam_decode(model, e_fu, vocab, max_len=5, width=width)
            assert result.tokens == []
            assert len(result.step_log_probs) == 5

    def test_vocab_mismatch_rejected(self, overfit_run, toy_corpus):
        ex = overfit_run.extractor
        ab = overfit_run.abstracter
        other = Vocabulary(list(RESERVED_TOKENS) + ["different"])
        with pytest.raises(VocabMismatch):
            generate_summary(
                toy_corpus[0].code, ex.model, ex.vocab, ab.model, other, "java", 30, 1
            )


class _RecordingVocabulary(Vocabulary):
    """Remembers the ids of the last decode, without the <eos>."""

    def decode(self, ids):
        self.ids = [int(i) for i in ids if i != EOS]
        return super().decode(ids)


def _beam_setup(seed, vocab_size, sharpness, dtype=np.float64):
    """A random decoder whose output scores scale with ``sharpness``, its
    fused vector, and two vocabularies that record the decoded ids."""
    config = AbstracterConfig(embed_dim=5, hidden_dim=4, dropout=0.0)
    model = AbstracterModel(vocab_size, config, np.random.default_rng(seed), dtype=dtype)
    model.out_w.data *= sharpness
    model.out_b.data[:] = np.random.default_rng(seed + 1).normal(0.0, sharpness, vocab_size)
    words = list(RESERVED_TOKENS) + [f"w{i}" for i in range(vocab_size - 4)]
    e_fu = fuse(
        model.encode_extractive(np.array([4])),
        model.encode_abstractive(np.array([vocab_size - 1, 4])),
        "abex",
    )
    return model, e_fu, _RecordingVocabulary(words), _RecordingVocabulary(words)


class TestBatchedBeam:
    """The batched search against one decode_step_reference call per
    hypothesis, and against the earlier batched search bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(5, 12),
        sharpness=st.floats(0.5, 8.0),
        max_len=st.integers(1, 8),
        width=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_one_hypothesis_at_a_time(self, seed, vocab_size, sharpness, max_len, width):
        model, e_fu, batched_vocab, reference_vocab = _beam_setup(seed, vocab_size, sharpness)
        got = beam_decode(model, e_fu, batched_vocab, max_len, width)
        want = beam_reference(model, e_fu, reference_vocab, max_len, width)
        assert batched_vocab.ids == reference_vocab.ids
        assert got.tokens == want.tokens
        assert len(got.step_log_probs) == len(want.step_log_probs)
        assert np.abs(np.subtract(got.step_log_probs, want.step_log_probs)).max() < 1e-9

    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(5, 12),
        sharpness=st.floats(0.5, 8.0),
        max_len=st.integers(1, 12),
        width=st.integers(1, 8),
        dtype=st.sampled_from([np.float32, np.float64]),
        never_stops=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_bits_as_the_batched_reference(
        self, seed, vocab_size, sharpness, max_len, width, dtype, never_stops
    ):
        model, e_fu, vocab, reference_vocab = _beam_setup(seed, vocab_size, sharpness, dtype)
        if never_stops:
            model.out_b.data[EOS] = -50.0
        got = beam_decode(model, e_fu, vocab, max_len, width)
        want = beam_decode_reference(model, e_fu, reference_vocab, max_len, width)
        assert vocab.ids == reference_vocab.ids
        assert got.tokens == want.tokens
        assert list(map(float.hex, got.step_log_probs)) == list(
            map(float.hex, want.step_log_probs)
        )


def test_dataset_drops_unsegmentable_pair(overfit_run, unsegmentable_corpus_path):
    ex = overfit_run.extractor
    corpus = load_corpus(unsegmentable_corpus_path)
    samples = build_abstracter_dataset(segment_pairs(corpus, "java"), ex.vocab, ex.model, TINY)
    assert corpus[1].code == "___" and not corpus[3].code.strip()
    assert [s.pair_id for s in samples] == [0, 2] + list(range(4, len(corpus)))


class TestOverfitGeneration:
    def test_reproduces_gold_comments(self, overfit_run, toy_corpus, toy_prepared):
        ex, ab = overfit_run.extractor, overfit_run.abstracter
        samples = build_abstracter_dataset(toy_prepared, ex.vocab, ex.model, ab.model.config)
        exact = 0
        for pair, s in zip(toy_corpus, samples):
            out = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java", max_len=20, beam_width=1
            )
            if out.tokens == ex.vocab.decode(s.comment_ids):
                exact += 1
        assert exact / len(samples) >= 0.90

    def test_greedy_log_prob_never_beats_beam(self, overfit_run, toy_corpus):
        ex, ab = overfit_run.extractor, overfit_run.abstracter
        for pair in list(toy_corpus)[:8]:
            greedy = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java", max_len=20, beam_width=1
            )
            beam = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java",
                max_len=20, beam_width=3,
            )
            assert sum(greedy.step_log_probs) <= sum(beam.step_log_probs) + 1e-9
