import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eacs import numcore as nc
from eacs.numcore import optim
from eacs.errors import ShapeError

from .oracles import adamw_reference, lstm_over_reference, lstm_reference, scatter_add_reference


class TestOps:
    def test_concat_last_axis(self):
        out = nc.concat([nc.Tensor(np.array([[1.0, 2.0]])), nc.Tensor(np.array([[3.0]]))])
        assert out.data.tolist() == [[1.0, 2.0, 3.0]]

    def test_matmul_hand_values(self):
        a = nc.Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        b = nc.Tensor(np.array([[1.0], [0.0], [2.0]]))
        assert nc.matmul(a, b).data.tolist() == [[7.0], [16.0]]

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))

    def test_softmax_symmetry_and_hand_value(self):
        out = nc.softmax(nc.Tensor(np.array([[0.0, 0.0]])))
        assert out.data.tolist() == [[0.5, 0.5]]
        out = nc.softmax(nc.Tensor(np.array([[0.0, np.log(3.0)]])))
        assert np.allclose(out.data, [[0.25, 0.75]])

    def test_softmax_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 3, (4, 7))
        a = nc.softmax(nc.Tensor(x)).data
        b = nc.softmax(nc.Tensor(x + 100.0)).data
        assert np.abs(a - b).max() < 1e-6
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-6

    def test_sigmoid_saturates_without_warnings(self):
        with np.errstate(all="raise"):
            out = nc.sigmoid(nc.Tensor(np.array([-1e4, -30.0, 0.0, 30.0, 1e4]))).data
        assert out[0] == 0.0 and out[2] == 0.5 and out[4] == 1.0
        assert np.all(np.diff(out) >= 0)

    def test_dropout_mask_stream_is_row_consecutive(self):
        one = nc.keep_mask(np.random.default_rng(8), (3, 5), 0.3, np.float32)
        rng = np.random.default_rng(8)
        rows = [nc.keep_mask(rng, (1, 5), 0.3, np.float32) for _ in range(3)]
        assert np.array_equal(one, np.concatenate(rows))

    def test_keep_mask_rejects_rate_outside_unit_interval(self):
        for p in (-0.1, 1.0):
            with pytest.raises(ValueError):
                nc.keep_mask(np.random.default_rng(0), (2, 2), p, np.float32)

    def test_embedding_lookup_nd_ids_scatter_adds(self):
        table = nc.Parameter("t", np.arange(8.0).reshape(4, 2))
        ids = np.array([[1, 3, 1], [0, 1, 1]])
        with nc.Tape() as tape:
            out = nc.embedding_lookup(table, ids)
            tape.backward(nc.sum_all(out))
        assert out.shape == (2, 3, 2)
        assert table.grad[:, 0].tolist() == [1.0, 4.0, 0.0, 1.0]

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(17)
        x = nc.Tensor(np.full((100, 1000), 2.0))
        out = nc.dropout(x, nc.keep_mask(rng, x.shape, 0.3, x.dtype))
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01


class TestLstmCell:
    def test_zero_everything(self):
        z = lambda s: nc.Tensor(np.zeros(s))
        h, c = nc.lstm_cell(z((1, 3)), z((1, 4)), z((1, 4)), z((3, 16)), z((4, 16)), z((16,)))
        assert not h.data.any() and not c.data.any()

    def test_zero_params_nonzero_cell_state(self):
        z = lambda s: nc.Tensor(np.zeros(s))
        k = 0.8
        h, c = nc.lstm_cell(
            z((1, 3)), z((1, 4)), nc.Tensor(np.full((1, 4), k)),
            z((3, 16)), z((4, 16)), z((16,)),
        )
        assert np.allclose(c.data, 0.5 * k)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * k))

    def test_shape_validation(self):
        z = lambda s: nc.Tensor(np.zeros(s))
        with pytest.raises(ShapeError):
            nc.lstm_cell(z((1, 3)), z((1, 4)), z((1, 4)), z((3, 12)), z((4, 16)), z((16,)))


class TestLstmOver:
    """The sequence op against a plain LSTM run step by step, per sequence."""

    def _weights(self, rng, d=3, h=4):
        return [nc.Tensor(rng.normal(0, 0.6, s)) for s in ((d, 4 * h), (h, 4 * h), (4 * h,))]

    def test_ragged_batch_matches_cells(self):
        rng = np.random.default_rng(3)
        wx, wh, b = self._weights(rng)
        x = rng.normal(0, 1, (3, 5, 3))
        h0, c0 = rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4))
        lengths = np.array([5, 1, 3])
        final, c = nc.lstm_over(nc.Tensor(x), wx, wh, b, lengths, nc.Tensor(h0), nc.Tensor(c0))
        states, _ = nc.lstm_over(
            nc.Tensor(x), wx, wh, b, lengths, nc.Tensor(h0), nc.Tensor(c0), collect=True
        )
        assert final.shape == (3, 4) and c.shape == (3, 4) and states.shape == (3, 5, 4)
        ref_states, ref_h, ref_c = lstm_reference(x, wx.data, wh.data, b.data, lengths, h0, c0)
        for k, n in enumerate(lengths):
            for t in range(n):
                assert np.abs(states.data[k, t] - ref_states[k][t]).max() < 1e-12
            # Past its length a sequence carries its last state.
            assert (states.data[k, n:] == states.data[k, n - 1]).all()
        assert np.abs(final.data - ref_h).max() < 1e-12
        assert np.abs(c.data - ref_c).max() < 1e-12

    def test_padding_values_do_not_leak(self):
        rng = np.random.default_rng(4)
        wx, wh, b = self._weights(rng)
        x = rng.normal(0, 1, (2, 4, 3))
        noisy = x.copy()
        noisy[0, 2:] = 99.0
        lengths = np.array([2, 4])
        a = nc.lstm_over(nc.Tensor(x), wx, wh, b, lengths)[0].data
        assert np.array_equal(a, nc.lstm_over(nc.Tensor(noisy), wx, wh, b, lengths)[0].data)

    def test_gradient_past_length_is_zero(self):
        rng = np.random.default_rng(5)
        wx, wh, b = self._weights(rng)
        x = nc.Parameter("x", rng.normal(0, 1, (2, 4, 3)))
        with nc.Tape() as tape:
            out, _ = nc.lstm_over(x, wx, wh, b, np.array([2, 4]), collect=True)
            tape.backward(nc.sum_all(out))
        assert not x.grad[0, 2:].any() and x.grad[0, :2].all() and x.grad[1].all()

    def test_shape_validation(self):
        z = lambda s: nc.Tensor(np.zeros(s))
        weights = (z((3, 16)), z((4, 16)), z((16,)))
        for shape in ((3,), (2, 0, 3), (2, 1, 1, 3)):
            with pytest.raises(ShapeError):
                nc.lstm_over(z(shape), *weights)
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, lengths=np.array([5, 0]))
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, lengths=np.array([6, 1]))
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, h0=z((1, 4)))
        # A (B, D) input is one time step.
        rng = np.random.default_rng(6)
        wx, wh, b = self._weights(rng)
        x = rng.normal(0, 1, (2, 3))
        h0, c0 = nc.Tensor(rng.normal(0, 1, (2, 4))), nc.Tensor(rng.normal(0, 1, (2, 4)))
        h, c = nc.lstm_over(nc.Tensor(x), wx, wh, b, h0=h0, c0=c0)
        h3, c3 = nc.lstm_over(nc.Tensor(x[:, None]), wx, wh, b, h0=h0, c0=c0)
        assert np.array_equal(h.data, h3.data) and np.array_equal(c.data, c3.data)


class TestLstmOverBits:
    """``lstm_over`` steps only the live rows, longest first, yet its outputs
    and all six gradients equal the loop that ran every row at every step,
    bit for bit (``tests.oracles.lstm_over_reference``).

    B runs past 19, where the backward product's column bits change at H =
    64; odd widths and H = 1 make that product's bits depend on column
    position and operand layout as well. The examples pin two H = 1 corners
    of the packed input projection and the dWh operand (one sequence shorter
    than T, whose packed product must keep two rows; one step, whose dWh
    operand keeps a row stride of 2H) and an extractor-sized token batch.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        steps=st.integers(1, 7),
        hidden=st.sampled_from([1, 4, 5, 16, 33, 64]),
        width=st.integers(1, 12),
        shape=st.sampled_from(["ragged", "equal", "ones"]),
        collect=st.booleans(),
        start=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=300, deadline=None)
    # Seed 1 gives the one sequence length 1 of 2.
    @example(seed=1, n=1, steps=2, hidden=1, width=1, shape="ragged", collect=False,
             start=False, dtype=np.float64)
    @example(seed=0, n=2, steps=1, hidden=1, width=1, shape="ragged", collect=False,
             start=True, dtype=np.float64)
    @example(seed=101, n=90, steps=30, hidden=64, width=64, shape="ragged", collect=False,
             start=False, dtype=np.float32)
    def test_matches_every_row_loop(
        self, seed, n, steps, hidden, width, shape, collect, start, dtype
    ):
        rng = np.random.default_rng(seed)
        draw = lambda *s, scale=1.0: rng.normal(0, scale, s).astype(dtype)
        lengths = {
            "ragged": rng.integers(1, steps + 1, n),
            "equal": np.full(n, steps),
            "ones": np.ones(n, dtype=np.int64),
        }[shape]
        x = draw(n, steps, width)
        shapes = ((width, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
        wx, wh, b = (draw(*s, scale=0.5) for s in shapes)
        zeros = np.zeros((n, hidden), dtype)
        h0, c0 = (draw(n, hidden), draw(n, hidden)) if start else (zeros, zeros)
        g_out = draw(*((n, steps, hidden) if collect else (n, hidden)))
        g_c = draw(n, hidden)
        names, arrays = ("x", "wx", "wh", "b", "h0", "c0"), (x, wx, wh, b, h0, c0)
        inputs = [nc.Parameter(k, v) for k, v in zip(names, arrays)]
        with nc.Tape() as tape:
            out, c = nc.lstm_over(*inputs[:4], lengths, *inputs[4:], collect=collect)
        grads = tape.nodes[-1].backward([g_out, g_c])
        ref_out, ref_c, ref_grads = lstm_over_reference(
            x, wx, wh, b, lengths, h0, c0, collect, g_out, g_c
        )
        assert np.array_equal(out.data, ref_out) and np.array_equal(c.data, ref_c)
        for name, got, want in zip(names, grads, ref_grads):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestBlasRows:
    """The BLAS property ``lstm_over`` relies on: with M >= 2 rows, a row of
    ``h[:M] @ wh`` or ``x[:M] @ wx`` does not depend on M or on where the
    row sits.

    ``lstm_over`` sorts a ragged batch longest-first and runs each step's
    recurrent product over the live prefix only, at least two rows, and the
    input projection over the rows the steps read. Its bits equal the
    every-row loop's only while this holds; one row takes numpy's
    matrix-vector path, whose bits differ. If a BLAS update breaks it, this
    test names the broken claim before checkpoints move.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [64, 512])
    def test_rows_independent_of_count_and_position(self, hidden, dtype):
        rng = np.random.default_rng(hidden)
        h = rng.normal(0, 1, (64, hidden)).astype(dtype)
        wh = rng.normal(0, 0.1, (hidden, 4 * hidden)).astype(dtype)
        full = h @ wh
        for m in range(2, 65):
            assert np.array_equal(h[:m] @ wh, full[:m]), f"rows change with M = {m}"
        perm = rng.permutation(64)
        assert np.array_equal(h[perm] @ wh, full[perm]), "rows change with their position"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [64, 128])
    def test_input_projection_rows_up_to_3000(self, width, dtype):
        # The packed input projection runs over the live (t, row) pairs only:
        # at desk width up to 2,700 of them, against every row of the padded
        # batch before. Each row must keep its bits at any count and offset.
        rng = np.random.default_rng(width)
        x = rng.normal(0, 1, (3000, width)).astype(dtype)
        w = rng.normal(0, 0.1, (width, 256)).astype(dtype)
        full = x @ w
        for m in [*range(2, 130), *range(130, 3001, 29), 3000]:
            start = int(rng.integers(0, 3001 - m))
            assert np.array_equal(x[start : start + m] @ w, full[start : start + m]), (
                f"rows change at M = {m}, offset {start}"
            )


def _bits(a):
    return a.view(f"i{a.itemsize}")


class TestScatterBits:
    """The backward of ``embedding_lookup`` and ``gather_rows`` scatters over
    flat positions, yet equals the row-indexed ``np.add.at`` bit for bit
    (``tests.oracles.scatter_add_reference``): the same adds in the same
    order, repeated ids and signed zeros included."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab=st.integers(1, 12),
        width=st.sampled_from([1, 2, 3, 8, 64]),
        ids_shape=st.sampled_from([(1,), (7,), (40,), (3, 5), (8, 12)]),
        repeat=st.booleans(),
        zero_rows=st.sampled_from([0.0, -0.0, None]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_gradients_match_add_at(self, seed, vocab, width, ids_shape, repeat, zero_rows, dtype):
        rng = np.random.default_rng(seed)
        ids = np.full(ids_shape, vocab - 1) if repeat else rng.integers(0, vocab, ids_shape)
        table = nc.Parameter("table", rng.normal(0, 1, (vocab, width)).astype(dtype))
        with nc.Tape() as tape:
            out = nc.embedding_lookup(table, ids)
        g = rng.normal(0, 1, out.shape).astype(dtype)
        if zero_rows is not None:
            g[rng.random(ids_shape) < 0.5] = zero_rows
        got = tape.nodes[-1].backward([g])[0]
        want = scatter_add_reference(table.data, ids.reshape(-1), g.reshape(-1, width))
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))

        rows = ids.reshape(-1)
        x = nc.Parameter("x", rng.normal(0, 1, (rows.size, vocab)).astype(dtype))
        with nc.Tape() as tape:
            nc.gather_rows(x, rows)
        g = rng.normal(0, 1, rows.size).astype(dtype)
        if zero_rows is not None:
            g[rng.random(rows.size) < 0.5] = zero_rows
        got = tape.nodes[-1].backward([g])[0]
        want = scatter_add_reference(x.data, (np.arange(rows.size), rows), g)
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))


class TestBackward:
    def test_product_rule(self):
        x = nc.Parameter("x", np.array([3.0]))
        y = nc.Parameter("y", np.array([5.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(x, y))
            tape.backward(loss)
        assert x.grad.tolist() == [5.0] and y.grad.tolist() == [3.0]

    def test_softmax_cross_entropy_grad_is_probs_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = nc.Parameter("l", rng.normal(0, 1, (1, 5)))
        gold = 3
        with nc.Tape() as tape:
            probs = nc.softmax(logits)
            picked = nc.gather_rows(probs, np.array([gold]))
            loss = nc.mul(nc.sum_all(nc.log(picked)), -1.0)
            tape.backward(loss)
        expected = nc.softmax(nc.Tensor(logits.data)).data.copy()
        expected[0, gold] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-12)

    def test_concat_backward_splits_at_seam(self):
        a = nc.Parameter("a", np.ones((1, 2)))
        b = nc.Parameter("b", np.ones((1, 3)))
        w = np.arange(5.0).reshape(1, 5)
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(nc.concat([a, b]), w))
            tape.backward(loss)
        assert a.grad.tolist() == [[0.0, 1.0]]
        assert b.grad.tolist() == [[2.0, 3.0, 4.0]]

    def test_unused_parameter_gets_zero_grad(self):
        used = nc.Parameter("u", np.array([1.0]))
        unused = nc.Parameter("n", np.array([1.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(used, 2.0))
            tape.backward(loss, params=[used, unused])
        assert unused.grad.tolist() == [0.0]

    def test_non_scalar_loss_rejected(self):
        x = nc.Parameter("x", np.ones((2,)))
        with nc.Tape() as tape:
            y = nc.mul(x, x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_reused_tensor_accumulates(self):
        x = nc.Parameter("x", np.array([2.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.add(nc.mul(x, x), nc.mul(x, 3.0)))  # x^2 + 3x
            tape.backward(loss)
        assert x.grad.tolist() == [7.0]  # 2x + 3

    def test_shared_gradient_array_accumulates_without_aliasing(self):
        # Both operands of add receive one gradient array; a second backward
        # without zero_grad must add to each leaf, not write through the share.
        a = nc.Parameter("a", np.array([1.0, -2.0]))
        b = nc.Parameter("b", np.array([0.5, 3.0]))
        start = [a.data.copy(), b.data.copy()]
        for _ in range(2):
            with nc.Tape() as tape:
                tape.backward(nc.sum_all(nc.add(a, b)), params=[a, b])
        assert a.grad.tolist() == [2.0, 2.0] and b.grad.tolist() == [2.0, 2.0]
        nc.AdamW([a, b], lr=0.01, weight_decay=0.01).step()
        want = adamw_reference(start, [[a.grad, b.grad]], 1, lr=0.01, weight_decay=0.01)
        assert np.array_equal(a.data, want[0]) and np.array_equal(b.data, want[1])


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = nc.Parameter("p", np.array([1.5]))
        opt = nc.AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data.tolist() == [1.5]

    def test_first_step_hand_value(self):
        p = nc.Parameter("p", np.array([1.0]))
        opt = nc.AdamW([p], lr=3e-4, weight_decay=0.01)
        p.grad = np.array([2.0])
        opt.step()
        # m_hat = 2, v_hat = 4: theta = 1 - lr * (2/(2+eps) + 0.01)
        assert p.data[0] == pytest.approx(1.0 - 3e-4 * 1.01, abs=1e-9)

    def test_quadratic_descent_drives_theta_down(self):
        p = nc.Parameter("p", np.array([1.0]))
        opt = nc.AdamW([p], lr=0.01, weight_decay=0.0)
        seen = [abs(p.data[0])]
        for _ in range(60):
            opt.zero_grad()
            with nc.Tape() as tape:
                loss = nc.sum_all(nc.mul(p, p))
                tape.backward(loss, params=[p])
            opt.step()
            seen.append(abs(p.data[0]))
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert seen[-1] < 0.5

    def test_in_place_update_matches_reference(self):
        # Float32 parameters of three shapes over several steps, one of them
        # with a missing (zero) gradient, equal the plain update bit for bit.
        rng = np.random.default_rng(5)
        shapes = [(7, 5), (5,), (3, 4, 2)]
        start = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
        steps = 6
        grads = [[rng.normal(0, 1, s).astype(np.float32) for s in shapes] for _ in range(steps)]
        grads[2][1] = None
        params = [nc.Parameter(f"p{k}", x.copy()) for k, x in enumerate(start)]
        opt = nc.AdamW(params, lr=0.01, weight_decay=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()
        want = adamw_reference(start, grads, steps, lr=0.01, weight_decay=0.01)
        for p, w in zip(params, want):
            assert p.data.dtype == np.float32
            assert np.array_equal(p.data, w)

    def test_blocked_update_matches_reference_across_block_boundaries(self):
        # Sizes one either side of a block, a 2-D parameter whose rows straddle
        # block boundaries, and a float64 parameter that uses the second
        # scratch pair, with one missing and one column-major gradient.
        block = optim.BLOCK
        rng = np.random.default_rng(8)
        shapes = [(block - 1,), (block + 1,), (2 * block + 3,), (7, block // 3 + 5)]
        start = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
        start.append(rng.normal(0, 1, (block // 100 + 3, 101)))
        steps = 3
        grads = [[rng.normal(0, 1, x.shape).astype(x.dtype) for x in start] for _ in range(steps)]
        grads[1][2] = None
        grads[2][3] = np.asfortranarray(grads[2][3])
        params = [nc.Parameter(f"p{k}", x.copy()) for k, x in enumerate(start)]
        arrays = [p.data for p in params]
        opt = nc.AdamW(params, lr=0.01, weight_decay=0.01)
        for step_grads in grads:
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step()
        want = adamw_reference(start, grads, steps, lr=0.01, weight_decay=0.01)
        for p, w, array in zip(params, want, arrays):
            assert p.data is array
            assert p.data.dtype == w.dtype
            assert np.array_equal(p.data, w)

    def test_grad_shape_mismatch(self):
        p = nc.Parameter("p", np.ones((2, 3), dtype=np.float32))
        opt = nc.AdamW([p], lr=3e-4, weight_decay=0.01)
        p.grad = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            opt.step()

    def test_lr_zero_freezes(self):
        p = nc.Parameter("p", np.array([1.0]))
        opt = nc.AdamW([p], lr=0.0, weight_decay=0.01)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data.tolist() == [1.0]


class TestDeterminism:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(123)
            x = nc.Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
            w = nc.Tensor(nc.xavier_uniform(rng, (8, 8)))
            h = nc.tanh(nc.matmul(x, w))
            d = nc.dropout(h, nc.keep_mask(np.random.default_rng(9), h.shape, 0.2, h.dtype))
            return nc.softmax(d).data.tobytes()

        assert run() == run()

    def test_rng_streams_are_stable(self):
        a = [r.integers(0, 1 << 30) for r in nc.rng_streams(42)]
        b = [r.integers(0, 1 << 30) for r in nc.rng_streams(42)]
        assert a == b


class TestFiniteDifference:
    def test_quadratic_loss_is_exact(self):
        p = nc.Parameter("p", np.array([0.3, -0.7, 1.1]))

        def loss_fn():
            return nc.sum_all(nc.mul(p, p))

        assert nc.finite_difference_check(loss_fn, [p], max_coords_per_tensor=64) < 1e-8

    @pytest.mark.parametrize("coords", [0, -3])
    def test_fewer_than_one_coordinate_rejected(self, coords):
        p = nc.Parameter("p", np.array([0.3]))
        with pytest.raises(ValueError, match="max_coords_per_tensor"):
            nc.finite_difference_check(lambda: nc.sum_all(nc.mul(p, p)), [p], coords)
