import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eacs import numcore as nc
from eacs.numcore import optim
from eacs.numcore import product as product_module
from eacs.numcore.tensor import RowGrad, record
from eacs.errors import ShapeError

from .oracles import adamw_reference, lstm_over_reference, lstm_reference, scatter_add_reference


def _matmul_case(rng, dtype):
    a, b = rng.normal(0, 1, (3, 4)).astype(dtype), rng.normal(0, 1, (4, 5)).astype(dtype)
    return [a, b], nc.matmul, a @ b, lambda g: [g @ b.T, a.T @ g]


def _concat_case(rng, dtype):
    parts = [rng.normal(0, 1, (3, k)).astype(dtype) for k in (2, 4, 1)]
    grads = lambda g: [g[:, :2], g[:, 2:6], g[:, 6:]]
    return parts, lambda *ts: nc.concat(ts), np.concatenate(parts, -1), grads


def _slice_case(rng, dtype):
    x = rng.normal(0, 1, (3, 6)).astype(dtype)
    grads = lambda g: [np.pad(g, ((0, 0), (1, 2)))]
    return [x], lambda t: nc.slice_axis(t, 1, 4), x[..., 1:4], grads


def _softmax_case(rng, dtype):
    x = rng.normal(0, 3, (4, 7)).astype(dtype)
    e = np.exp(x - x.max(-1, keepdims=True))
    p = e / e.sum(-1, keepdims=True)
    return [x], nc.softmax, p, lambda g: [(g - (g * p).sum(-1, keepdims=True)) * p]


def _dropout_case(rng, dtype):
    x = rng.normal(0, 1, (3, 5)).astype(dtype)
    keep = nc.keep_mask(rng, x.shape, 0.3, dtype)
    return [x], lambda t: nc.dropout(t, keep), x * keep, lambda g: [g * keep]


def _gather_rows_case(rng, dtype):
    x = rng.normal(0, 1, (4, 6)).astype(dtype)
    ids = np.array([5, 0, 5, 2])

    def grads(g):
        want = np.zeros_like(x)
        np.add.at(want, (np.arange(4), ids), g)
        return [want]

    return [x], lambda t: nc.gather_rows(t, ids), x[np.arange(4), ids], grads


def _embedding_case(rng, dtype):
    table = rng.normal(0, 1, (7, 3)).astype(dtype)
    ids = np.array([[4, 1, 4, 6, 1], [0, 4, 4, 2, 6]])

    def grads(g):
        want = np.zeros_like(table)
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 3))
        return [want]

    return [table], lambda t: nc.embedding_lookup(t, ids), table[ids], grads


def _unary_case(op, forward, grad, low=-2.0):
    def case(rng, dtype):
        x = rng.uniform(low, 2.0, (3, 5)).astype(dtype)
        return [x], op, forward(x), lambda g: [grad(g, x)]

    return case


def _sigmoid(x):
    return np.tanh(x * 0.5) * 0.5 + 0.5


# Each op against the numpy expressions of its output and input gradients:
# case(rng, dtype) gives the input arrays, the op over their tensors, the
# expected output, and grads(g) from the upstream gradient g.
OP_BITS = {
    "matmul": _matmul_case,
    "concat": _concat_case,
    "slice_axis": _slice_case,
    "tanh": _unary_case(nc.tanh, np.tanh, lambda g, x: g * (1 - np.tanh(x) ** 2)),
    "sigmoid": _unary_case(nc.sigmoid, _sigmoid, lambda g, x: g * _sigmoid(x) * (1 - _sigmoid(x))),
    "log": _unary_case(nc.log, np.log, lambda g, x: g / x, low=0.05),
    "clip": _unary_case(
        lambda t: nc.clip(t, -0.5, 0.5), lambda x: np.clip(x, -0.5, 0.5),
        lambda g, x: g * ((x > -0.5) & (x < 0.5)),
    ),
    "softmax": _softmax_case,
    "sum_all": _unary_case(nc.sum_all, np.sum, lambda g, x: np.full(x.shape, g)),
    "mean_all": _unary_case(nc.mean_all, np.mean, lambda g, x: np.full(x.shape, g / x.size)),
    "reshape": _unary_case(lambda t: nc.reshape(t, (5, 3)), lambda x: x.reshape(5, 3),
                           lambda g, x: g.reshape(x.shape)),
    "dropout": _dropout_case,
    "gather_rows": _gather_rows_case,
    "embedding_lookup": _embedding_case,
}


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_bits_match_two_copy_expression(self, dtype):
        # Rows near +80 and -80 overflow or underflow exp in float32 unless
        # shifted by their max.
        rng = np.random.default_rng(12)
        x = rng.normal(0, 3, (6, 37))
        x[1] += 80.0
        x[2] -= 80.0
        x[3, ::2] += 85.0
        x = x.astype(dtype)
        e = np.exp(x - x.max(-1, keepdims=True))
        want = e / e.sum(-1, keepdims=True)
        got = nc.softmax(nc.Tensor(x)).data
        assert got.dtype == dtype and np.array_equal(got, want)
        assert np.array_equal(nc.softmax_into(x, x.copy()), want)
        assert np.isfinite(got).all()

    def test_softmax_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 3, (4, 7))
        a = nc.softmax(nc.Tensor(x)).data
        b = nc.softmax(nc.Tensor(x + 100.0)).data
        assert np.abs(a - b).max() < 1e-6
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op, forward, grads",
        [
            (nc.add, lambda a, b: a + b, lambda g, a, b: (g, g)),
            (nc.sub, lambda a, b: a - b, lambda g, a, b: (g, -g)),
            (nc.mul, lambda a, b: a * b, lambda g, a, b: (g * b, g * a)),
        ],
        ids=["add", "sub", "mul"],
    )
    def test_elementwise_bits_match_numpy(self, op, forward, grads, dtype):
        # Output, both gradients and dtype, against the numpy expression on
        # the operands with any bare constant cast to the tensor's dtype
        # first: a bias on either side, two equal shapes, and a Python float
        # or a float64 array on either side. A broadcast operand's gradient
        # is summed over the leading axes one at a time.
        rng = np.random.default_rng(11)
        x, y, g = rng.normal(0, 1, (3, 4, 5)).astype(dtype)
        bias = rng.normal(0, 1, 5).astype(dtype)
        wide = rng.normal(0, 1, (4, 5))
        x, y, bias = nc.Parameter("x", x), nc.Parameter("y", y), nc.Parameter("bias", bias)
        for left, right in [(x, bias), (bias, x), (x, y), (x, 0.1), (0.1, x), (x, wide), (wide, x)]:
            a, b = (v.data if isinstance(v, nc.Tensor) else np.asarray(v).astype(dtype) for v in (left, right))
            with nc.Tape() as tape:
                out = op(left, right)
            got = [out.data, *tape.nodes[-1].backward([g])]
            want = [forward(a, b)]
            for w, operand in zip(grads(g, a, b), (a, b)):
                while w.ndim > operand.ndim:
                    w = w.sum(axis=0)
                want.append(w)
            for got_k, want_k in zip(got, want):
                assert got_k.dtype == dtype and np.array_equal(_bits(got_k), _bits(want_k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", OP_BITS)
    def test_op_bits_match_numpy(self, name, dtype):
        # The output and every input gradient, from the op's node on a seeded
        # upstream gradient; a RowGrad is made dense with np.add.at.
        rng = np.random.default_rng(19)
        arrays, op, want_out, grads = OP_BITS[name](rng, dtype)
        inputs = [nc.Parameter(f"x{k}", x) for k, x in enumerate(arrays)]
        with nc.Tape() as tape:
            out = op(*inputs)
        assert len(tape.nodes) == 1
        g = np.asarray(rng.normal(0, 1, out.shape), dtype)
        got = [out.data]
        for x, grad in zip(arrays, tape.nodes[0].backward([g])):
            if isinstance(grad, RowGrad):
                dense = np.zeros_like(x)
                np.add.at(dense, grad.rows, grad.values)
                grad = dense
            got.append(grad)
        want = [np.asarray(want_out), *grads(g)]
        assert len(got) == len(want) == len(arrays) + 1
        for got_k, want_k in zip(got, want):
            assert got_k.dtype == dtype and got_k.shape == want_k.shape
            assert np.array_equal(_bits(got_k), _bits(want_k))

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
            tape.backward(nc.sum_all(out), ())
        assert out.shape == (2, 3, 2)
        assert table.grad[:, 0].tolist() == [1.0, 4.0, 0.0, 1.0]

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(17)
        x = nc.Tensor(np.full((100, 1000), 2.0))
        out = nc.dropout(x, nc.keep_mask(rng, x.shape, 0.3, x.dtype))
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01


class TestLstmCell:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_one_step_lstm_over_bit_for_bit(self, n, dtype):
        rng = np.random.default_rng(7)
        draw = lambda *shape: rng.normal(0, 0.7, shape).astype(dtype)
        x, h0, c0 = draw(n, 3), draw(n, 4), draw(n, 4)
        wx, wh, b = draw(3, 16), draw(4, 16), draw(16)
        g_h, g_c = draw(n, 4), draw(n, 4)

        def run(step, x):
            params = [nc.Parameter(str(k), v) for k, v in enumerate((x, h0, c0, wx, wh, b))]
            with nc.Tape() as tape:
                h, c = step(*params)
                loss = nc.add(nc.sum_all(nc.mul(h, g_h)), nc.sum_all(nc.mul(c, g_c)))
                tape.backward(loss, params)
            return h.data, c.data, [p.grad for p in params]

        h, c, grads = run(nc.lstm_cell, x)
        h1, c1, grads1 = run(
            lambda x, h0, c0, wx, wh, b: nc.lstm_over(x, wx, wh, b, np.ones(n), h0, c0),
            x[:, None],
        )
        assert h.dtype == c.dtype == dtype
        assert np.array_equal(h, h1) and np.array_equal(c, c1)
        assert grads[0].shape == (n, 3)
        grads1[0] = grads1[0][:, 0]
        for k, (got, want) in enumerate(zip(grads, grads1)):
            assert got.dtype == dtype and np.array_equal(got, want), k

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
            tape.backward(nc.sum_all(out), ())
        assert not x.grad[0, 2:].any() and x.grad[0, :2].all() and x.grad[1].all()

    def test_shape_validation(self):
        z = lambda s: nc.Tensor(np.zeros(s))
        weights = (z((3, 16)), z((4, 16)), z((16,)))
        for shape in ((3,), (2, 3), (2, 0, 3), (2, 1, 1, 3)):
            with pytest.raises(ShapeError):
                nc.lstm_over(z(shape), *weights, np.ones(shape[0]))
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, np.array([5, 0]))
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, np.array([6, 1]))
        with pytest.raises(ShapeError):
            nc.lstm_over(z((2, 5, 3)), *weights, np.array([5, 5]), h0=z((1, 4)))


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

    Forward steps in runs of steps that share a live count. "runs" lengths
    are 1, 4 or 7, so steps share a count in runs of three or more. Further
    examples pin a batch of one over T = 120 (one run of 120 steps), and
    lengths (4, 1, 1) of T = 7 in both input orders: a length-1 sequence is
    the floor row, stepped and then carried through a three-step run, and
    a three-step run has no live row at all.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        steps=st.integers(1, 7),
        hidden=st.sampled_from([1, 4, 5, 16, 33, 64]),
        width=st.integers(1, 12),
        shape=st.sampled_from(["ragged", "runs", "equal", "ones"]),
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
    @example(seed=5, n=1, steps=120, hidden=64, width=64, shape="equal", collect=False,
             start=False, dtype=np.float32)
    @example(seed=5, n=1, steps=120, hidden=64, width=64, shape="equal", collect=False,
             start=False, dtype=np.float64)
    # Seed 2 gives lengths (4, 1, 1) and seed 11 gives (1, 1, 4).
    @example(seed=2, n=3, steps=7, hidden=4, width=3, shape="runs", collect=False,
             start=False, dtype=np.float64)
    @example(seed=11, n=3, steps=7, hidden=5, width=3, shape="runs", collect=True,
             start=True, dtype=np.float32)
    def test_matches_every_row_loop(
        self, seed, n, steps, hidden, width, shape, collect, start, dtype
    ):
        rng = np.random.default_rng(seed)
        draw = lambda *s, scale=1.0: rng.normal(0, scale, s).astype(dtype)
        ragged = rng.integers(1, steps + 1, n)
        lengths = {
            "ragged": ragged,
            "runs": ragged - (ragged - 1) % 3,
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize(
        "lengths",
        [[5, 5, 5, 5], [3, 5, 1, 4], [4, 5], [5, 1, 3, 5, 2, 4, 5, 3], [1, 5, 2, 5, 4, 3, 5, 1, 2]],
    )
    def test_published_width(self, one_blas_thread, lengths, collect, dtype):
        # At E = H = 512 every forward recurrent product of 2 to 15 rows is
        # tiled (numcore.Product) on the kernels it was measured on, and the
        # backward's dz @ wh.T of B = 2 to 8 rows in float32 (to 10 in
        # float64); B = 9 is the first plain one in float32. The reference's
        # products are plain.
        rng = np.random.default_rng(512)
        draw = lambda *s, scale=1.0: rng.normal(0, scale, s).astype(dtype)
        n, steps, hidden = len(lengths), 5, 512
        lengths = np.array(lengths)
        x = draw(n, steps, hidden)
        wx, wh = draw(hidden, 4 * hidden, scale=0.05), draw(hidden, 4 * hidden, scale=0.05)
        b, h0, c0 = draw(4 * hidden, scale=0.5), draw(n, hidden), draw(n, hidden)
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

    It holds only where the fewer rows take the same OpenBLAS kernel as the
    more. At D = 512, H = 64 (no preset's widths) an input projection of 2
    to 7 rows is within the small-matrix bound, 100³, and its rows differ
    from those of the packed path, which splits the 512-deep sum; so there
    ``lstm_over`` at lengths (3, 1, 1) of T = 3 differs from the every-row
    loop. The shapes below stay on one side of the bound or have K <= 256.
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


class TestProduct:
    """``numcore.Product`` tiles the recurrent product ``h @ wh`` and the
    backward's ``dz @ wh.T`` at the published width, yet equals the plain
    product bit for bit.

    It tiles only a (512, 2048) ``wh`` in a Product of at most 15 rows, the
    most whose product with a 256 x 256 tile stays in OpenBLAS's
    small-matrix kernel, and a (2048, 512) ``wh.T`` in one of at most 8
    rows in float32 (10 in float64), and only for 2 rows or more. It cuts
    the reduction into the K blocks OpenBLAS's packed path makes (two
    256-deep blocks at 512), and each block into 256 columns. This holds on
    scipy-openblas 0.3.31's SkylakeX kernels (the test header prints the
    BLAS record of the run): there each block's dot products are one
    sequential FMA chain in both kernels. Every other shape and row count
    stays plain, H = 384 among them, where the packed path keeps K whole and
    256-deep halves moved bits on every M tried. On any other OpenBLAS
    version (its first three dotted components other than 0.3.31) or core,
    and at more than one OpenBLAS thread, every product is plain.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [64, 128, 256, 384, 512])
    @pytest.mark.parametrize("rows", [4, 15, 16, 64])
    def test_equals_plain_product(self, one_blas_thread, rows, hidden, dtype):
        rng = np.random.default_rng(hidden)
        h = rng.normal(0, 1, (rows, hidden)).astype(dtype)
        wh = rng.normal(0, 0.1, (hidden, 4 * hidden)).astype(dtype)
        product = nc.Product(wh, rows)
        out = np.empty((rows, 4 * hidden), dtype)
        tiled = []
        for m in range(1, rows + 1):
            run = product.for_rows(m)
            run(h[:m], out[:m])
            assert np.array_equal(_bits(out[:m]), _bits(h[:m] @ wh)), f"M = {m}"
            if run != product.plain:
                tiled.append(m)
        # Only H = 512, in a Product of at most 15 rows, from M = 2.
        want = list(range(2, rows + 1)) if hidden == 512 and rows <= 15 else []
        assert tiled == (want if product_module.tiling_kernels() else [])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [4, 15, 16, 64])
    def test_rows_independent_of_count_and_position(self, one_blas_thread, rows, dtype):
        rng = np.random.default_rng(7)
        h = rng.normal(0, 1, (rows, 512)).astype(dtype)
        wh = rng.normal(0, 0.1, (512, 2048)).astype(dtype)
        product = nc.Product(wh, rows)
        full = np.empty((rows, 2048), dtype)
        product.for_rows(rows)(h, full)
        out = np.empty_like(full)
        for m in range(2, rows + 1):
            product.for_rows(m)(h[:m], out[:m])
            assert np.array_equal(out[:m], full[:m]), f"rows change with M = {m}"
        for m in (3, rows // 2, rows):
            perm = rng.permutation(rows)[:m]
            product.for_rows(m)(h[perm], out[:m])
            assert np.array_equal(out[:m], full[perm]), f"rows change with position at M = {m}"

    def test_tiles_are_two_blocks_of_256_by_256(self, monkeypatch):
        # The layout the README's timings measured, checked on any kernels.
        # 128-deep blocks move bits, but 128-wide tiles keep them, so only
        # this test tells 256-wide tiles from the slower 128-wide ones.
        monkeypatch.setattr(product_module, "tiling_kernels", lambda: True)
        product = nc.Product(np.ones((512, 2048), np.float32), 15)
        assert product.for_rows(15) != product.plain
        blocks, rest = product._blocks, product._rest
        assert [(k.start, k.stop) for k, _ in blocks] == [(0, 256), (256, 512)]
        assert rest.shape == (15, 2048)
        for _, block in blocks:
            assert [(c.start, c.stop) for c, _ in block] == [(j, j + 256) for j in range(0, 2048, 256)]
            assert all(tile.shape == (256, 256) and tile.flags.c_contiguous for _, tile in block)

    @pytest.mark.parametrize(
        "dtype, blocks, bound",
        [
            (np.float32, [448, 448, 448, 352, 352], 8),
            (np.float64, [384, 384, 384, 384, 256, 256], 10),
        ],
    )
    def test_transposed_operand_equals_plain_product(self, one_blas_thread, dtype, blocks, bound):
        # Backpropagation through time at H = 512 forms dz @ wh.T, 2048 deep,
        # with a Product of wh.T. Its tiles follow OpenBLAS's own K blocks
        # (uniform 256- or 512-deep blocks move bits), which cut 512 into the
        # forward's two 256-deep blocks; the row bound is the most rows whose
        # product with the deepest (block, 256) tile is at most 100^3.
        assert product_module.k_blocks(512, dtype) == [256, 256]
        assert product_module.k_blocks(2048, dtype) == blocks
        assert product_module.max_tiled_rows(2048, dtype) == bound == 100**3 // (blocks[0] * 256)
        rng = np.random.default_rng(2048)
        wh = rng.normal(0, 0.05, (512, 2048)).astype(dtype)
        x = rng.normal(0, 1, (bound + 1, 2048)).astype(dtype)
        tiled = []
        for m in range(1, bound + 2):
            product = nc.Product(wh.T, m)
            run = product.for_rows(m)
            out = np.empty((m, 512), dtype)
            run(x[:m], out)
            assert np.array_equal(_bits(out), _bits((wh @ x[:m].T).T)), f"M = {m}"
            if run != product.plain:
                tiled.append(m)
        want = list(range(2, bound + 1))
        assert tiled == (want if product_module.tiling_kernels() else [])

    MEASURED = product_module.Blas(
        "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
        "0.3.31.188.0", "SkylakeX", 1, lib=None,
    )

    @pytest.mark.parametrize(
        "change, tiles",
        [
            ({}, True),
            ({"version": "0.3.30"}, False),
            ({"version": "0.3.310"}, False),
            ({"core": "Haswell"}, False),
            ({"threads": 2}, False),
            (None, False),
        ],
        ids=["measured", "version-0.3.30", "version-0.3.310", "core-Haswell", "threads-2", "no-library"],
    )
    def test_plain_off_the_measured_kernels(self, monkeypatch, request, change, tiles):
        # The record the tiles were measured on tiles, and one that differs
        # from it in one fact does not. None is numpy built on another BLAS
        # (conda's MKL, Apple's Accelerate), which bundles no scipy-openblas.
        if change is None:
            monkeypatch.setattr(product_module.glob, "glob", lambda pattern: [])
            product_module._library.cache_clear()
            request.addfinalizer(product_module._library.cache_clear)
            assert product_module.blas() is None
        else:
            record = dataclasses.replace(self.MEASURED, **change)
            monkeypatch.setattr(product_module, "blas", lambda: record)
        product = nc.Product(np.ones((512, 2048), np.float32), 4)
        tiled = [m for m in range(1, 5) if product.for_rows(m) != product.plain]
        assert tiled == ([2, 3, 4] if tiles else [])

    @pytest.fixture
    def two_threads(self):
        """OpenBLAS at two threads, set through the record's library before
        the fixtures requested after this one, whose teardown must leave two;
        and at its own count again after."""
        record = nc.blas()
        if record is None:
            pytest.skip("numpy bundles no scipy-openblas")
        record.lib.scipy_openblas_set_num_threads64_(2)
        yield record
        threads = nc.blas().threads
        record.lib.scipy_openblas_set_num_threads64_(record.threads)
        assert threads == 2, "one_blas_thread did not restore the thread count"

    def test_tiles_follow_the_live_thread_count(self, two_threads, one_blas_thread):
        # one_blas_thread sets one thread over two_threads' two; on OpenBLAS
        # 0.3.31's SkylakeX kernels one thread tiles, and two never do.
        record = two_threads
        measured = record.core == "SkylakeX" and record.version.split(".")[:3] == ["0", "3", "31"]
        assert nc.blas().threads == 1
        assert product_module.tiling_kernels() == measured
        record.lib.scipy_openblas_set_num_threads64_(2)
        try:
            assert nc.blas().threads == 2
            assert not product_module.tiling_kernels()
        finally:
            record.lib.scipy_openblas_set_num_threads64_(1)


def _bits(a):
    return a.view(f"i{a.itemsize}")


class TestScatterBits:
    """The backward of ``embedding_lookup`` and ``gather_rows`` scatters over
    flat positions, yet equals the row-indexed ``np.add.at`` bit for bit
    (``tests.oracles.scatter_add_reference``): the same adds in the same
    order, repeated ids and signed zeros included. ``embedding_lookup``
    returns its rows only; written into zeros, they are the dense scatter."""

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
        rows, values = tape.nodes[-1].backward([g])[0]
        assert np.array_equal(rows, np.unique(ids))
        got = np.zeros_like(table.data)
        got[rows] = values
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


class TestRowGradBuffer:
    """A table read by several lookups gets one dense gradient buffer, which
    the tape adds each lookup's rows into in place, yet every leaf's ``.grad``
    equals the dense sum in tape order bit for bit, signed zeros included."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        add_at=st.integers(0, 3),
        zeros=st.sampled_from([0.0, -0.0]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_grads_match_dense_sum_in_tape_order(self, seed, add_at, zeros, dtype):
        rng = np.random.default_rng(seed)
        vocab, width = 9, 3
        table = nc.Parameter("table", rng.normal(0, 1, (vocab, width)).astype(dtype))
        other = nc.Parameter("other", rng.normal(0, 1, (vocab, width)).astype(dtype))
        # Ids repeat within and across the three lookups; each leaves rows out.
        ids = [rng.integers(0, vocab - 2, n) for n in (5, 12, 7)]

        def weights(shape):
            w = rng.normal(0, 1, shape).astype(dtype)
            w[rng.random(shape) < 0.3] = zeros
            return w

        lookup_w = [weights(i.shape + (width,)) for i in ids]
        add_w = weights((vocab, width))
        contributions = [scatter_add_reference(table.data, i, w) for i, w in zip(ids, lookup_w)]
        contributions.insert(add_at, add_w)
        reads = list(zip(ids, lookup_w))
        reads.insert(add_at, None)  # add hands one gradient array to both operands
        with nc.Tape() as tape:
            terms = [
                nc.mul(nc.add(table, other), add_w) if read is None
                else nc.mul(nc.embedding_lookup(table, read[0]), read[1])
                for read in reads
            ]
            tape.backward(nc.sum_all(nc.concat([nc.reshape(t, (-1,)) for t in terms])), ())
        want = None
        for g in reversed(contributions):  # backward reaches the last reader first
            want = g if want is None else want + g
        assert table.grad.dtype == want.dtype and np.array_equal(_bits(table.grad), _bits(want))
        assert np.array_equal(_bits(other.grad), _bits(add_w))

    def test_backward_peak_holds_one_table_gradient(self):
        tracemalloc = pytest.importorskip("tracemalloc")
        vocab, width = 20_000, 16
        rng = np.random.default_rng(3)
        table = nc.Parameter("table", rng.normal(0, 1, (vocab, width)).astype(np.float32))
        with nc.Tape() as tape:
            reads = [nc.embedding_lookup(table, rng.integers(0, vocab, 300)) for _ in range(3)]
            loss = nc.sum_all(nc.concat(reads))
        tracemalloc.start()
        try:
            tape.backward(loss, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.data.nbytes, peak


class TestBackward:
    def test_record_wraps_outputs_and_records_only_for_gradients(self):
        def backward(gs):
            return gs

        const, param = nc.Tensor(np.ones(2)), nc.Parameter("p", np.ones(2))
        outputs = (np.zeros(2), np.ones(3))
        idle = nc.Tape()  # never entered, so no tape is active
        got = record((param,), outputs, backward)
        assert not idle.nodes and all(t.data is o for t, o in zip(got, outputs))
        assert all(type(t) is nc.Tensor and not t.requires_grad for t in got)
        with nc.Tape() as tape:
            got = record((const,), outputs, backward)
            assert not tape.nodes and not any(t.requires_grad for t in got)
            got = record((const, param), outputs, backward)
            assert len(tape.nodes) == 1 and all(t.requires_grad for t in got)
        node = tape.nodes[0]
        assert node.inputs == (const, param) and node.outputs == got and node.backward is backward

    def test_product_rule(self):
        x = nc.Parameter("x", np.array([3.0]))
        y = nc.Parameter("y", np.array([5.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(x, y))
            tape.backward(loss, ())
        assert x.grad.tolist() == [5.0] and y.grad.tolist() == [3.0]

    def test_softmax_cross_entropy_grad_is_probs_minus_onehot(self):
        rng = np.random.default_rng(2)
        logits = nc.Parameter("l", rng.normal(0, 1, (1, 5)))
        gold = 3
        with nc.Tape() as tape:
            probs = nc.softmax(logits)
            picked = nc.gather_rows(probs, np.array([gold]))
            loss = nc.mul(nc.sum_all(nc.log(picked)), -1.0)
            tape.backward(loss, ())
        expected = nc.softmax(nc.Tensor(logits.data)).data.copy()
        expected[0, gold] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-12)

    def test_concat_backward_splits_at_seam(self):
        a = nc.Parameter("a", np.ones((1, 2)))
        b = nc.Parameter("b", np.ones((1, 3)))
        w = np.arange(5.0).reshape(1, 5)
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(nc.concat([a, b]), w))
            tape.backward(loss, ())
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
                tape.backward(y, ())

    def test_tape_runs_backward_once(self):
        x = nc.Parameter("x", np.array([2.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.mul(x, x))
            tape.backward(loss, ())
            assert len(tape.nodes) == 2 and all(node.backward is None for node in tape.nodes)
            with pytest.raises(RuntimeError):
                tape.backward(loss, ())
        assert x.grad.tolist() == [4.0]

    def test_reused_tensor_accumulates(self):
        x = nc.Parameter("x", np.array([2.0]))
        with nc.Tape() as tape:
            loss = nc.sum_all(nc.add(nc.mul(x, x), nc.mul(x, 3.0)))  # x^2 + 3x
            tape.backward(loss, ())
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
            w = nc.Tensor(nc.xavier_uniform(rng, (8, 8), np.float32))
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
