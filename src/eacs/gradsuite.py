"""Finite-difference suites over every op and both full model losses.

Shared by the ``gradcheck`` CLI command and the acceptance tests. All checks
run in float64 with central differences at eps=1e-5 against a 1e-4 relative
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numcore as nc
from .abstracter import AbstracterModel, AbstracterSample, abstracter_loss
from .config import RunConfig
from .corpus import BOS, EOS
from .extractor import ExtractorModel, ExtractorSample, extractor_batch_loss

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def _param(rng, shape):
    return nc.Parameter("p", rng.normal(0.0, 0.6, shape))


def op_checks() -> list[tuple[str, Callable[[], nc.Tensor], list[nc.Parameter]]]:
    rng = np.random.default_rng(0)
    a = _param(rng, (3, 4))
    b = _param(rng, (3, 4))
    w = _param(rng, (4, 5))
    bias = _param(rng, (5,))
    table = _param(rng, (7, 3))
    ids = np.array([2, 5, 2, 0])
    pick = np.array([1, 0, 2, 1])
    x = _param(rng, (2, 3))
    h0 = _param(rng, (2, 4))
    c0 = _param(rng, (2, 4))
    wx = _param(rng, (3, 16))
    wh = _param(rng, (4, 16))
    lb = _param(rng, (16,))
    seqs = _param(rng, (3, 5, 3))
    lengths = np.array([5, 2, 4])  # ragged: two sequences carry their state past their end
    s_h0 = _param(rng, (3, 4))
    s_c0 = _param(rng, (3, 4))
    step_weights = rng.normal(0.0, 1.0, (3, 5, 4))
    seq_args = (seqs, wx, wh, lb, lengths, s_h0, s_c0)
    sm_const = rng.normal(0.0, 1.0, (3, 5))
    flat_const = rng.normal(0.0, 1.0, (2, 6))

    keep = nc.keep_mask(np.random.default_rng(11), a.shape, 0.4, a.dtype)

    def lstm_over_loss():
        states, _ = nc.lstm_over(*seq_args, collect=True)
        h, c = nc.lstm_over(*seq_args)
        # c enters the loss, so the final cell state's gradient is checked too.
        return nc.add(nc.mean_all(nc.mul(states, step_weights)), nc.mean_all(nc.mul(h, c)))

    return [
        ("add", lambda: nc.mean_all(nc.add(a, b)), [a, b]),
        ("add_bias", lambda: nc.mean_all(nc.add(nc.matmul(a, w), bias)), [a, w, bias]),
        ("sub", lambda: nc.mean_all(nc.mul(nc.sub(a, b), nc.sub(a, b))), [a, b]),
        ("mul", lambda: nc.mean_all(nc.mul(a, b)), [a, b]),
        ("scalar_ops", lambda: nc.mean_all(nc.sub(1.0, nc.mul(a, 0.7))), [a]),
        ("matmul", lambda: nc.mean_all(nc.matmul(a, w)), [a, w]),
        ("concat", lambda: nc.mean_all(nc.mul(nc.concat([a, b]), nc.concat([b, a]))), [a, b]),
        ("slice_axis", lambda: nc.mean_all(nc.slice_axis(nc.mul(a, b), 1, 3)), [a, b]),
        ("tanh", lambda: nc.mean_all(nc.tanh(nc.matmul(a, w))), [a, w]),
        ("sigmoid", lambda: nc.mean_all(nc.sigmoid(nc.matmul(a, w))), [a, w]),
        ("log", lambda: nc.mean_all(nc.log(nc.add(nc.mul(a, a), 0.5))), [a]),
        ("clip", lambda: nc.mean_all(nc.clip(a, -0.4, 0.4)), [a]),
        ("softmax", lambda: nc.mean_all(nc.mul(nc.softmax(nc.matmul(a, w)), sm_const)), [a, w]),
        ("sum_all", lambda: nc.sum_all(nc.mul(a, b)), [a, b]),
        ("mean_all", lambda: nc.mean_all(nc.tanh(a)), [a]),
        ("embedding_lookup", lambda: nc.mean_all(nc.tanh(nc.embedding_lookup(table, ids))), [table]),
        (
            "gather_rows",
            lambda: nc.mean_all(nc.log(nc.gather_rows(nc.softmax(nc.embedding_lookup(table, ids)), pick))),
            [table],
        ),
        ("dropout", lambda: nc.mean_all(nc.dropout(nc.mul(a, a), keep)), [a]),
        (
            "reshape",
            lambda: nc.mean_all(nc.mul(nc.reshape(nc.mul(a, b), (2, 6)), flat_const)),
            [a, b],
        ),
        (
            "lstm_cell",
            lambda: nc.mean_all(nc.mul(*nc.lstm_cell(x, h0, c0, wx, wh, lb))),
            [x, h0, c0, wx, wh, lb],
        ),
        ("lstm_over", lstm_over_loss, [seqs, wx, wh, lb, s_h0, s_c0]),
    ]


def extractor_loss_check() -> tuple[str, Callable[[], nc.Tensor], list[nc.Parameter]]:
    rng = np.random.default_rng(1)
    config = RunConfig(embed_dim=4, hidden_dim=4, dropout=0.0)
    model = ExtractorModel(12, config, rng, dtype=np.float64)
    # Two snippets of different statement counts and statement lengths.
    samples = [
        ExtractorSample(0, [np.array([1, 5, 7]), np.array([4, 9])], np.array([1, 0])),
        ExtractorSample(
            1, [np.array([8]), np.array([2, 3, 6, 5]), np.array([11, 4])], np.array([0, 0, 1])
        ),
    ]

    def loss_fn():
        return extractor_batch_loss(model, samples)

    return "extractor_loss", loss_fn, model.parameters()


def abstracter_loss_check() -> tuple[str, Callable[[], nc.Tensor], list[nc.Parameter]]:
    rng = np.random.default_rng(2)
    config = RunConfig(embed_dim=4, hidden_dim=4, dropout=0.0)
    model = AbstracterModel(8, config, rng, dtype=np.float64)
    # Two samples whose encoder inputs and comments differ in length.
    samples = [
        AbstracterSample(
            pair_id=0,
            code_ids=np.array([4, 5, 6, 7]),
            important_ids=np.array([5, 6]),
            comment_ids=np.array([BOS, 4, 6, 5, EOS]),
            comment_tokens=["three", "token", "pair"],
        ),
        AbstracterSample(
            pair_id=1,
            code_ids=np.array([7, 4]),
            important_ids=np.array([6, 5, 7]),
            comment_ids=np.array([BOS, 7, EOS]),
            comment_tokens=["one"],
        ),
    ]

    def loss_fn():
        return abstracter_loss(model, samples)

    return "abstracter_loss", loss_fn, model.parameters()


def run_all(max_coords: int = 48) -> list[CheckResult]:
    checks = op_checks() + [extractor_loss_check(), abstracter_loss_check()]
    results = []
    for name, loss_fn, params in checks:
        err = nc.finite_difference_check(loss_fn, params, max_coords_per_tensor=max_coords)
        results.append(CheckResult(name=name, max_rel_error=err))
    return results
