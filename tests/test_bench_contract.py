"""What the benchmark under perfbench/ reads from eacs.

The benchmark wraps eacs from outside, so a renamed function, a changed log
record or a changed constructor breaks it without breaking any other test.
These tests import perfbench modules and change no file there.
"""

import logging
import os
import sys

import numpy as np
import pytest

from eacs import _kernels, cli
from eacs import numcore as nc
from eacs.abstracter import AbstracterConfig, AbstracterModel, AbstracterSample, abstracter_loss
from eacs.checkpoint import load_checkpoint, save_checkpoint
from eacs.corpus import BOS, EOS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("tracing", "gen"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing

    return tracing


def test_tracer_wraps_existing_names_and_restores(tracing):
    original = cli.main
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert cli.main is not original
    finally:
        tracer.restore()
    assert cli.main is original


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _epoch_records(argv):
    logger = logging.getLogger("eacs.extractor")
    handler = _Records()
    level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(handler)
    try:
        assert cli.main(argv) == 0
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.records


def test_two_epochs_log_two_records_per_model(tmp_path, toy_corpus_path, capsys):
    ex_ckpt, ab_ckpt = str(tmp_path / "ex.ckpt"), str(tmp_path / "ab.ckpt")
    common = ["--corpus", toy_corpus_path, "--lang", "java", "--epochs", "2"]
    for argv in (
        ["train-extractor", *common, "--out", ex_ckpt],
        ["train-abstracter", *common, "--extractor", ex_ckpt, "--out", ab_ckpt],
    ):
        records = _epoch_records(argv)
        assert len(records) == 2
        for epoch, record in enumerate(records):
            assert record.msg.startswith("epoch ")
            number, train, val = record.args
            assert number == epoch and isinstance(train, float) and isinstance(val, float)
    capsys.readouterr()
    # The benchmark's re-save check: load_checkpoint, then save_checkpoint.
    resaved = tmp_path / "resaved.ckpt"
    for path in (ex_ckpt, ab_ckpt):
        ckpt = load_checkpoint(path)
        assert ckpt.vocabulary
        save_checkpoint(ckpt, str(resaved))
        assert resaved.read_bytes() == open(path, "rb").read()


def test_wide_step_construction():
    config = AbstracterConfig(embed_dim=8, hidden_dim=8, lr=3e-4, dropout=0.1, seed=1)
    init_rng, _, drop_rng = nc.rng_streams(config.seed)
    model = AbstracterModel(20, config, init_rng)
    optimizer = nc.AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    sample = AbstracterSample(
        pair_id=0,
        code_ids=np.array([4, 5, 6]),
        important_ids=np.array([5]),
        comment_ids=np.array([BOS, 7, 8, EOS]),
        comment_tokens=[],
    )
    optimizer.zero_grad()
    with nc.Tape() as tape:
        loss = abstracter_loss(model, [sample], train=True, rng=drop_rng)
        tape.backward(loss, params=model.parameters())
    optimizer.step()
    assert np.isfinite(abstracter_loss(model, [sample]).item())
    assert isinstance(_kernels.USING_NUMBA, bool)
