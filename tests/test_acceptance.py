"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Everything runs offline.
"""

import contextlib
import json
import math
import sys
import time

import numpy as np
import pytest

from eacs import metrics as M
from eacs import numcore as nc
from eacs._kernels import lcs_len_ids
from eacs.abstracter import build_abstracter_dataset, fuse, generate_summary
from eacs.cli import main
from eacs.corpus import tokenize_comment
from eacs.checkpoint import load_checkpoint, save_checkpoint
from eacs.extractor import build_extractor_dataset, extractor_loss, label_accuracy
from eacs.gradsuite import TOLERANCE, run_all
from eacs.oracle import label_statements
from eacs.segmenter import SegmentedSnippet, Statement

from .conftest import TOY_ABSTRACTER_CONFIG, TOY_EXTRACTOR_CONFIG
from .oracles import (
    bleu4_brute,
    greedy_labels_brute,
    lcs_brute,
    meteor_brute,
    ngram_stats_brute,
    rouge_l_brute,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric-oracle-equivalence"):
        rng = np.random.default_rng(20240501)
        vocab = list("abcdefghij")
        start = time.time()
        for _ in range(1000):
            r = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 16))]
            g = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 16))]
            assert lcs_len_ids(r, g, None) == lcs_brute(r, g)
            for n in (1, 2, 3, 4):
                assert M.profile_reference(r).ngram_stats(g)[n - 1] == ngram_stats_brute(r, g, n)
            assert M.bleu4(r, g) == pytest.approx(bleu4_brute(r, g), abs=1e-9)
            assert M.rouge_l(r, g) == pytest.approx(rouge_l_brute(r, g), abs=1e-9)
            assert M.meteor(r, g) == pytest.approx(meteor_brute(r, g), abs=1e-9)
        assert time.time() - start < 30.0


def test_criterion_2_metric_anchor_values():
    with criterion(2, "metric-anchor-values"):
        r = ["remove", "the", "cached", "key"]
        assert M.rouge_l(r, r) == 1.0
        assert M.rouge_l(["a", "b"], ["c", "d"]) == 0.0
        assert M.bleu4(list("abcd"), list("ab")) == pytest.approx(math.exp(-1.0), abs=1e-12)
        got = M.meteor(["add", "two", "numbers"], ["add", "two", "numbers"])
        assert got == pytest.approx(1.0 - 0.5 / 27.0, abs=1e-9)


def _random_snippet(rng, force_disjoint: bool):
    stmt_vocab = [f"s{i}" for i in range(10)]
    comment_vocab = [f"c{i}" for i in range(8)] if force_disjoint else stmt_vocab
    n = int(rng.integers(1, 9))
    stmts = [
        [stmt_vocab[i] for i in rng.integers(0, len(stmt_vocab), size=rng.integers(1, 7))]
        for _ in range(n)
    ]
    comment = [
        comment_vocab[i]
        for i in rng.integers(0, len(comment_vocab), size=rng.integers(1, 9))
    ]
    statements = tuple(
        Statement(text=" ".join(t), tokens=tuple(t)) for t in stmts
    )
    snippet = SegmentedSnippet(
        statements=statements,
        full_tokens=tuple(tok for t in stmts for tok in t),
    )
    return snippet, stmts, comment


def test_criterion_3_oracle_labeling():
    with criterion(3, "oracle-labeling"):
        rng = np.random.default_rng(7)
        start = time.time()
        fallbacks = 0
        for case in range(200):
            force_disjoint = case % 10 == 0
            snippet, stmts, comment = _random_snippet(rng, force_disjoint)
            labeled = label_statements(snippet, comment)
            infos = [t.informativity for t in labeled.trace]
            assert all(b > a for a, b in zip(infos, infos[1:]))
            labels, trace = greedy_labels_brute(stmts, comment)
            assert list(labeled.labels) == labels
            assert [(t.index, t.informativity) for t in labeled.trace] == pytest.approx(trace)
            if force_disjoint:
                fallbacks += 1
                assert sum(labeled.labels) == 1
                assert labeled.trace[0].informativity == 0.0
        assert fallbacks == 20
        assert time.time() - start < 30.0


def test_criterion_4_gradient_verification():
    with criterion(4, "gradient-verification"):
        start = time.time()
        results = run_all(max_coords=48)
        names = {r.name for r in results}
        assert {"lstm_cell", "extractor_loss", "abstracter_loss"} <= names
        for r in results:
            assert r.max_rel_error <= TOLERANCE, f"{r.name}: {r.max_rel_error}"
        assert time.time() - start < 120.0


def test_criterion_5_overfit_capability(overfit_run, toy_corpus, toy_prepared):
    with criterion(5, "overfit-capability"):
        assert TOY_EXTRACTOR_CONFIG.epochs <= 300
        assert TOY_ABSTRACTER_CONFIG.epochs <= 300
        assert overfit_run.extractor_seconds < 600.0
        assert overfit_run.abstracter_seconds < 600.0

        ex = overfit_run.extractor
        assert len(ex.vocab) <= 200
        samples = build_extractor_dataset(toy_prepared, ex.vocab, ex.model.config)
        assert label_accuracy(ex.model, samples) == 1.0

        ab = overfit_run.abstracter
        ab_samples = build_abstracter_dataset(toy_prepared, ex.vocab, ex.model, ab.model.config)
        exact = 0
        for pair, s in zip(toy_corpus, ab_samples):
            out = generate_summary(
                pair.code, ex.model, ex.vocab, ab.model, ab.vocab, "java", max_len=20, beam_width=1
            )
            exact += out.tokens == ex.vocab.decode(s.comment_ids)
        assert exact / len(ab_samples) >= 0.90


def _run_cli(argv):
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


def test_criterion_6_fusion_ablation_harness(tmp_path, toy_corpus_path, toy_corpus, capsys):
    with criterion(6, "fusion-ablation-harness"):
        ex_ckpt = str(tmp_path / "ex.ckpt")
        _run_cli([
            "train-extractor", "--corpus", toy_corpus_path, "--lang", "java",
            "--epochs", "5", "--out", ex_ckpt,
        ])
        records = {}
        for order in ("abex", "exab"):
            ab_ckpt = str(tmp_path / f"ab_{order}.ckpt")
            _run_cli([
                "train-abstracter", "--corpus", toy_corpus_path, "--lang", "java",
                "--extractor", ex_ckpt, "--fusion", order, "--epochs", "5",
                "--out", ab_ckpt,
            ])
            assert load_checkpoint(ab_ckpt).fusion_order == order
            hyp_path = tmp_path / f"hyps_{order}.txt"
            ref_path = tmp_path / f"refs_{order}.txt"
            with open(hyp_path, "w") as hyp_fh, open(ref_path, "w") as ref_fh:
                for pair in list(toy_corpus)[:6]:
                    code_path = tmp_path / "snippet.java"
                    code_path.write_text(pair.code)
                    _run_cli([
                        "summarize", "--extractor", ex_ckpt, "--abstracter", ab_ckpt,
                        "--lang", "java", "--code", str(code_path),
                    ])
                    summary = capsys.readouterr().out.strip().splitlines()[-1]
                    hyp_fh.write((summary or "<empty>") + "\n")
                    ref_fh.write(" ".join(tokenize_comment(pair.comment)) + "\n")
            report_path = tmp_path / f"report_{order}.json"
            _run_cli([
                "evaluate", "--refs", str(ref_path), "--hyps", str(hyp_path),
                "--out", str(report_path),
            ])
            capsys.readouterr()
            records[order] = json.loads(report_path.read_text())
        assert records["abex"].keys() == records["exab"].keys()
        assert records["abex"]["n_samples"] == records["exab"]["n_samples"]
        # No claim about which order scores higher: block-swap identity only.
        rng = np.random.default_rng(0)
        a = nc.Tensor(rng.normal(size=(1, 5)))
        b = nc.Tensor(rng.normal(size=(1, 5)))
        exab = fuse(a, b, "exab").data
        abex = fuse(a, b, "abex").data
        assert np.array_equal(exab[:, :5], abex[:, 5:])
        assert np.array_equal(exab[:, 5:], abex[:, :5])


def test_criterion_7_statistics():
    with criterion(7, "statistics"):
        res = M.mann_whitney_u_test([1, 2, 3], [4, 5, 6])
        assert res.method == "exact"
        assert res.p_value == pytest.approx(0.1, abs=1e-12)

        rng = np.random.default_rng(2024)
        for _ in range(100):
            xs = list(rng.normal(0.0, 1.0, 10))
            ys = list(rng.normal(rng.uniform(0, 1.2), 1.0, 10))
            exact = M.mann_whitney_u_test(xs, ys, method="exact")
            approx = M.mann_whitney_u_test(xs, ys, method="normal-approx")
            assert abs(exact.p_value - approx.p_value) <= 0.02

        assert M.significance_band(0.05) == "ns"
        assert M.significance_band(0.049) == "*"
        assert M.significance_band(0.011) == "*"
        assert M.significance_band(0.01) == "**"
        assert M.significance_band(0.0009) == "***"
        assert M.significance_band(0.00009) == "****"


def test_criterion_8_determinism_and_persistence(tmp_path, toy_corpus_path, toy_corpus, capsys):
    with criterion(8, "determinism-and-persistence"):
        snippets = [p.code for p in list(toy_corpus)[:4]]
        outputs = {}
        for run in ("one", "two"):
            ex_ckpt = tmp_path / f"ex_{run}.ckpt"
            ab_ckpt = tmp_path / f"ab_{run}.ckpt"
            _run_cli([
                "train-extractor", "--corpus", toy_corpus_path, "--lang", "java",
                "--epochs", "6", "--seed", "21", "--out", str(ex_ckpt),
            ])
            _run_cli([
                "train-abstracter", "--corpus", toy_corpus_path, "--lang", "java",
                "--extractor", str(ex_ckpt), "--epochs", "6", "--seed", "21",
                "--out", str(ab_ckpt),
            ])
            capsys.readouterr()
            summaries = []
            for i, code_text in enumerate(snippets):
                src = tmp_path / f"snippet_{i}.java"
                src.write_text(code_text)
                _run_cli([
                    "summarize", "--extractor", str(ex_ckpt), "--abstracter", str(ab_ckpt),
                    "--lang", "java", "--code", str(src),
                ])
                summaries.append(capsys.readouterr().out)
            outputs[run] = (ex_ckpt.read_bytes(), ab_ckpt.read_bytes(), summaries)
        assert outputs["one"][0] == outputs["two"][0], "extractor checkpoints differ"
        assert outputs["one"][1] == outputs["two"][1], "abstracter checkpoints differ"
        assert outputs["one"][2] == outputs["two"][2], "summaries differ"

        # save -> load -> save byte identity
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(load_checkpoint(str(tmp_path / "ex_one.ckpt")), str(resaved))
        assert resaved.read_bytes() == outputs["one"][0]


def test_criterion_9_loss_anchors():
    with criterion(9, "loss-anchors"):
        probs = nc.Tensor(np.full((6, 2), 0.5))
        gold = np.array([1, 0, 1, 1, 0, 0])
        assert extractor_loss(probs, gold, np.full(6, 1 / 6)).item() == pytest.approx(
            math.log(2.0), abs=1e-6
        )

        from eacs.abstracter import AbstracterConfig, AbstracterModel, AbstracterSample, abstracter_loss
        from eacs.corpus import BOS, EOS

        vocab_size = 64
        model = AbstracterModel(
            vocab_size,
            AbstracterConfig(embed_dim=8, hidden_dim=8, dropout=0.0),
            np.random.default_rng(0),
        )
        for p in model.parameters():
            p.data[:] = 0.0
        sample = AbstracterSample(
            pair_id=0,
            code_ids=np.array([4, 5, 6]),
            important_ids=np.array([5]),
            comment_ids=np.array([BOS, 7, 8, 9, EOS]),
            comment_tokens=["x", "y", "z"],
        )
        loss = abstracter_loss(model, [sample]).item()
        assert loss == pytest.approx(math.log(vocab_size), abs=1e-6)
