import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import eacs
from eacs.abstracter import MAX_BEAM_WIDTH, AbstracterModel
from eacs.checkpoint import load_model, save_model
from eacs import cli, gradsuite, metrics
from eacs import numcore as nc
from eacs.cli import build_parser, main
from eacs.config import RunConfig, make_run_config
from eacs.corpus import RESERVED_TOKENS, Vocabulary
from eacs.errors import IoError
from eacs.extractor import ExtractorModel
from eacs.oracle import label_statements

from .oracles import bleu4_brute, meteor_brute, rouge_l_brute


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_usage_line(err: str, prog: str) -> str:
    """The one stderr line of a usage error, ``<prog>: error: <message>``."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{prog}: error: "), err
    return lines[0]


class TestUsage:
    """A usage error exits 2 with one diagnostic line and no usage block."""

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "invalid choice: 'frobnicate'" in one_usage_line(err, "eacs")

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "label", "--lang", "java")
        assert code == 2
        assert "required: --corpus, --out" in one_usage_line(err, "eacs label")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "segment", "--wat")
        assert code == 2
        assert "unrecognized arguments: --wat" in one_usage_line(err, "eacs")

    def test_bad_lang_choice(self, capsys):
        code, _, err = run(capsys, "segment", "--lang", "cobol")
        assert code == 2
        assert "argument --lang: invalid choice: 'cobol'" in one_usage_line(err, "eacs segment")

    def test_non_integer_beam(self, capsys):
        code, _, err = run(capsys, "summarize", "--extractor", "e", "--abstracter", "a", "--beam", "four")
        assert code == 2
        assert "argument --beam: invalid int value: 'four'" in one_usage_line(err, "eacs summarize")

    def test_help_keeps_its_usage(self, capsys):
        code, out, err = run(capsys, "summarize", "--help")
        assert code == 0 and not err
        assert out.startswith("usage: eacs summarize [-h] --extractor EXTRACTOR")


class TestSegment:
    def test_one_statement_per_line(self, capsys, tmp_path):
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1; a++;")
        code, out, _ = run(capsys, "segment", "--lang", "java", "--code", str(src))
        assert code == 0
        assert out.splitlines() == ["int a = 1;", "a++;"]

    def test_empty_snippet_is_a_pipeline_error(self, capsys, tmp_path):
        src = tmp_path / "empty.java"
        src.write_text("   ")
        code, _, err = run(capsys, "segment", "--lang", "java", "--code", str(src))
        assert code == 1
        assert err.strip().startswith("eacs segment:")
        assert len(err.strip().splitlines()) == 1


class TestLabel:
    def test_writes_records(self, capsys, tmp_path, toy_corpus_path):
        out_path = tmp_path / "labels.jsonl"
        code, out, _ = run(
            capsys, "label", "--corpus", toy_corpus_path, "--lang", "java",
            "--out", str(out_path),
        )
        assert code == 0
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(records) == 32
        first = records[0]
        assert set(first) == {"id", "statements", "labels", "trace"}
        assert len(first["labels"]) == len(first["statements"])
        assert sum(first["labels"]) >= 1

    def test_unsegmentable_pair_is_skipped(self, capsys, tmp_path, unsegmentable_corpus_path):
        out_path = tmp_path / "labels.jsonl"
        code, out, _ = run(
            capsys, "label", "--corpus", unsegmentable_corpus_path, "--lang", "java",
            "--out", str(out_path),
        )
        assert code == 0
        # Records 1 (unsegmentable) and 3 (blank code); ids are record indices.
        assert out == f"labeled 32 pair(s), skipped 2, wrote {out_path}\n"
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert [r["id"] for r in records] == [0, 2] + list(range(4, 34))

    def test_blank_lines_are_not_records(self, capsys, tmp_path):
        corpus = tmp_path / "pairs.jsonl"
        record = json.dumps({"code": "int a = 1;", "comment": "set a."})
        corpus.write_text(f"{record}\n\n   \n\t\n{record}\n")
        out_path = tmp_path / "labels.jsonl"
        code, out, _ = run(capsys, "label", "--corpus", str(corpus), "--out", str(out_path))
        assert (code, out) == (0, f"labeled 2 pair(s), skipped 0, wrote {out_path}\n")
        assert [json.loads(l)["id"] for l in out_path.read_text().splitlines()] == [0, 1]

    def test_failed_run_keeps_previous_output(
        self, capsys, tmp_path, toy_corpus_path, monkeypatch
    ):
        out_path = tmp_path / "labels.jsonl"
        out_path.write_bytes(b"previous run\n")
        calls = []

        def fail_on_second(snippet, comment):
            calls.append(1)
            if len(calls) == 2:
                raise IoError("labeling failed")
            return label_statements(snippet, comment)

        monkeypatch.setattr("eacs.cli.label_statements", fail_on_second)
        code, _, err = run(
            capsys, "label", "--corpus", toy_corpus_path, "--lang", "java",
            "--out", str(out_path),
        )
        assert code == 1 and len(err.strip().splitlines()) == 1
        assert out_path.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]


class TestEvaluate:
    def test_same_file_scores_one(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("add two numbers together .\nremove the cached key .\n")
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--out", str(report_path),
        )
        assert code == 0
        record = json.loads(report_path.read_text())
        assert record["means"]["bleu"] == pytest.approx(1.0)
        assert record["means"]["rouge_l"] == pytest.approx(1.0)
        assert "100.00" in out

    def test_compare_adds_significance(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b c d\np q r s\n")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("a b c d\np q r s\n")
        other = tmp_path / "other.txt"
        other.write_text("a b x y\nz z z z\n")
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(hyps),
            "--compare", str(other), "--out", str(report_path),
        )
        assert code == 0
        record = json.loads(report_path.read_text())
        assert set(record["significance"]) == {"bleu", "meteor", "rouge_l"}
        assert "significance" in out

    def test_comment_buckets_in_record(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d e f g h i j k l m n\n")
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--buckets", "comment", "--out", str(report_path),
        )
        assert code == 0
        record = json.loads(report_path.read_text())
        assert any(key.startswith("comment ") for key in record["buckets"])

    def test_code_buckets_need_codes(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\n")
        code, _, err = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--buckets", "code",
        )
        assert code == 2
        assert "codes" in err

    @staticmethod
    def _codes(path, line_counts):
        path.write_text("".join(
            json.dumps({"code": "\n".join(["a++;"] * lines), "comment": "count ."}) + "\n"
            for lines in line_counts
        ))
        return str(path)

    def test_code_buckets_count_snippet_lines(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d\ne f\n")
        codes = self._codes(tmp_path / "codes.jsonl", [3, 12, 4])
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--buckets", "code", "--codes", codes, "--out", str(report_path),
        )
        assert (code, err) == (0, "")
        buckets = json.loads(report_path.read_text())["buckets"]
        assert {k: v["n_samples"] for k, v in buckets.items()} == {"code 1-10": 2, "code 11-20": 1}
        assert "code 11-20" in out

    def test_code_buckets_count_every_record(self, capsys, tmp_path):
        # Blank code and an empty comment fail training's preprocessing, yet
        # each record is still line i of --refs.
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d\ne f\n")
        codes = tmp_path / "codes.jsonl"
        codes.write_text("".join(json.dumps(rec) + "\n" for rec in (
            {"code": "a++;\n" * 12, "comment": "count ."},
            {"code": "  ", "comment": "blank code ."},
            {"code": "a++;", "comment": ""},
        )))
        report_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--buckets", "code", "--codes", str(codes), "--out", str(report_path),
        )
        assert (code, err) == (0, "")
        buckets = json.loads(report_path.read_text())["buckets"]
        assert {k: v["n_samples"] for k, v in buckets.items()} == {"code 1-10": 2, "code 11-20": 1}

    def test_codes_of_another_pair_count_fail(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d\n")
        codes = self._codes(tmp_path / "codes.jsonl", [3, 12, 4])
        code, _, err = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--buckets", "code", "--codes", codes, "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith("eacs evaluate: error:") and len(err.strip().splitlines()) == 1

    def test_degenerate_hypotheses_finish(self, capsys, tmp_path):
        # A 40-fold repeated token and a 22-token exact copy: both hung the
        # old exponential METEOR alignment.
        refs = tmp_path / "refs.txt"
        refs.write_text(
            " ".join(["the"] * 40) + "\n"
            "returns the value of the key in the map or the default value if the key is not in the map .\n"
        )
        report_path = tmp_path / "report.json"
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(refs),
            "--out", str(report_path),
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert "METEOR" in out
        assert json.loads(report_path.read_text())["n_samples"] == 2

    def test_mismatched_files_fail(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d\n")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("a b\n")
        code, _, err = run(capsys, "evaluate", "--refs", str(refs), "--hyps", str(hyps))
        assert code == 1
        assert "eacs evaluate" in err


    def test_blank_reference_line_is_an_error(self, capsys, tmp_path):
        # Dropping the blank line would score "d e f" against "x y".
        refs = tmp_path / "refs.txt"
        refs.write_text("a b c\n\nd e f\ng h\n")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("a b c\nx y\n\ng h\n")
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(hyps),
            "--out", str(report_path),
        )
        assert code == 1 and out == ""
        assert err == f"eacs evaluate: error: {refs}:2: empty reference\n"
        assert not report_path.exists()

    def test_empty_hypothesis_scores_zero(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b c d\np q r s\nx y z w\n")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("a b c d\n\nx y z w\n")
        other = tmp_path / "other.txt"
        other.write_text("\np q r s\n  \n")
        report_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "evaluate", "--refs", str(refs), "--hyps", str(hyps),
            "--compare", str(other), "--out", str(report_path),
        )
        assert code == 0
        record = json.loads(report_path.read_text())
        assert record["n_samples"] == 3
        for name in ("bleu", "meteor", "rouge_l"):
            first, empty, last = record["samples"][name]
            assert empty == 0.0 and first == last > 0.99
        assert set(record["significance"]) == {"bleu", "meteor", "rouge_l"}

    def test_report_bytes_are_pinned(self, capsys, tmp_path):
        # Twelve fixed pairs: an exact copy, an empty hypothesis, repeated
        # tokens, a pair with no overlap, references in three comment buckets.
        # stdout.txt and report.json pin the printed tables and the record file.
        data = os.path.join(os.path.dirname(__file__), "data", "evaluate_golden")
        files = {name: os.path.join(data, f"{name}.txt") for name in ("refs", "hyps", "other")}
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "evaluate", "--refs", files["refs"], "--hyps", files["hyps"],
            "--compare", files["other"], "--buckets", "comment", "--out", str(report_path),
        )
        assert (code, err) == (0, "")
        with open(os.path.join(data, "stdout.txt"), "rb") as fh:
            assert out.encode("utf-8") == fh.read()
        with open(os.path.join(data, "report.json"), "rb") as fh:
            assert report_path.read_bytes() == fh.read()


def _fresh_evaluate(argv, timeout=60):
    """``eacs evaluate`` in a new interpreter: (exit code, stdout, stderr, seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eacs", "evaluate", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _write_lines(path, lines):
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines))
    return str(path)


class TestEvaluateRuns:
    # Two pairs over two tokens. The 40-token one did not finish in 100 s
    # before the METEOR link search had a node budget; the 20-token one also
    # runs out of it, and its exact answer, 13 links, takes 0.1 s to find.
    HARD = [
        ("baabaabbbaaaabaababbaababbaababbbaabbaaa", "aabbaaabbabbbbaaaabababaabbaabaaabbaabaa"),
        ("baaaaabbababbaaabaaa", "babaaabbaabbbbaaaaba"),
    ]

    def test_repetitive_pairs_end_with_bounded_meteor(self, tmp_path, monkeypatch):
        refs = _write_lines(tmp_path / "refs.txt", [r for r, _ in self.HARD])
        hyps = _write_lines(tmp_path / "hyps.txt", [g for _, g in self.HARD])
        report_path = tmp_path / "report.json"
        code, out, err, seconds = _fresh_evaluate(
            ["--refs", refs, "--hyps", hyps, "--out", str(report_path)], timeout=30)
        assert (code, err) == (0, "")
        assert seconds < 2.0
        bounded = json.loads(report_path.read_text())["meteor_bounded"]
        assert [(e["file"], e["index"]) for e in bounded] == [("hyps", 0), ("hyps", 1)]
        low, high = bounded[1]["links"]
        monkeypatch.setattr(metrics, "SEARCH_NODES", 10**7)
        m, chunks, _ = metrics.alignment_stats(*map(list, self.HARD[1]), None)
        assert low <= m - chunks == 13 <= high
        counts = [line for line in out.splitlines() if "lower bound" in line]
        assert counts == [
            "METEOR is a lower bound on 2 pair(s): the alignment search ran out of its budget "
            "(see meteor_bounded)"
        ]

    def test_long_repetitive_pair_spends_the_packing_budget(self, tmp_path):
        # 6,000 tokens over two: listing every common block would take
        # minutes and gigabytes; the packing stops at PACK_STEPS steps.
        rng = np.random.default_rng(6000)
        pair = [["ab"[i] for i in rng.integers(0, 2, 6000)] for _ in range(2)]
        refs = _write_lines(tmp_path / "refs.txt", pair[:1])
        hyps = _write_lines(tmp_path / "hyps.txt", pair[1:])
        report_path = tmp_path / "report.json"
        code, _, err, seconds = _fresh_evaluate(
            ["--refs", refs, "--hyps", hyps, "--out", str(report_path)], timeout=30)
        assert (code, err) == (0, "")
        assert seconds < 2.0
        [entry] = json.loads(report_path.read_text())["meteor_bounded"]
        assert (entry["file"], entry["index"]) == ("hyps", 0)
        assert entry["links"][0] < entry["links"][1]

    def test_runs_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # Reference profiles live for one run. Two runs on different reference
        # files, back to back in this process, must print and write what a
        # fresh process does; the first run's bounded pair must not reach the
        # second. Both runs' short pairs must score as the brute-force oracles.
        first = [  # a duplicate reference, an exact copy, an empty and a one-token hypothesis
            (["a", "b", "c", "a"], ["a", "b", "a"], ["c", "a", "b", "a"]),
            (["a", "b", "c", "a"], ["a", "b", "c", "a"], []),
            (["b"], [], ["b"]),
            (["b"], ["b"], ["a"]),
            (list(self.HARD[1][0]), list(self.HARD[1][1]), ["a"]),
        ]
        second = [
            (["x", "y", "x", "y"], ["y", "x", "y"], ["x", "y", "x", "y"]),
            (["y"], ["x"], ["y"]),
            (["x", "x", "y"], ["x", "y", "x"], ["y", "x"]),
        ]
        runs = []
        for name, triples in (("first", first), ("second", second)):
            files = {
                kind: _write_lines(tmp_path / f"{name}_{kind}.txt", [t[k] for t in triples])
                for k, kind in enumerate(("refs", "hyps", "other"))
            }
            argv = ["--refs", files["refs"], "--hyps", files["hyps"], "--compare", files["other"],
                    "--buckets", "comment"]
            runs.append((triples, argv, tmp_path / f"{name}_in.json", tmp_path / f"{name}_fresh.json"))
        for _, argv, in_path, _ in runs:
            code, out, err = run(capsys, "evaluate", *argv, "--out", str(in_path))
            assert (code, err) == (0, "")
            in_path.with_suffix(".stdout").write_text(out)
        for triples, argv, in_path, fresh_path in runs:
            code, out, err, _ = _fresh_evaluate([*argv, "--out", str(fresh_path)])
            assert (code, err) == (0, "")
            assert in_path.with_suffix(".stdout").read_text() == out
            assert in_path.read_bytes() == fresh_path.read_bytes()
            record = json.loads(in_path.read_text())
            for i, (r, g, _) in enumerate(triples):
                if len(r) > 8:
                    continue
                want = (bleu4_brute(r, g), meteor_brute(r, g), rouge_l_brute(r, g)) if g else (0.0,) * 3
                assert tuple(record["samples"][k][i] for k in metrics.METRICS) == want
        bounded = [json.loads(p.read_text()).get("meteor_bounded") for _, _, p, _ in runs]
        assert bounded == [[{"file": "hyps", "index": 4, "links": [11, 17]}], None]


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_commands_back_to_back_match_standalone_runs(self, capsys, tmp_path):
        # segment defaults to --lang generic and extract to java; a parser
        # shared between calls must not carry one command's values into the next.
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1; a++;\nreturn a;")
        vocab = Vocabulary(list(RESERVED_TOKENS) + ["int", "a", "=", "1", ";"])
        ckpt = str(tmp_path / "ex.ckpt")
        save_model(ExtractorModel(len(vocab), RunConfig(embed_dim=4, hidden_dim=4),
                                  np.random.default_rng(0)), vocab, ckpt)
        commands = [["segment", "--code", str(src)], ["extract", "--ckpt", ckpt, "--code", str(src)]]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
        standalone = [
            subprocess.run([sys.executable, "-m", "eacs", *argv], capture_output=True,
                           text=True, check=True, env=env).stdout
            for argv in commands
        ]
        assert standalone[0] != standalone[1]
        for argv, want in zip(commands + commands, standalone + standalone):
            assert run(capsys, *argv) == (0, want, "")


class TestVerbose:
    def test_logs_the_blas_record_and_keeps_stdout(self, tmp_path):
        # Fresh interpreters, so stderr is what a user sees: -v adds one INFO
        # line, the BLAS record, and without -v stderr stays empty.
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1; a++;")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
        argv = ["segment", "--lang", "java", "--code", str(src)]
        quiet, verbose = (
            subprocess.run([sys.executable, "-m", "eacs", *flags, *argv], capture_output=True,
                           text=True, check=True, env=env)
            for flags in ([], ["-v"])
        )
        assert verbose.stdout == quiet.stdout == "int a = 1;\na++;\n"
        assert quiet.stderr == ""
        record = nc.blas() or "not scipy-openblas"
        assert verbose.stderr.splitlines() == [f"INFO eacs.cli: blas: {record}"]


class TestGradcheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--max-coords", "8")
        assert code == 0
        assert "FAIL" not in out
        assert "extractor_loss" in out and "abstracter_loss" in out

    @pytest.mark.parametrize("coords", ["0", "-3"])
    def test_max_coords_below_one_exits_two_with_one_line(self, capsys, coords):
        # Zero coordinates would compare nothing and pass every check.
        code, out, err = run(capsys, "gradcheck", "--max-coords", coords)
        assert code == 2
        assert out == ""
        assert err.startswith("eacs gradcheck: --max-coords")
        assert len(err.strip().splitlines()) == 1

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(gradsuite, "run_all", lambda _: [gradsuite.CheckResult("matmul", 0.5)])
        code, out, err = run(capsys, "gradcheck")
        assert code == 1
        assert out == "FAIL  matmul             max_rel_err=5.000e-01  tol=0.0001\n"
        assert err == "1 gradient check(s) failed\n"


class TestTrainingFailure:
    def test_non_finite_loss_exits_one_without_checkpoint(self, capsys, tmp_path, toy_corpus_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 1e39\n")
        out_path = tmp_path / "ex.ckpt"
        code, _, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--config", str(cfg),
            "--epochs", "2", "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith("eacs train-extractor: error: epoch 0")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["train-extractor", "train-abstracter"])
    def test_non_finite_loss_is_one_line_and_keeps_out(self, capsys, tmp_path, toy_corpus_path, command):
        flags = ["--corpus", toy_corpus_path, "--epochs", "1"]
        if command == "train-abstracter":
            ex = str(tmp_path / "ex.ckpt")
            assert run(capsys, "train-extractor", *flags, "--out", ex)[0] == 0
            flags += ["--extractor", ex]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = 1e39\n")
        out_path = tmp_path / "previous.ckpt"
        out_path.write_bytes(b"previous checkpoint\n")
        code, out, err = run(capsys, command, *flags, "--config", str(cfg), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"eacs {command}: error: epoch 0, batch 1: loss is nan; lower lr or check the data\n"
        assert out_path.read_bytes() == b"previous checkpoint\n"

    @pytest.mark.parametrize("exc", [
        MemoryError(),
        MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000, 2000)"),
    ])
    def test_memory_error_exits_one_with_one_line(self, capsys, tmp_path, toy_corpus_path,
                                                   monkeypatch, exc):
        # A stand-in for a huge embed_dim: a real request that size could get
        # the test process killed instead of raising.
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "train_extractor", exhausted)
        code, out, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--out", str(tmp_path / "ex.ckpt"),
        )
        assert code == 1 and out == ""
        assert err.startswith("eacs train-extractor: error: out of memory: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestZeroEpochs:
    def test_trainers_save_the_initial_models(self, capsys, tmp_path, toy_corpus_path):
        """With no epoch run there is no best epoch, and each checkpoint holds
        the weights stream 0 of the seed drew."""
        ex, ab = str(tmp_path / "ex.ckpt"), str(tmp_path / "ab.ckpt")
        flags = ["--corpus", toy_corpus_path, "--epochs", "0"]
        assert run(capsys, "train-extractor", *flags, "--out", ex) == (
            0, f"trained extractor on 32 pair(s): best epoch -1, val loss nan, checkpoint {ex}\n", ""
        )
        assert run(capsys, "train-abstracter", *flags, "--extractor", ex, "--out", ab) == (
            0,
            f"trained abstracter (abex) on 32 pair(s): best epoch -1, val loss nan, checkpoint {ab}\n",
            "",
        )
        cfg = make_run_config("desk", None, {"epochs": 0})
        for path, cls in ((ex, ExtractorModel), (ab, AbstracterModel)):
            model, vocab = load_model(path, cls.KIND)
            fresh = cls(len(vocab), cfg, nc.rng_streams(cfg.seed)[0])
            for saved, init in zip(model.parameters(), fresh.parameters(), strict=True):
                assert np.array_equal(saved.data, init.data)


class TestConfigValues:
    @pytest.mark.parametrize("line, key", [
        ("seed = -1", "seed"), ("lr = -1", "lr"), ("lr = nan", "lr"), ("weight_decay = inf", "weight_decay"),
        # One check covers both values and names batch_size first.
        ("batch_size = 0", "batch_size"), ("epochs = -1", "batch_size"),
    ])
    def test_bad_config_value_exits_two_with_one_line(self, capsys, tmp_path, toy_corpus_path, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_path = tmp_path / "ex.ckpt"
        code, out, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--config", str(cfg),
            "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"eacs train-extractor: {key} must be")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_unparsable_value_names_path_and_line(self, capsys, tmp_path, toy_corpus_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# desk run\nepochs = soon\n")
        code, out, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--config", str(cfg),
            "--out", str(tmp_path / "ex.ckpt"),
        )
        assert code == 2 and out == ""
        assert err == f"eacs train-extractor: {cfg}:2: config key epochs: expected an integer, got 'soon'\n"

    @pytest.mark.parametrize("text, message", [
        ("epochs 7\n", "{cfg}:1: expected `key = value`"),
        ("language = cobol\n", "unknown language 'cobol'"),
    ])
    def test_bad_line_or_language_exits_two_with_one_line(
        self, capsys, tmp_path, toy_corpus_path, text, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--config", str(cfg),
            "--out", str(tmp_path / "ex.ckpt"),
        )
        assert (code, out) == (2, "")
        assert err == f"eacs train-extractor: {message.format(cfg=cfg)}\n"

    def test_negative_seed_flag_exits_two_with_one_line(self, capsys, tmp_path, toy_corpus_path):
        code, out, err = run(
            capsys, "train-extractor", "--corpus", toy_corpus_path, "--seed", "-1",
            "--out", str(tmp_path / "ex.ckpt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("eacs train-extractor: seed must be >= 0")
        assert len(err.strip().splitlines()) == 1


@pytest.fixture()
def checkpoints(tmp_path):
    """Tiny untrained extractor and abstracter checkpoints and a one-statement snippet."""
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["int", "a", "=", "1", ";"])
    config = RunConfig(embed_dim=4, hidden_dim=4)
    ex, ab = str(tmp_path / "ex.ckpt"), str(tmp_path / "ab.ckpt")
    save_model(ExtractorModel(len(vocab), config, np.random.default_rng(0)), vocab, ex)
    save_model(AbstracterModel(len(vocab), config, np.random.default_rng(1)), vocab, ab)
    code = tmp_path / "snippet.java"
    code.write_text("int a = 1;")
    return ex, ab, str(code)


class TestSummarize:
    def test_zero_max_len_exits_two_with_one_line(self, capsys, checkpoints):
        ex, ab, code = checkpoints
        argv = ["summarize", "--extractor", ex, "--abstracter", ab, "--code", code]
        assert run(capsys, *argv)[0] == 0
        for flags, name in (
            (("--max-len", "0"), "max_len"),
            (("--beam", "0"), "beam width"),
            (("--beam", "-1"), "beam width"),
            (("--beam", str(MAX_BEAM_WIDTH + 1)), f"beam width must be in [1, {MAX_BEAM_WIDTH}]"),
        ):
            status, out, err = run(capsys, *argv, *flags)
            assert status == 2 and out == ""
            assert err.startswith("eacs summarize: ") and name in err
            assert len(err.strip().splitlines()) == 1

    def test_truncation_notice_is_one_log_line(self, checkpoints, tmp_path):
        # A fresh interpreter, so stderr is what a user sees: no pytest
        # handler takes the record, and no warning filter is set.
        ex, ab, _ = checkpoints
        code = tmp_path / "long.java"
        code.write_text("int a = 1;\n" * 40)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
        proc = subprocess.run([sys.executable, "-m", "eacs", "summarize", "--extractor", ex,
                               "--abstracter", ab, "--code", str(code)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "WARNING eacs.extractor: snippet truncated from 40 to 30 statements"
        ]


class TestNonUtf8:
    @pytest.mark.parametrize("command", ["label", "evaluate-refs", "evaluate-hyps", "config"])
    def test_exits_one_with_one_line(self, capsys, tmp_path, toy_corpus_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b\n\xff c\n")
        good = tmp_path / "good.txt"
        good.write_text("a b\nc d\n")
        argv = {
            "label": ["label", "--corpus", str(bad), "--out", str(tmp_path / "l.jsonl")],
            "evaluate-refs": ["evaluate", "--refs", str(bad), "--hyps", str(good)],
            "evaluate-hyps": ["evaluate", "--refs", str(good), "--hyps", str(bad)],
            "config": ["train-extractor", "--corpus", toy_corpus_path, "--config", str(bad),
                       "--out", str(tmp_path / "ex.ckpt")],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert str(bad) in err


BOM = b"\xef\xbb\xbf"


@pytest.fixture()
def stdin_from(tmp_path):
    """Point fd 0, which ``--code -`` reads, at the given bytes until the test ends."""
    saved = os.dup(0)

    def feed(data: bytes) -> None:
        path = tmp_path / "stdin"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            os.dup2(fh.fileno(), 0)

    yield feed
    os.dup2(saved, 0)
    os.close(saved)


class TestByteOrderMark:
    """Text inputs are UTF-8 with an optional leading BOM: the BOM changes no output."""

    SNIPPET = b"int a = 1;\nint b = a;\n"

    @staticmethod
    def runs(capsys, argv, write, out=None):
        """One run with the plain input and one with it BOM-prefixed: exit
        code, stdout, stderr and the bytes of ``out``, if given."""
        results = []
        for prefix in (b"", BOM):
            write(prefix)
            results.append(run(capsys, *argv) + ((out.read_bytes(),) if out else ()))
        return results

    @pytest.mark.parametrize("command", ["segment", "extract", "summarize"])
    def test_code_file_and_stdin(self, capsys, tmp_path, checkpoints, stdin_from, command):
        ex, ab, _ = checkpoints
        argv = {
            "segment": ["segment", "--lang", "java"],
            "extract": ["extract", "--ckpt", ex],
            "summarize": ["summarize", "--extractor", ex, "--abstracter", ab],
        }[command]
        src = tmp_path / "snippet.java"
        from_file = self.runs(
            capsys, argv + ["--code", str(src)], lambda p: src.write_bytes(p + self.SNIPPET))
        from_stdin = self.runs(
            capsys, argv + ["--code", "-"], lambda p: stdin_from(p + self.SNIPPET))
        assert from_file[0][0] == 0 and from_file[0][1]
        assert from_file + from_stdin == [from_file[0]] * 4

    @pytest.mark.parametrize("flag", ["--refs", "--hyps", "--compare"])
    def test_evaluate_files(self, capsys, tmp_path, flag):
        texts = {
            "--refs": "add two numbers .\nremove the cached key .\n",
            "--hyps": "add the numbers .\nremove a key .\n",
            "--compare": "add numbers .\ncached key .\n",
        }
        paths = {name: tmp_path / f"{name[2:]}.txt" for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text)
        out = tmp_path / "report.json"
        argv = ["evaluate", "--out", str(out)] + [str(x) for kv in paths.items() for x in kv]
        plain = texts[flag].encode()
        results = self.runs(capsys, argv, lambda p: paths[flag].write_bytes(p + plain), out)
        assert results[0][0] == 0 and results[1] == results[0]

    def test_config(self, capsys, tmp_path, toy_corpus_path):
        cfg, ckpt = tmp_path / "run.cfg", tmp_path / "ex.ckpt"
        argv = ["train-extractor", "--corpus", toy_corpus_path, "--config", str(cfg),
                "--out", str(ckpt)]
        text = b"epochs = 1\nembed_dim = 8\nhidden_dim = 8\n"
        results = self.runs(capsys, argv, lambda p: cfg.write_bytes(p + text), ckpt)
        assert results[0][0] == 0 and results[1] == results[0]

    @pytest.mark.parametrize("command", ["label", "train-extractor", "evaluate-codes"])
    def test_corpus(self, capsys, tmp_path, toy_corpus_path, command):
        corpus, out, refs = tmp_path / "pairs.jsonl", tmp_path / "out", tmp_path / "refs.txt"
        refs.write_text("compute the sum .\n" * 32)
        argv = {
            "label": ["label", "--corpus", str(corpus), "--out", str(out)],
            "train-extractor": ["train-extractor", "--corpus", str(corpus), "--epochs", "1",
                                "--out", str(out)],
            "evaluate-codes": ["evaluate", "--refs", str(refs), "--hyps", str(refs),
                               "--buckets", "code", "--codes", str(corpus), "--out", str(out)],
        }[command]
        with open(toy_corpus_path, "rb") as fh:
            plain = fh.read()
        results = self.runs(capsys, argv, lambda p: corpus.write_bytes(p + plain), out)
        assert results[0][0] == 0 and results[1] == results[0]


class TestFailedWrite:
    """A write that fails exits 1 with one stderr line naming ``--out`` as
    given, the same in every run, and leaves no file behind."""

    @pytest.mark.parametrize("target", ["missing/out", "a_directory"])
    @pytest.mark.parametrize("command", ["label", "evaluate", "train-extractor"])
    def test_names_the_out_path(self, capsys, tmp_path, toy_corpus_path, command, target):
        (tmp_path / "a_directory").mkdir()
        refs = tmp_path / "refs.txt"
        refs.write_text("a b c\n")
        out = str(tmp_path / target)
        argv = {
            "label": ["label", "--corpus", toy_corpus_path, "--out", out],
            "evaluate": ["evaluate", "--refs", str(refs), "--hyps", str(refs), "--out", out],
            "train-extractor": ["train-extractor", "--corpus", toy_corpus_path, "--epochs", "1",
                                "--out", out],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        errs = [run(capsys, *argv)[::2] for _ in range(2)]
        assert errs[0] == errs[1]
        code, err = errs[0]
        assert code == 1 and len(err.splitlines()) == 1
        assert err.startswith(f"eacs {command}: error: cannot write {out}: ")
        assert ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestDeepNesting:
    """JSON nested 100,000 deep makes ``json.loads`` raise RecursionError; the
    loaders map it to their format errors: exit 1 and one stderr line."""

    DEEP = "[" * 100_000 + "]" * 100_000

    def test_corpus_line(self, capsys, tmp_path):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text('{"code": "int a;", "comment": "a."}\n{"code": ' + self.DEEP + "}\n")
        code, _, err = run(capsys, "label", "--corpus", str(corpus), "--out", str(tmp_path / "l"))
        assert code == 1
        assert err == f"eacs label: error: {corpus}:2: JSON nested too deeply\n"

    def test_checkpoint_header(self, capsys, tmp_path):
        ckpt = tmp_path / "deep.ckpt"
        ckpt.write_text(self.DEEP + "\n")
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1;")
        code, _, err = run(capsys, "extract", "--ckpt", str(ckpt), "--code", str(src))
        assert code == 1 and len(err.strip().splitlines()) == 1
        assert str(ckpt) in err and "invalid header" in err


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` at every eacs module attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name == "eacs" or name.startswith("eacs."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


class TestOnePreparation:
    """The unsegmentable corpus holds 34 records; segment_pairs skips record 1
    (code ``___``) and record 3 (blank code), and every command counts the 32
    pairs it keeps."""

    def test_train_extractor_tokenizes_each_kept_pair_once(
        self, capsys, tmp_path, monkeypatch, unsegmentable_corpus_path
    ):
        from eacs import corpus, segmenter

        in_segment = []
        comments, code_outside_segment = [], []
        segment, tokenize_code = segmenter.segment, corpus.tokenize_code
        tokenize_comment = corpus.tokenize_comment

        def tracked_segment(*args):
            in_segment.append(True)
            try:
                return segment(*args)
            finally:
                in_segment.pop()

        def tracked_code(text):
            if not in_segment:
                code_outside_segment.append(text)
            return tokenize_code(text)

        def tracked_comment(text):
            comments.append(text)
            return tokenize_comment(text)

        patch_everywhere(monkeypatch, segment, tracked_segment)
        patch_everywhere(monkeypatch, tokenize_code, tracked_code)
        patch_everywhere(monkeypatch, tokenize_comment, tracked_comment)
        out_path = tmp_path / "ex.ckpt"
        code, out, err = run(
            capsys, "train-extractor", "--corpus", unsegmentable_corpus_path,
            "--epochs", "1", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        assert out.startswith("trained extractor on 32 pair(s): ")
        assert len(comments) == 32 and "does nothing." not in comments
        assert code_outside_segment == []
        vocab = load_model(str(out_path), "extractor")[1].token_to_index
        assert "compute" in vocab
        assert "does" not in vocab and "nothing" not in vocab

    def test_train_abstracter_counts_kept_pairs(self, capsys, tmp_path, unsegmentable_corpus_path):
        ex, ab = str(tmp_path / "ex.ckpt"), str(tmp_path / "ab.ckpt")
        flags = ["--corpus", unsegmentable_corpus_path, "--epochs", "1"]
        assert run(capsys, "train-extractor", *flags, "--out", ex)[0] == 0
        code, out, err = run(capsys, "train-abstracter", *flags, "--extractor", ex, "--out", ab)
        assert (code, err) == (0, "")
        assert out.startswith("trained abstracter (abex) on 32 pair(s): ")


class TestInputErrors:
    """A malformed line is ``<path>:<line>: <reason>``; an unreadable file names its path once."""

    def test_corpus_line(self, capsys, tmp_path):
        corpus = tmp_path / "pairs.jsonl"
        for text, reason in [
            ('{"code": "int a;", "comment": "a."}\nnope\n', "2: invalid JSON (Expecting value)"),
            ("[1, 2]\n", "1: record is not an object"),
            ('{"code": 1, "comment": "x"}\n', "1: `code` is not a string"),
        ]:
            corpus.write_text(text)
            code, out, err = run(capsys, "label", "--corpus", str(corpus), "--out", str(tmp_path / "l"))
            assert code == 1 and out == ""
            assert err == f"eacs label: error: {corpus}:{reason}\n"

    @pytest.mark.parametrize("command", ["label", "extract"])
    def test_missing_file(self, capsys, tmp_path, command):
        missing = tmp_path / "missing"
        argv, what = {
            "label": (["label", "--corpus", str(missing), "--out", str(tmp_path / "l")], ""),
            "extract": (["extract", "--ckpt", str(missing), "--code", "-"], "checkpoint "),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"eacs {command}: error: cannot read {what}{missing}: No such file or directory\n"


@pytest.fixture
def allocator_unset():
    """Forget that ``main`` set the allocator, before and after the test, so
    the next ``main`` call makes the real setting again."""
    cli.keep_freed_heap.cache_clear()
    yield
    cli.keep_freed_heap.cache_clear()


class TestAllocator:
    """``main`` sets glibc's mmap and trim thresholds once per process, so
    freed heap pages are reused instead of faulted in again."""

    def test_set_once_per_process(self, capsys, tmp_path, monkeypatch, allocator_unset):
        calls = []
        monkeypatch.setattr(cli, "_glibc_mallopt", lambda: lambda *setting: calls.append(setting))
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1;")
        for _ in range(2):
            assert run(capsys, "segment", "--code", str(src)) == (0, "int a = 1;\n", "")
        assert run(capsys, "frobnicate")[0] == 2
        assert calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_BYTES),
                         (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD_BYTES)]

    def test_no_op_without_glibc(self, capsys, tmp_path, monkeypatch, allocator_unset):
        def no_glibc(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "confstr", no_glibc)
        assert cli._glibc_mallopt() is None
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1;")
        assert run(capsys, "segment", "--code", str(src)) == (0, "int a = 1;\n", "")

    def test_lstm_over_steady_state_takes_no_page_faults(self, capsys, tmp_path):
        resource = pytest.importorskip("resource")
        if cli._glibc_mallopt() is None:
            pytest.skip("the C library has no glibc mallopt")
        from eacs import numcore as nc

        src = tmp_path / "snippet.java"
        src.write_text("int a = 1;")
        assert run(capsys, "segment", "--code", str(src))[0] == 0
        # A desk extractor token batch: 90 statements of up to 30 tokens.
        rng = np.random.default_rng(101)
        lengths = rng.integers(1, 31, 90)
        x, wx, wh = (nc.Parameter(k, rng.normal(0, 0.5, s).astype(np.float32)) for k, s in
                     (("x", (90, 30, 64)), ("wx", (64, 256)), ("wh", (64, 256))))
        b = nc.Parameter("b", np.zeros(256, np.float32))

        def forward_and_backward():
            with nc.Tape() as tape:
                out, _ = nc.lstm_over(x, wx, wh, b, lengths, collect=True)
                tape.backward(nc.sum_all(out), ())

        faults = []
        for _ in range(10):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            forward_and_backward()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        # The first calls grow the heap. Under glibc's defaults every other
        # later call took 1,200-1,500 faults.
        assert sum(faults[4:]) < 50 * len(faults[4:]), faults

    def test_lstm_over_steady_state_survives_training_steps(self, tmp_path):
        # The calls above, with a desk abstracter training step between every
        # six, in a fresh process: the free heap top a step leaves varies with
        # the process's layout. Under an 8 MiB trim threshold glibc trimmed it
        # at some steps, and the next six calls took 1,600-8,100 faults.
        pytest.importorskip("resource")
        if cli._glibc_mallopt() is None:
            pytest.skip("the C library has no glibc mallopt")
        src = tmp_path / "snippet.java"
        src.write_text("int a = 1;")
        script = """
import json, resource, sys
import numpy as np
from eacs import cli
from eacs import numcore as nc
from eacs.abstracter import AbstracterModel, AbstracterSample, abstracter_loss
from eacs.config import RunConfig

assert cli.main(["segment", "--code", sys.argv[1]]) == 0
rng = np.random.default_rng(101)
lengths = rng.integers(1, 31, 90)
x, wx, wh = (nc.Parameter(k, rng.normal(0, 0.5, s).astype(np.float32)) for k, s in
             (("x", (90, 30, 64)), ("wx", (64, 256)), ("wh", (64, 256))))
b = nc.Parameter("b", np.zeros(256, np.float32))
config = RunConfig(seed=101)
init_rng, _, drop_rng = nc.rng_streams(config.seed)
model = AbstracterModel(500, config, init_rng)
params = model.parameters()
optimizer = nc.AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
ids = lambda lo, hi: rng.integers(4, 500, rng.integers(lo, hi))
samples = [AbstracterSample(i, ids(10, 121), ids(3, 31), np.array([2, *ids(3, 29), 3]), [])
           for i in range(config.batch_size)]

def faults_of_calls(calls):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        with nc.Tape() as tape:
            out, _ = nc.lstm_over(x, wx, wh, b, lengths, collect=True)
            tape.backward(nc.sum_all(out), ())
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for _ in range(4):
    faults_of_calls(1)
rounds = []
for _ in range(25):
    optimizer.zero_grad()
    with nc.Tape() as tape:
        tape.backward(abstracter_loss(model, samples, train=True, rng=drop_rng), params)
    optimizer.step()
    rounds.append(faults_of_calls(6))
print(json.dumps(rounds))
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
        done = subprocess.run([sys.executable, "-c", script, str(src)], check=True,
                              capture_output=True, text=True, env=env, timeout=120)
        rounds = json.loads(done.stdout.splitlines()[-1])
        # The first five rounds grow the heap to hold both the step's buffers
        # and the calls'. The bound over six calls is the test above's.
        assert all(faults < 300 for faults in rounds[5:]), rounds

    def test_cli_checkpoint_matches_untouched_allocator(self, toy_corpus_path, tmp_path):
        # Each side runs in a fresh interpreter, so the API side's allocator
        # is certainly untouched; it asserts that main never ran there.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eacs.__file__)))
        flags = {"epochs": 3, "seed": 101}
        through_cli, through_api = tmp_path / "cli.ckpt", tmp_path / "api.ckpt"
        subprocess.run([sys.executable, "-m", "eacs", "train-extractor", "--corpus", toy_corpus_path,
                        "--out", str(through_cli), "--epochs", "3", "--seed", "101"],
                       check=True, capture_output=True, env=env, timeout=120)
        script = (
            "import sys\n"
            "from eacs import cli\n"
            "from eacs.checkpoint import save_model\n"
            "from eacs.config import make_run_config\n"
            "from eacs.corpus import load_corpus\n"
            "from eacs.extractor import train_extractor\n"
            f"result = train_extractor(load_corpus(sys.argv[1]), make_run_config('desk', None, {flags!r}))\n"
            "save_model(result.model, result.vocab, sys.argv[2])\n"
            "assert cli.keep_freed_heap.cache_info().currsize == 0\n"
        )
        subprocess.run([sys.executable, "-c", script, toy_corpus_path, str(through_api)],
                       check=True, capture_output=True, env=env, timeout=120)
        assert through_cli.read_bytes() == through_api.read_bytes()
