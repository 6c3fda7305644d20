import json

import pytest

from eacs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "label", "--lang", "java")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "segment", "--wat")
        assert code == 2


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

    def test_mismatched_files_fail(self, capsys, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\nc d\n")
        hyps = tmp_path / "hyps.txt"
        hyps.write_text("a b\n")
        code, _, err = run(capsys, "evaluate", "--refs", str(refs), "--hyps", str(hyps))
        assert code == 1
        assert "eacs evaluate" in err


class TestGradcheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--max-coords", "8")
        assert code == 0
        assert "FAIL" not in out
        assert "extractor_loss" in out and "abstracter_loss" in out


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
