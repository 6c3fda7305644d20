import json
import tracemalloc

import numpy as np
import pytest

from eacs import numcore as nc
from eacs.abstracter import AbstracterModel, generate_summary
from eacs.checkpoint import Checkpoint, load_checkpoint, load_model, save_checkpoint, save_model
from eacs.config import RunConfig
from eacs.corpus import RESERVED_TOKENS, Vocabulary
from eacs.errors import CorruptCheckpoint, IoError, VersionError
from eacs.extractor import ExtractorModel


@pytest.fixture()
def vocab():
    return Vocabulary(list(RESERVED_TOKENS) + [f"tok{i}" for i in range(8)])


@pytest.fixture()
def ex_model(vocab):
    config = RunConfig(embed_dim=6, hidden_dim=6)
    return ExtractorModel(len(vocab), config, np.random.default_rng(4))


class TestRoundTrip:
    def test_extractor_arrays_bit_identical(self, tmp_path, vocab, ex_model):
        path = str(tmp_path / "ex.ckpt")
        save_model(ex_model, vocab, path)
        loaded, loaded_vocab = load_model(path, "extractor")
        assert loaded_vocab == vocab
        for orig, new in zip(ex_model.parameters(), loaded.parameters()):
            assert orig.data.astype("<f4").tobytes() == new.data.astype("<f4").tobytes()

    def test_save_load_save_bytes_identical(self, tmp_path, vocab, ex_model):
        one = tmp_path / "a.ckpt"
        two = tmp_path / "b.ckpt"
        save_model(ex_model, vocab, str(one))
        save_checkpoint(load_checkpoint(str(one)), str(two))
        assert one.read_bytes() == two.read_bytes()

    def test_abstracter_roundtrip_fusion_preserved(self, tmp_path, vocab):
        config = RunConfig(embed_dim=6, hidden_dim=6, fusion="exab")
        model = AbstracterModel(len(vocab), config, np.random.default_rng(2))
        path = str(tmp_path / "ab.ckpt")
        save_model(model, vocab, path)
        loaded, _ = load_model(path, "abstracter")
        assert loaded.config.fusion == "exab"
        sample = np.array([4, 5, 6])
        assert np.allclose(
            loaded.encode_abstractive(sample).data, model.encode_abstractive(sample).data
        )

    def test_loaded_predictions_match(self, tmp_path, vocab, ex_model):
        path = str(tmp_path / "ex.ckpt")
        save_model(ex_model, vocab, path)
        loaded, _ = load_model(path, "extractor")
        ids = [np.array([4, 5]), np.array([6])]
        assert np.allclose(
            ex_model.classify_statements(ex_model.encode_batch([ids])[0]).data,
            loaded.classify_statements(loaded.encode_batch([ids])[0]).data,
        )


    def test_load_draws_no_initial_weights(self, tmp_path, vocab, ex_model, monkeypatch):
        config = RunConfig(embed_dim=6, hidden_dim=6)
        ab_model = AbstracterModel(len(vocab), config, np.random.default_rng(5))
        paths = {"extractor": str(tmp_path / "ex.ckpt"), "abstracter": str(tmp_path / "ab.ckpt")}
        save_model(ex_model, vocab, paths["extractor"])
        save_model(ab_model, vocab, paths["abstracter"])

        def forbidden(*args, **kwargs):
            raise AssertionError("load_model drew initial weights it would discard")

        monkeypatch.setattr(nc, "xavier_uniform", forbidden)
        for (kind, path), model in zip(paths.items(), (ex_model, ab_model)):
            loaded, _ = load_model(path, kind)
            for a, b in zip(model.parameters(), loaded.parameters()):
                assert a.name == b.name and a.data.tobytes() == b.data.tobytes()

    def test_header_with_retired_keys_loads_the_same(self, tmp_path, vocab, ex_model):
        # Earlier headers also carried share_embeddings and max_statement_tokens,
        # which every run set to true and 30.
        config = RunConfig(embed_dim=6, hidden_dim=6)
        ab_model = AbstracterModel(len(vocab), config, np.random.default_rng(2))
        paths = {}
        for model in (ex_model, ab_model):
            path = tmp_path / f"{model.KIND}.ckpt"
            save_model(model, vocab, str(path))
            header, params = path.read_bytes().split(b"\n", 1)
            doc = json.loads(header)
            doc["hyperparameters"]["max_statement_tokens"] = 30
            if model.KIND == "abstracter":
                doc["hyperparameters"]["share_embeddings"] = True
            old = tmp_path / f"old_{model.KIND}.ckpt"
            old.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                            + b"\n" + params)
            paths[model.KIND] = (path, old)
            loaded, _ = load_model(str(old), model.KIND)
            resaved = tmp_path / f"resaved_{model.KIND}.ckpt"
            save_model(loaded, vocab, str(resaved))
            assert resaved.read_bytes() == path.read_bytes()
        code = "int a = 1; tok4 tok5 = tok6; return tok7;"
        summaries = []
        for which in (0, 1):
            ex, _ = load_model(str(paths["extractor"][which]), "extractor")
            ab, _ = load_model(str(paths["abstracter"][which]), "abstracter")
            summaries.append([generate_summary(code, ex, vocab, ab, vocab, beam_width=width)
                              for width in (1, 4)])
        assert summaries[0] == summaries[1]


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "w.ckpt"
        weights = np.arange(6, dtype=np.float32).reshape(2, 3)
        save_checkpoint(Checkpoint("extractor", {}, None, [], [("w", weights)]), str(path))
        before = path.read_bytes()
        bad = Checkpoint("extractor", {}, None, [], [("bad name", weights)])
        with pytest.raises(ValueError):
            save_checkpoint(bad, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.ckpt"]


class TestCorruption:
    def test_version_mismatch(self, tmp_path, vocab, ex_model):
        path = tmp_path / "ex.ckpt"
        save_model(ex_model, vocab, str(path))
        blob = path.read_bytes()
        header, rest = blob.split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 99
        tampered = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + rest
        path.write_bytes(tampered)
        with pytest.raises(VersionError):
            load_checkpoint(str(path))

    def test_truncated_mid_array(self, tmp_path, vocab, ex_model):
        path = tmp_path / "ex.ckpt"
        save_model(ex_model, vocab, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))

    def test_wrong_kind(self, tmp_path, vocab, ex_model):
        path = str(tmp_path / "ex.ckpt")
        save_model(ex_model, vocab, path)
        with pytest.raises(CorruptCheckpoint):
            load_model(path, "abstracter")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.ckpt"
        header = {
            "format_version": 1, "kind": "mystery", "hyperparameters": {},
            "fusion_order": None, "vocabulary": [],
        }
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(path))


def _edit_header(**changes):
    def edit(header, params):
        hp = header["hyperparameters"]
        for key, value in changes.items():
            if key == "hyperparameters":
                header[key] = value
            elif value is None:
                del hp[key]
            else:
                hp[key] = value
        return header, params

    return edit


def _edit_first_param_line(line):
    def edit(header, params):
        return header, line + b"\n" + params.split(b"\n", 1)[1]

    return edit


def _swap_eos_with_next_token(header, params):
    tokens = header["vocabulary"]
    tokens[3], tokens[4] = tokens[4], tokens[3]
    return header, params


def _edit_first_value(value):
    def edit(header, params):
        line, values = params.split(b"\n", 1)
        return header, line + b"\n" + np.array([value], dtype="<f4").tobytes() + values[4:]

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _edit_header(embed_dim=None),
        _edit_header(hidden_dim="big"),
        _edit_header(embed_dim=-3),
        _edit_header(hyperparameters="x"),
        _edit_first_param_line(b"embedding -5 64"),
        _edit_first_param_line(b"embedding 99999999999999999999 64"),
        _edit_header(hidden_dim=1000),
        _edit_first_value(np.nan),
        _edit_first_value(-np.inf),
        _edit_header(embed_dim=True),
        _edit_header(dropout=True),
        _swap_eos_with_next_token,
    ],
    ids=["missing-embed-dim", "string-dim", "negative-dim", "hyperparameters-not-object",
         "negative-shape", "huge-shape", "width-disagrees-with-arrays", "nan-value",
         "infinite-value", "bool-int", "bool-float", "reserved-tokens-reordered"],
)
def test_corrupt_header_exits_one_line(tmp_path, capsys, vocab, ex_model, edit):
    from eacs.cli import main

    path = tmp_path / "ex.ckpt"
    save_model(ex_model, vocab, str(path))
    header, params = path.read_bytes().split(b"\n", 1)
    header, params = edit(json.loads(header), params)
    path.write_bytes(json.dumps(header).encode() + b"\n" + params)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptCheckpoint):
            load_model(str(path), "extractor")
        # Rejected before a model of the header's width is allocated.
        assert tracemalloc.get_traced_memory()[1] < 8 * 2**20
    finally:
        tracemalloc.stop()
    code_path = tmp_path / "snippet.java"
    code_path.write_text("int a = 1; return a;")
    assert main(["extract", "--ckpt", str(path), "--code", str(code_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("eacs extract: error:") and len(err.strip().splitlines()) == 1
