import ast
import pathlib
from dataclasses import fields

import pytest

import eacs
from eacs.config import RunConfig, make_run_config, parse_config_file
from eacs.errors import UsageError

# Defaulted parameters in src/eacs, plus RunConfig fields, plus environment
# variable reads. A new knob, or one removed, is a deliberate edit here.
SETTABLE_VALUES = 31


class TestPresets:
    def test_desk_defaults(self):
        cfg = make_run_config("desk", None, {})
        assert cfg.embed_dim == 64 and cfg.hidden_dim == 64

    def test_full_preset_matches_published_setup(self):
        cfg = make_run_config("full", None, {})
        assert cfg.embed_dim == 512
        assert cfg.hidden_dim == 512
        assert cfg.batch_size == 32
        assert cfg.lr == pytest.approx(3e-4)
        assert cfg.dropout == pytest.approx(0.1)

    def test_unknown_preset(self):
        with pytest.raises(UsageError):
            make_run_config("huge", None, {})


class TestConfigFile:
    def test_parse_and_layering(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\nlr = 0.01  # fast\nfusion = exab\n")
        cfg = make_run_config("desk", str(path), {})
        assert cfg.epochs == 7 and cfg.lr == 0.01 and cfg.fusion == "exab"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(UsageError):
            parse_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(UsageError):
            parse_config_file(str(path))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\n")
        cfg = make_run_config("desk", str(path), {"epochs": 3})
        assert cfg.epochs == 3

    @pytest.mark.parametrize("key", ["share_embeddings", "max_statement_tokens"])
    def test_removed_keys_rejected(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 30\n")
        with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
            make_run_config("desk", str(path), {})


class TestEnvironment:
    def test_environment_sets_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EACS_SEED", "99")
        path = tmp_path / "run.cfg"
        path.write_text("seed = 4\n")
        assert make_run_config("desk", str(path), {}).seed == 4
        assert make_run_config("desk", None, {"seed": 7}).seed == 7


class TestValidation:
    def test_bad_fusion(self):
        with pytest.raises(UsageError):
            make_run_config("desk", None, {"fusion": "both"})

    def test_bad_dropout(self):
        with pytest.raises(UsageError):
            make_run_config("desk", None, {"dropout": 1.5})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_statements", 0), ("max_code_tokens", -1), ("vocab_size", 3), ("val_fraction", 1.0),
            ("max_comment_tokens", 1), ("max_comment_tokens", 2),
        ],
    )
    def test_bad_limits(self, key, value):
        with pytest.raises(UsageError):
            make_run_config("desk", None, {key: value})

    @pytest.mark.parametrize("key", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_rates_name_the_key(self, key, value):
        with pytest.raises(UsageError, match=f"^{key} must be finite and >= 0"):
            make_run_config("desk", None, {key: value})

    @pytest.mark.parametrize("key, value", [("lr", 0.0), ("lr", 1e39), ("weight_decay", 0.0), ("seed", 0)])
    def test_edge_values_accepted(self, key, value):
        assert getattr(make_run_config("desk", None, {key: value}), key) == value


def _settable_values() -> list[str]:
    """One entry per value a caller can leave out or set from outside: each
    defaulted parameter of a function in src/eacs, each RunConfig field, and
    each place src/eacs reads ``os.environ`` or ``os.getenv``."""
    found = [f"RunConfig.{f.name}" for f in fields(RunConfig)]
    src = pathlib.Path(eacs.__file__).parent
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{where}:{node.lineno} os.{node.attr}")
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{where} {getattr(node, 'name', 'lambda')}({k.arg}=)" for k in named]
    return found


def test_settable_values():
    found = _settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(found)
