import pytest

from eacs.config import make_run_config, parse_config_file
from eacs.errors import UsageError


class TestPresets:
    def test_desk_defaults(self):
        cfg = make_run_config(env={})
        assert cfg.embed_dim == 64 and cfg.hidden_dim == 64

    def test_full_preset_matches_published_setup(self):
        cfg = make_run_config(preset="full", env={})
        assert cfg.embed_dim == 512
        assert cfg.hidden_dim == 512
        assert cfg.batch_size == 32
        assert cfg.lr == pytest.approx(3e-4)
        assert cfg.dropout == pytest.approx(0.1)

    def test_unknown_preset(self):
        with pytest.raises(UsageError):
            make_run_config(preset="huge", env={})


class TestConfigFile:
    def test_parse_and_layering(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\nlr = 0.01  # fast\nshare_embeddings = false\n")
        cfg = make_run_config(config_path=str(path), env={})
        assert cfg.epochs == 7 and cfg.lr == 0.01 and cfg.share_embeddings is False

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
        cfg = make_run_config(config_path=str(path), overrides={"epochs": 3}, env={})
        assert cfg.epochs == 3


class TestEnvOverride:
    def test_eacs_seed_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 4\n")
        cfg = make_run_config(config_path=str(path), env={"EACS_SEED": "99"})
        assert cfg.seed == 99

    def test_bad_env_seed(self):
        with pytest.raises(UsageError):
            make_run_config(env={"EACS_SEED": "pi"})


class TestValidation:
    def test_bad_fusion(self):
        with pytest.raises(UsageError):
            make_run_config(overrides={"fusion": "both"}, env={})

    def test_bad_dropout(self):
        with pytest.raises(UsageError):
            make_run_config(overrides={"dropout": 1.5}, env={})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_statements", 0), ("max_code_tokens", -1), ("vocab_size", 3), ("val_fraction", 1.0),
            ("max_comment_tokens", 1), ("max_comment_tokens", 2),
        ],
    )
    def test_bad_limits(self, key, value):
        with pytest.raises(UsageError):
            make_run_config(overrides={key: value}, env={})
