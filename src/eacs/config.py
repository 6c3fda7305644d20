"""Run configuration: presets, flat key-value config files, env overrides.

:class:`RunConfig` is the one configuration both models, both trainers, the
CLI and checkpoints share; each reads the fields it needs.

The ``desk`` preset is small enough to overfit a toy corpus in minutes on one
core; ``full`` carries the published training setup (512-d embeddings and
hidden size, batch 32, lr 0.0003, dropout 0.1). ``EACS_SEED`` overrides the
configured seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

from .errors import IoError, UsageError


@dataclass
class RunConfig:
    embed_dim: int = 64
    hidden_dim: int = 64
    batch_size: int = 8
    lr: float = 3e-3
    dropout: float = 0.1
    epochs: int = 300
    vocab_size: int = 2000
    min_freq: int = 1
    max_statement_tokens: int = 30
    max_statements: int = 30
    max_code_tokens: int = 120
    max_comment_tokens: int = 30
    weight_decay: float = 0.01
    val_fraction: float = 0.0
    seed: int = 13
    fusion: str = "abex"
    share_embeddings: bool = True
    language: str = "java"

    def validate(self) -> None:
        if self.embed_dim <= 0 or self.hidden_dim <= 0:
            raise UsageError("dimensions must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError("dropout must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise UsageError("batch_size must be >= 1 and epochs >= 0")
        limits = ("max_statement_tokens", "max_statements", "max_code_tokens", "max_comment_tokens")
        if any(getattr(self, name) < 1 for name in limits):
            raise UsageError(f"{', '.join(limits)} must be >= 1")
        if self.max_comment_tokens < 3:
            raise UsageError("max_comment_tokens must be >= 3: it counts BOS and EOS")
        if self.vocab_size < 4:
            raise UsageError("vocab_size must leave room for the 4 reserved tokens")
        if not 0.0 <= self.val_fraction < 1.0:
            raise UsageError("val_fraction must be in [0, 1)")
        if self.fusion not in ("abex", "exab"):
            raise UsageError(f"fusion must be abex or exab, got {self.fusion!r}")
        if self.language not in ("java", "python", "generic"):
            raise UsageError(f"unknown language {self.language!r}")


PRESETS: dict[str, dict] = {
    "desk": {},
    "full": {
        "embed_dim": 512,
        "hidden_dim": 512,
        "batch_size": 32,
        "lr": 3e-4,
        "dropout": 0.1,
        "epochs": 30,
        "vocab_size": 50000,
        "min_freq": 2,
        "max_statements": 50,
        "max_code_tokens": 300,
        "max_comment_tokens": 50,
        "val_fraction": 0.1,
    },
}

# Field name -> annotation ("int", "float", "bool" or "str").
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key}: expected an integer, got {raw!r}") from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key}: expected a number, got {raw!r}") from exc
    return raw


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def make_run_config(
    preset: str = "desk",
    config_path: Optional[str] = None,
    overrides: Optional[dict] = None,
    env: Optional[dict] = None,
) -> RunConfig:
    """Layer preset < config file < explicit flags < EACS_SEED."""
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    values = dict(PRESETS[preset])
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = val
    env = os.environ if env is None else env
    if env.get("EACS_SEED"):
        try:
            values["seed"] = int(env["EACS_SEED"])
        except ValueError as exc:
            raise UsageError(f"EACS_SEED must be an integer, got {env['EACS_SEED']!r}") from exc
    config = RunConfig(**values)
    config.validate()
    return config
