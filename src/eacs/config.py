"""Run configuration: presets and flat key-value config files.

:class:`RunConfig` is the one configuration both models, both trainers, the
CLI and checkpoints share; each reads the fields it needs.

The ``desk`` preset is small enough to overfit a toy corpus in minutes on one
core; ``full`` carries the published training setup (512-d embeddings and
hidden size, batch 32, lr 0.0003, dropout 0.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import UsageError
from .fileio import read_text
from .segmenter import LANGUAGES

# The two orders in which the abstracter concatenates its encodings.
FUSIONS = ("abex", "exab")


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
    max_statements: int = 30
    max_code_tokens: int = 120
    max_comment_tokens: int = 30
    weight_decay: float = 0.01
    val_fraction: float = 0.0
    seed: int = 13
    fusion: str = "abex"
    language: str = "java"

    def validate(self) -> None:
        if self.embed_dim <= 0 or self.hidden_dim <= 0:
            raise UsageError("dimensions must be positive")
        for key in ("lr", "weight_decay"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise UsageError(f"{key} must be finite and >= 0, got {value!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError("dropout must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise UsageError("batch_size must be >= 1 and epochs >= 0")
        limits = ("max_statements", "max_code_tokens", "max_comment_tokens")
        if any(getattr(self, name) < 1 for name in limits):
            raise UsageError(f"{', '.join(limits)} must be >= 1")
        if self.max_comment_tokens < 3:
            raise UsageError("max_comment_tokens must be >= 3: it counts BOS and EOS")
        if self.vocab_size < 4:
            raise UsageError("vocab_size must leave room for the 4 reserved tokens")
        if not 0.0 <= self.val_fraction < 1.0:
            raise UsageError("val_fraction must be in [0, 1)")
        if self.fusion not in FUSIONS:
            raise UsageError(f"fusion must be {' or '.join(FUSIONS)}, got {self.fusion!r}")
        if self.language not in LANGUAGES:
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

# Field name -> annotation ("int", "float" or "str").
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str, where: str):
    kind = FIELD_TYPES[key]
    if kind == "str":
        return raw
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        expected = "an integer" if kind == "int" else "a number"
        raise UsageError(f"{where}: config key {key}: expected {expected}, got {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys rejected."""
    out: dict = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw, f"{path}:{lineno}")
    return out


def make_run_config(preset: str, config_path: Optional[str], overrides: dict) -> RunConfig:
    """Layer preset < config file < explicit flags; a None override is unset."""
    if preset not in PRESETS:
        raise UsageError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    values = dict(PRESETS[preset])
    if config_path:
        values.update(parse_config_file(config_path))
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = val
    config = RunConfig(**values)
    config.validate()
    return config
