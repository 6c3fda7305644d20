"""Versioned binary checkpoints.

Layout: one UTF-8 JSON header line (format version, model kind,
hyperparameters, fusion order, vocabulary token list), then per parameter in
declaration order a ``name dim0 dim1 ...`` line followed by the raw
little-endian float32 values. Save -> load -> save is byte-identical.

:func:`save_model` and :func:`load_model` turn a model into a file and back;
the header's ``kind`` picks the model class, and its hyperparameters are the
config fields that class lists in ``HYPERPARAMETERS``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore as nc
from .abstracter import AbstracterModel
from .config import FIELD_TYPES, RunConfig
from .corpus import Vocabulary
from .errors import CorruptCheckpoint, IoError, UsageError, VersionError
from .extractor import ExtractorModel
from .fileio import replace_on_success

FORMAT_VERSION = 1
MODELS = {cls.KIND: cls for cls in (ExtractorModel, AbstracterModel)}
# JSON value types accepted for each config field type; bools are never numbers.
_JSON_TYPES = {"int": int, "float": (int, float)}


@dataclass
class Checkpoint:
    kind: str
    hyperparameters: dict
    fusion_order: Optional[str]
    vocabulary: list[str]
    params: list[tuple[str, np.ndarray]]


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "hyperparameters": ckpt.hyperparameters,
        "fusion_order": ckpt.fusion_order,
        "vocabulary": ckpt.vocabulary,
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    with replace_on_success(path, "wb") as fh:
        fh.write(header_line.encode("utf-8") + b"\n")
        for name, arr in ckpt.params:
            if " " in name:
                raise ValueError(f"parameter name {name!r} contains a space")
            shape = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {shape}\n".encode("utf-8"))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_line(fh, path: str) -> bytes:
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CorruptCheckpoint(f"{path}: truncated before end of a header line")
    return line[:-1]


def load_checkpoint(path: str) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            header = json.loads(_read_line(fh, path).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise CorruptCheckpoint(f"{path}: invalid header") from exc
        if not isinstance(header, dict):
            raise CorruptCheckpoint(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: format version {version!r}, expected {FORMAT_VERSION}")
        kind = header.get("kind")
        if not isinstance(kind, str) or kind not in MODELS:
            raise CorruptCheckpoint(f"{path}: unknown model kind {kind!r}")
        hyperparameters = header.get("hyperparameters")
        if not isinstance(hyperparameters, dict):
            raise CorruptCheckpoint(f"{path}: hyperparameters are not a JSON object")
        vocabulary = header.get("vocabulary")
        if not isinstance(vocabulary, list) or not all(isinstance(t, str) for t in vocabulary):
            raise CorruptCheckpoint(f"{path}: vocabulary is not a list of strings")
        params: list[tuple[str, np.ndarray]] = []
        while True:
            line = fh.readline()
            if not line:
                break
            if not line.endswith(b"\n"):
                raise CorruptCheckpoint(f"{path}: truncated parameter header")
            try:
                name, *dims = line[:-1].decode("utf-8").split(" ")
                shape = tuple(int(d) for d in dims)
            except ValueError as exc:
                raise CorruptCheckpoint(f"{path}: bad parameter header {line[:80]!r}") from exc
            if any(d < 0 for d in shape):
                raise CorruptCheckpoint(f"{path}: negative dimension in {name!r}{shape}")
            nbytes = math.prod(shape) * 4
            if nbytes > size - fh.tell():
                raise CorruptCheckpoint(f"{path}: truncated values for {name!r}")
            # Read straight into the array: one copy of the values, not three.
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CorruptCheckpoint(f"{path}: truncated values for {name!r}")
            params.append((name, arr))
    return Checkpoint(
        kind=kind,
        hyperparameters=hyperparameters,
        fusion_order=header.get("fusion_order"),
        vocabulary=vocabulary,
        params=params,
    )


def save_model(model: ExtractorModel | AbstracterModel, vocab: Vocabulary, path: str) -> None:
    hyperparameters = {name: getattr(model.config, name) for name in model.HYPERPARAMETERS}
    hyperparameters["vocab_size"] = model.vocab_size
    ckpt = Checkpoint(
        kind=model.KIND,
        hyperparameters=hyperparameters,
        fusion_order=model.config.fusion if model.KIND == "abstracter" else None,
        vocabulary=list(vocab.index_to_token),
        params=[(p.name, p.data) for p in model.parameters()],
    )
    save_checkpoint(ckpt, path)


def _model_config(ckpt: Checkpoint, vocab: Vocabulary, path: str) -> RunConfig:
    """The config a checkpoint's header describes; a missing or bad value is corruption."""
    hp = ckpt.hyperparameters
    values: dict = {}
    for name in MODELS[ckpt.kind].HYPERPARAMETERS:
        if name not in hp:
            raise CorruptCheckpoint(f"{path}: hyperparameter {name} missing")
        value, want = hp[name], FIELD_TYPES[name]
        if not isinstance(value, _JSON_TYPES[want]) or isinstance(value, bool):
            raise CorruptCheckpoint(f"{path}: hyperparameter {name} = {value!r} is not {want}")
        values[name] = float(value) if want == "float" else value
    if hp.get("vocab_size") != len(vocab):
        raise CorruptCheckpoint(
            f"{path}: vocab_size {hp.get('vocab_size')!r} but {len(vocab)} vocabulary tokens"
        )
    if ckpt.kind == "abstracter":
        values["fusion"] = ckpt.fusion_order
    config = RunConfig(**values)
    try:
        config.validate()
    except UsageError as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
    return config


def load_model(path: str, kind: str) -> tuple[ExtractorModel | AbstracterModel, Vocabulary]:
    """The model and vocabulary in the checkpoint at ``path``, which must be of ``kind``."""
    ckpt = load_checkpoint(path)
    if ckpt.kind != kind:
        raise CorruptCheckpoint(f"{path}: kind {ckpt.kind!r}, expected {kind}")
    try:
        vocab = Vocabulary(ckpt.vocabulary)
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
    cls = MODELS[kind]
    config = _model_config(ckpt, vocab, path)
    # Shapes are compared before the model exists, so a header claiming a huge
    # width is rejected without allocating it.
    expected = cls.shapes(len(vocab), config)
    if len(expected) != len(ckpt.params):
        raise CorruptCheckpoint(f"{path}: {len(ckpt.params)} parameters, expected {len(expected)}")
    for (want, shape), (name, arr) in zip(expected.items(), ckpt.params):
        if want != name or shape != arr.shape:
            raise CorruptCheckpoint(
                f"{path}: parameter {name!r}{arr.shape} does not match {want!r}{shape}"
            )
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"{path}: parameter {name!r} holds a NaN or infinite value")
    params = [nc.Parameter(name, arr.astype(np.float32, copy=False)) for name, arr in ckpt.params]
    return cls.from_parameters(len(vocab), config, params), vocab
