"""Shared fixtures: the 32-pair toy corpus and one session-scoped overfit run."""

import json
import time
from dataclasses import dataclass

import pytest

from eacs.abstracter import AbstracterTrainResult, train_abstracter
from eacs.config import RunConfig
from eacs.corpus import Corpus, load_corpus
from eacs.extractor import ExtractorTrainResult, train_extractor

TYPES = ["int", "long", "float", "double"]
OPS = [
    ("+", "sum"),
    ("-", "difference"),
    ("*", "product"),
    ("/", "quotient"),
    ("%", "remainder"),
    ("&", "mask"),
    ("|", "union"),
    ("^", "parity"),
]


def toy_pairs() -> list[dict]:
    """32 templated java methods; the informative statement moves around."""
    pairs = []
    for ti, typ in enumerate(TYPES):
        for oi, (op, word) in enumerate(OPS):
            name = f"compute{word.capitalize()}{typ.capitalize()}"
            if (ti + oi) % 2 == 0:
                code = (
                    f"public {typ} {name}({typ} a, {typ} b) {{\n"
                    f"    {typ} {word} = a {op} b;\n"
                    f'    log.trace("{name}");\n'
                    f"    return {word};\n"
                    f"}}"
                )
            else:
                code = (
                    f"public {typ} {name}({typ} a, {typ} b) {{\n"
                    f"    if (a < 0) {{ a = -a; }}\n"
                    f"    {typ} {word} = a {op} b;\n"
                    f"    return {word};\n"
                    f"}}"
                )
            pairs.append(
                {"code": code, "comment": f"compute the {word} of two {typ} values."}
            )
    return pairs


@pytest.fixture(scope="session")
def toy_corpus_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("corpus") / "toy.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for pair in toy_pairs():
            fh.write(json.dumps(pair) + "\n")
    return str(path)


@pytest.fixture(scope="session")
def toy_corpus(toy_corpus_path) -> Corpus:
    return load_corpus(toy_corpus_path)


TOY_EXTRACTOR_CONFIG = RunConfig(
    epochs=80, lr=3e-3, dropout=0.1, batch_size=8, seed=13, vocab_size=200
)
TOY_ABSTRACTER_CONFIG = RunConfig(
    epochs=170, lr=3e-3, dropout=0.1, batch_size=8, seed=13
)


@dataclass
class OverfitRun:
    extractor: ExtractorTrainResult
    abstracter: AbstracterTrainResult
    extractor_seconds: float
    abstracter_seconds: float


@pytest.fixture(scope="session")
def overfit_run(toy_corpus) -> OverfitRun:
    """Train both models once on the toy corpus; several tests assert on it."""
    t0 = time.time()
    ex = train_extractor(toy_corpus, TOY_EXTRACTOR_CONFIG, language="java")
    t1 = time.time()
    ab = train_abstracter(toy_corpus, ex.model, ex.vocab, TOY_ABSTRACTER_CONFIG, language="java")
    t2 = time.time()
    return OverfitRun(
        extractor=ex,
        abstracter=ab,
        extractor_seconds=t1 - t0,
        abstracter_seconds=t2 - t1,
    )
