"""Shared fixtures: the 32-pair toy corpus and one session-scoped overfit run."""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from eacs.abstracter import train_abstracter
from eacs.config import RunConfig
from eacs.corpus import RawPair, Vocabulary, build_vocabulary, load_corpus
from eacs.extractor import TrainResult, train_extractor
from eacs.numcore.product import openblas
from eacs.segmenter import PreparedPair, segment_pairs


def pytest_report_header(config):
    """numpy's BLAS build and the kernels it runs: the bit tests
    (TestBlasRows, TestProduct, TestLstmOverBits) pin behaviour of those
    kernels, so a failing run names them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = f"{blas.get('name')} {blas.get('version')}"
    lib = openblas()
    runtime = (
        lib.scipy_openblas_get_config64_().decode()
        + f", {lib.scipy_openblas_get_num_threads64_()} threads"
        if lib is not None
        else f"build config {blas.get('openblas configuration')}"
    )
    return [f"blas: {build}", f"blas runtime: {runtime}"]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The same lines after a failing run, which ``-q`` shows without a header."""
    if terminalreporter.stats.get("failed"):
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread for the test, the setting numcore.Product tiles
    at, and at its own thread count again after it."""
    lib = openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    yield
    lib.scipy_openblas_set_num_threads64_(threads)


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
def toy_corpus(toy_corpus_path) -> list[RawPair]:
    return load_corpus(toy_corpus_path)


@pytest.fixture(scope="session")
def toy_prepared(toy_corpus) -> list[PreparedPair]:
    """The toy corpus as segment_pairs prepares it: every pair is kept."""
    return list(segment_pairs(toy_corpus, "java"))


def vocabulary_of(prepared: list[PreparedPair], max_size: int) -> Vocabulary:
    """The vocabulary train_extractor builds on ``prepared`` at min_freq 1."""
    return build_vocabulary(
        (tokens for _, snippet, comment in prepared for tokens in (snippet.full_tokens, comment)),
        min_freq=1,
        max_size=max_size,
    )


@pytest.fixture(scope="session")
def unsegmentable_corpus_path(tmp_path_factory) -> str:
    """The toy corpus plus record 1, whose code ``___`` segments to no
    statement, and record 3, whose code is blank: segment_pairs skips both."""
    pairs = toy_pairs()
    pairs.insert(1, {"code": "___", "comment": "does nothing."})
    pairs.insert(3, {"code": "  ", "comment": "blank code."})
    path = tmp_path_factory.mktemp("corpus") / "unsegmentable.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair) + "\n")
    return str(path)


# Source text for the scanner and tokenizer properties: quotes, escapes,
# comment openers and closers, statement breaks, line breaks, word characters
# and non-ASCII letters and digits.
SOURCE_TEXT = st.text(
    alphabet=st.sampled_from(
        list("\"'\\/*;{}#_\n\r 0123456789abcxyzABCXYZ") + ["é", "ß", "İ", "²"]
    ),
    max_size=60,
)

TOY_EXTRACTOR_CONFIG = RunConfig(
    epochs=80, lr=3e-3, dropout=0.1, batch_size=8, seed=13, vocab_size=200
)
TOY_ABSTRACTER_CONFIG = RunConfig(
    epochs=170, lr=3e-3, dropout=0.1, batch_size=8, seed=13
)


@dataclass
class OverfitRun:
    extractor: TrainResult
    abstracter: TrainResult
    extractor_seconds: float
    abstracter_seconds: float


@pytest.fixture(scope="session")
def overfit_run(toy_corpus) -> OverfitRun:
    """Train both models once on the toy corpus; several tests assert on it."""
    t0 = time.time()
    ex = train_extractor(toy_corpus, TOY_EXTRACTOR_CONFIG)
    t1 = time.time()
    ab = train_abstracter(toy_corpus, ex.model, ex.vocab, TOY_ABSTRACTER_CONFIG)
    t2 = time.time()
    return OverfitRun(
        extractor=ex,
        abstracter=ab,
        extractor_seconds=t1 - t0,
        abstracter_seconds=t2 - t1,
    )
