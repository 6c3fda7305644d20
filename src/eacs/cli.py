"""Command-line entry point orchestrating the whole pipeline.

Commands: segment, label, train-extractor, extract, train-abstracter,
summarize, evaluate, gradcheck. Any pipeline error exits 1 with a one-line
diagnostic naming the failing stage; usage problems exit 2.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .abstracter import generate_summary, train_abstracter
from .checkpoint import load_model, save_model
from .config import FUSIONS, RunConfig, make_run_config
from .corpus import load_corpus
from .errors import EacsError, FormatError, UsageError
from .extractor import TrainResult, predict_important, train_extractor
from .fileio import read_text, replace_on_success
from .metrics import evaluate_corpus, mann_whitney_u_test, profile_reference
from .numcore import blas
from .oracle import label_statements
from .report import emit_report
from .segmenter import LANGUAGES, segment, segment_pairs

# glibc mallopt parameters (<malloc.h>) and the values main sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def _read_token_lines(path: str) -> list[list[str]]:
    """One token list per line, blank lines included, so line i of every file
    is pair i."""
    return [line.split() for line in read_text(path).splitlines()]


def _config_from_args(args) -> RunConfig:
    overrides = {
        "epochs": args.epochs,
        "seed": args.seed,
        "language": args.lang,
        # train-extractor has no --fusion flag.
        "fusion": getattr(args, "fusion", None),
    }
    return make_run_config(args.preset, args.config, overrides)


def _cmd_segment(args) -> int:
    snippet = segment(read_text(args.code), args.lang)
    for st in snippet.statements:
        print(" ".join(st.text.split()))
    return 0


def _cmd_label(args) -> int:
    corpus = load_corpus(args.corpus)
    written = 0
    with replace_on_success(args.out, "w") as fh:
        for pair, snippet, comment in segment_pairs(corpus, args.lang):
            labeled = label_statements(snippet, comment)
            record = {
                "id": pair.id,
                "statements": [st.text for st in snippet.statements],
                "labels": list(labeled.labels),
                "trace": [[t.index, t.informativity] for t in labeled.trace],
            }
            fh.write(json.dumps(record) + "\n")
            written += 1
    print(f"labeled {written} pair(s), skipped {len(corpus) - written}, wrote {args.out}")
    return 0


def _save_trained(what: str, result: TrainResult, path: str) -> int:
    """Write the trained model to ``path`` and print its one summary line."""
    save_model(result.model, result.vocab, path)
    best = result.val_loss[result.best_epoch] if result.best_epoch >= 0 else float("nan")
    print(
        f"trained {what} on {result.pairs} pair(s): best epoch {result.best_epoch}, "
        f"val loss {best:.6f}, checkpoint {path}"
    )
    return 0


def _cmd_train_extractor(args) -> int:
    result = train_extractor(load_corpus(args.corpus), _config_from_args(args))
    return _save_trained("extractor", result, args.out)


def _cmd_extract(args) -> int:
    model, vocab = load_model(args.ckpt, "extractor")
    snippet = segment(read_text(args.code), args.lang)
    indices, _ = predict_important(snippet, model, vocab)
    for i in indices:
        print(f"{i}\t{' '.join(snippet.statements[i].text.split())}")
    return 0


def _cmd_train_abstracter(args) -> int:
    run = _config_from_args(args)
    ex_model, ex_vocab = load_model(args.extractor, "extractor")
    result = train_abstracter(load_corpus(args.corpus), ex_model, ex_vocab, run)
    return _save_trained(f"abstracter ({run.fusion})", result, args.out)


def _cmd_summarize(args) -> int:
    ex_model, ex_vocab = load_model(args.extractor, "extractor")
    ab_model, ab_vocab = load_model(args.abstracter, "abstracter")
    result = generate_summary(
        read_text(args.code),
        ex_model,
        ex_vocab,
        ab_model,
        ab_vocab,
        language=args.lang,
        max_len=args.max_len,
        beam_width=args.beam,
    )
    print(" ".join(result.tokens))
    return 0


def _cmd_evaluate(args) -> int:
    refs = _read_token_lines(args.refs)
    for lineno, ref in enumerate(refs, start=1):
        if not ref:
            raise FormatError("empty reference", args.refs, lineno)
    hyps = _read_token_lines(args.hyps)
    buckets = None
    if args.buckets == "comment":
        buckets = ("comment", [len(r) for r in refs])
    elif args.buckets == "code":
        if not args.codes:
            raise UsageError("--buckets code needs --codes CORPUS to count snippet lines")
        buckets = ("code", [len(p.code.splitlines()) for p in load_corpus(args.codes)])
    # Each reference is profiled once, for --hyps and --compare alike.
    profiles = [profile_reference(r) for r in refs]
    report = evaluate_corpus(refs, hyps, profiles, buckets)
    for entry in report.meteor_bounded:
        entry["file"] = "hyps"
    compare = None
    if args.compare:
        other = evaluate_corpus(refs, _read_token_lines(args.compare), profiles)
        compare = {k: mann_whitney_u_test(v, other.scores[k]) for k, v in report.scores.items()}
        report.meteor_bounded += [dict(entry, file="compare") for entry in other.meteor_bounded]
    emit_report(report, compare, args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradsuite import TOLERANCE, run_all

    if args.max_coords < 1:
        raise UsageError(f"--max-coords must be >= 1, got {args.max_coords}")
    failures = 0
    for res in run_all(args.max_coords):
        status = "PASS" if res.passed else "FAIL"
        failures += not res.passed
        print(f"{status}  {res.name:<18} max_rel_err={res.max_rel_error:.3e}  tol={TOLERANCE:g}")
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one line,
    ``<prog>: error: <message>``, without the usage block, and exit 2. Its
    subparsers are of this class too; ``--help`` is unchanged."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="eacs",
        description="Extract-then-abstract code summarization pipeline",
    )
    parser.add_argument("--version", action="version", version=f"eacs {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log numpy's BLAS and per-epoch losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="split a snippet into statements")
    p.add_argument("--lang", choices=LANGUAGES, default="generic")
    p.add_argument("--code", default="-", help="snippet file, or - for stdin")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("label", help="emit oracle importance labels for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lang", choices=LANGUAGES, default="java")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    def add_train_flags(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--preset", choices=("desk", "full"), default="desk")
        p.add_argument("--epochs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--lang", choices=LANGUAGES)

    p = sub.add_parser("train-extractor", help="train the statement classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    add_train_flags(p)
    p.set_defaults(func=_cmd_train_extractor)

    p = sub.add_parser("extract", help="predict important statements")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--code", default="-")
    p.add_argument("--lang", choices=LANGUAGES, default="java")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train-abstracter", help="train the summary generator")
    p.add_argument("--corpus", required=True)
    p.add_argument("--extractor", required=True, help="extractor checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--fusion", choices=FUSIONS)
    add_train_flags(p)
    p.set_defaults(func=_cmd_train_abstracter)

    p = sub.add_parser("summarize", help="generate a summary for a snippet")
    p.add_argument("--extractor", required=True)
    p.add_argument("--abstracter", required=True)
    p.add_argument("--code", default="-")
    p.add_argument("--lang", choices=LANGUAGES, default="java")
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--refs", required=True, help="one tokenized reference per line")
    p.add_argument("--hyps", required=True, help="one tokenized hypothesis per line")
    p.add_argument("--compare", help="second hypothesis file for significance testing")
    p.add_argument("--buckets", choices=("code", "comment"))
    p.add_argument("--codes", help="corpus file supplying code line counts for --buckets code")
    p.add_argument("--out", default="metrics_report.json", help="machine-readable record file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="run finite-difference gradient suites")
    p.add_argument("--max-coords", type=int, default=48)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _glibc_mallopt():
    """glibc's ``mallopt``, or None where the C library is not glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


@functools.cache
def keep_freed_heap() -> None:
    """Let glibc keep freed pages for reuse instead of returning them.

    Under glibc's defaults, blocks over its mmap threshold (128 KiB at first)
    get pages of their own and the heap top is trimmed after large frees, so
    many of a training step's buffers land on fresh pages and fault. Blocks
    under 4 MiB now come from the heap, and up to 64 MiB of free heap top
    stays mapped, above the 5.4-6.4 MiB a desk LSTM call leaves free there; the
    trim threshold alone would also pin the mmap threshold at 128 KiB.
    Addresses change, computed values do not. Only ``main`` calls this, so
    importing eacs leaves the allocator alone.
    """
    mallopt = _glibc_mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv: Optional[Sequence[str]] = None) -> int:
    keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.verbose:
        logging.getLogger(__name__).info("blas: %s", blas() or "not scipy-openblas")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"eacs {args.command}: {exc}", file=sys.stderr)
        return 2
    except (EacsError, OSError) as exc:
        print(f"eacs {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the size and shape; a bare MemoryError has none.
        print(f"eacs {args.command}: error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
