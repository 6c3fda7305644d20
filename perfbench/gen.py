"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the workload
seed, so the same seed always yields byte-identical inputs. The program under
test only ever sees the files written from these values.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

# Comment words double as identifier parts, so an informative statement can
# share an in-order subsequence with its comment after code subtokenization.
VERBS = (
    "compute get set load save parse build find remove update check create read "
    "write merge sort filter count append reset resolve convert encode decode"
).split()
NOUNS = (
    "total count index value key name path file buffer list map cache entry node "
    "item user order price size offset limit record token header message event "
    "session queue result range score weight"
).split()
GLUE = "the of a for from to in with and by given current each new".split()
TYPES = ("int", "long", "double", "String", "boolean")
FILLER_OBJECTS = ("log", "stats", "audit", "metrics", "tracer")
FILLER_CALLS = ("trace", "debug", "increment", "mark", "touch")


def _camel(words) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def make_comment(rng: np.random.Generator, n_tokens: int) -> list[str]:
    """Words of a one-sentence comment that tokenizes to n_tokens with its '.'."""
    words = [_pick(rng, VERBS)]
    while len(words) < n_tokens - 1:
        words.append(_pick(rng, GLUE) if rng.random() < 0.35 else _pick(rng, NOUNS))
    return words


def _filler_statement(rng: np.random.Generator) -> str:
    kind = int(rng.integers(4))
    noun = _pick(rng, NOUNS)
    if kind == 0:
        return f'{_pick(rng, FILLER_OBJECTS)}.{_pick(rng, FILLER_CALLS)}("{noun}");'
    if kind == 1:
        return f"if ({noun} == null) {{ return; }}"
    if kind == 2:
        return f"{_pick(rng, TYPES)} tmp{noun.capitalize()} = {int(rng.integers(100))};"
    return f"{noun}Counter++;"


def make_method(rng: np.random.Generator, comment: list[str], n_statements: int) -> str:
    """A Java method of n_statements body statements, one of them informative.

    The informative statement sits at a random position and calls a method
    named after an in-order sample of the comment's content words.
    """
    content = [w for w in comment if w not in GLUE]
    keep = sorted(rng.choice(len(content), size=min(len(content), 4), replace=False))
    call = _camel([content[i] for i in keep])
    arg = _pick(rng, NOUNS)
    informative = f"{_pick(rng, TYPES)} {_pick(rng, NOUNS)}Result = {call}({arg}, {arg}Size);"
    body = [_filler_statement(rng) for _ in range(n_statements - 1)]
    body.insert(int(rng.integers(n_statements)), informative)
    name = _camel([_pick(rng, VERBS), _pick(rng, NOUNS)])
    lines = [f"public void {name}({_pick(rng, TYPES)} {arg}) {{"]
    lines += [f"    {st}" for st in body]
    lines.append("}")
    return "\n".join(lines)


def _stratified(rng: np.random.Generator, lo: int, hi: int, n: int) -> list[int]:
    """n values cycling through lo..hi, shuffled: the multiset depends on n only,
    so run-to-run differences in total work come from content, not size."""
    return [int(v) for v in rng.permutation(np.resize(np.arange(lo, hi + 1), n))]


def make_corpus(rng: np.random.Generator, n_pairs: int) -> tuple[list[dict], list[int]]:
    """(code, comment) records with 2-12 statements per method and comments of
    8-15 tokens; also returns each method's statement count."""
    statements = _stratified(rng, 2, 12, n_pairs)
    lengths = _stratified(rng, 8, 15, n_pairs)
    records = []
    for n_statements, n_tokens in zip(statements, lengths):
        comment = make_comment(rng, n_tokens)
        code = make_method(rng, comment, n_statements)
        records.append({"code": code, "comment": " ".join(comment) + "."})
    return records, statements


def make_hypotheses(rng: np.random.Generator, refs: list[list[str]], copy_share: float = 0.15):
    """System outputs for refs: round(copy_share * n) exact copies at random
    positions; the rest keep about 60% of the reference tokens in order plus
    1-3 inserted words. Returns (hypotheses, is_copy flags)."""
    n = len(refs)
    is_copy = np.zeros(n, dtype=bool)
    is_copy[rng.choice(n, size=round(copy_share * n), replace=False)] = True
    hyps = []
    for ref, copy in zip(refs, is_copy):
        if copy:
            hyps.append(list(ref))
            continue
        kept = [t for t in ref if rng.random() < 0.6] or [ref[0]]
        for _ in range(int(rng.integers(1, 4))):
            kept.insert(int(rng.integers(len(kept) + 1)), _pick(rng, NOUNS + GLUE))
        hyps.append(kept)
    return hyps, [bool(c) for c in is_copy]


def matched_tokens(ref: list[str], hyp: list[str]) -> int:
    """Exact unigram matches METEOR aligns: the sum over token types of the
    smaller count."""
    hyp_counts = Counter(hyp)
    return sum(min(c, hyp_counts[t]) for t, c in Counter(ref).items())


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
