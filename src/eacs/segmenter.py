"""Statement segmentation.

Statements are the unit the extractor classifies. Segmentation is lexical:
java splits at ';', '{', '}' outside string/char literals and comments,
python merges physical lines into logical lines while brackets stay open or
a trailing backslash continues, and generic falls back to physical lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus import RawPair, tokenize_code, tokenize_comment
from .errors import EmptySnippet

LANGUAGES = ("java", "python", "generic")


@dataclass(frozen=True)
class Statement:
    text: str
    tokens: tuple[str, ...]
    position: int


@dataclass(frozen=True)
class SegmentedSnippet:
    language: str
    statements: tuple[Statement, ...]
    full_tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.statements)


def _java_fragments(code: str) -> list[str]:
    fragments: list[str] = []
    buf: list[str] = []
    state = "code"  # code | string | char | line_comment | block_comment
    i = 0
    n = len(code)
    while i < n:
        ch = code[i]
        nxt = code[i + 1] if i + 1 < n else ""
        buf.append(ch)
        if state == "code":
            if ch == '"':
                state = "string"
            elif ch == "'":
                state = "char"
            elif ch == "/" and nxt == "/":
                state = "line_comment"
            elif ch == "/" and nxt == "*":
                state = "block_comment"
            elif ch in ";{}":
                fragments.append("".join(buf))
                buf = []
        elif state == "string":
            if ch == "\\":
                if i + 1 < n:
                    buf.append(nxt)
                    i += 1
            elif ch == '"':
                state = "code"
        elif state == "char":
            if ch == "\\":
                if i + 1 < n:
                    buf.append(nxt)
                    i += 1
            elif ch == "'":
                state = "code"
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                buf.append(nxt)
                i += 1
                state = "code"
        i += 1
    if buf:
        fragments.append("".join(buf))
    return fragments


def _python_fragments(code: str) -> list[str]:
    logical: list[str] = []
    buf: list[str] = []
    depth = 0
    for line in code.splitlines():
        in_string = ""
        escaped = False
        for ch in line:
            if escaped:
                escaped = False
                continue
            if in_string:
                if ch == "\\":
                    escaped = True
                elif ch == in_string:
                    in_string = ""
            elif ch in "'\"":
                in_string = ch
            elif ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth = max(depth - 1, 0)
        buf.append(line)
        continues = depth > 0 or (not in_string and line.rstrip().endswith("\\"))
        if not continues:
            logical.append("\n".join(buf))
            buf = []
    if buf:
        logical.append("\n".join(buf))
    return logical


def segment(code: str, language: str = "generic") -> SegmentedSnippet:
    """Split a snippet into ordered statements.

    Raises :class:`EmptySnippet` when nothing remains after trimming and
    dropping empty fragments.
    """
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r}; expected one of {LANGUAGES}")
    if not code.strip():
        raise EmptySnippet("snippet is empty after trimming")
    if language == "java":
        fragments = _java_fragments(code)
    elif language == "python":
        fragments = _python_fragments(code)
    else:
        fragments = code.splitlines()

    statements: list[Statement] = []
    for frag in fragments:
        text = frag.strip()
        if not text:
            continue
        tokens = tuple(tokenize_code(text))
        if not tokens:
            continue
        statements.append(Statement(text=text, tokens=tokens, position=len(statements)))
    if not statements:
        raise EmptySnippet("no statements after segmentation")
    return SegmentedSnippet(
        language=language,
        statements=tuple(statements),
        full_tokens=tuple(tokenize_code(code)),
    )


def segment_pairs(
    pairs: Sequence[RawPair], language: str
) -> Iterator[tuple[RawPair, SegmentedSnippet, list[str]]]:
    """Each pair with its segmented snippet and comment tokens, in order.

    The one pair filter of the pipeline: pairs whose code segments to no
    statement (:class:`EmptySnippet`) are skipped; their count is ``len(pairs)``
    minus the number of tuples yielded.
    """
    for pair in pairs:
        try:
            snippet = segment(pair.code, language)
        except EmptySnippet:
            continue
        yield pair, snippet, tokenize_comment(pair.comment)
