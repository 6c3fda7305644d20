"""Statement segmentation.

Statements are the unit the extractor classifies. Segmentation is lexical:
java splits at ';', '{', '}' outside string/char literals and comments,
python merges physical lines into logical lines while brackets stay open or
a trailing backslash continues (a '#' comment ends the line for both), and
generic falls back to physical lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus import RawPair, tokenize_code, tokenize_comment
from .errors import EmptyComment, EmptySnippet

LANGUAGES = ("java", "python", "generic")


@dataclass(frozen=True)
class Statement:
    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SegmentedSnippet:
    statements: tuple[Statement, ...]
    full_tokens: tuple[str, ...]


# A pair that survived preprocessing: the pair, its snippet, its comment tokens.
PreparedPair = tuple[RawPair, SegmentedSnippet, list[str]]


# A string or char literal (backslash escapes; unclosed runs to the end), a
# line comment, a block comment (its "*/" may reuse the opening "*"; unclosed
# runs to the end), or a statement break outside all of those.
_JAVA_SCAN_RE = re.compile(
    r'"(?:\\[\s\S]?|[^"\\])*"?'
    r"|'(?:\\[\s\S]?|[^'\\])*'?"
    r"|//[^\n]*"
    r"|/(?=\*)[\s\S]*?(?:\*/|\Z)"
    r"|([;{}])"
)


def _java_fragments(code: str) -> list[str]:
    fragments: list[str] = []
    start = 0
    for match in _JAVA_SCAN_RE.finditer(code):
        if match.group(1):
            fragments.append(code[start : match.end()])
            start = match.end()
    if start < len(code):
        fragments.append(code[start:])
    return fragments


def _python_fragments(code: str) -> list[str]:
    logical: list[str] = []
    buf: list[str] = []
    depth = 0
    for line in code.splitlines():
        in_string = ""
        escaped = commented = False
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
            elif ch == "#":
                commented = True
                break
            elif ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth = max(depth - 1, 0)
        buf.append(line)
        continues = depth > 0 or (
            not in_string and not commented and line.rstrip().endswith("\\")
        )
        if not continues:
            logical.append("\n".join(buf))
            buf = []
    if buf:
        logical.append("\n".join(buf))
    return logical


def segment(code: str, language: str) -> SegmentedSnippet:
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

    # Fragments break only at ';{}' or line breaks, which no subtoken spans,
    # so the statements' tokens in order are the whole snippet's tokens.
    statements: list[Statement] = []
    full_tokens: list[str] = []
    for frag in fragments:
        text = frag.strip()
        tokens = tokenize_code(text)
        if not tokens:
            continue
        statements.append(Statement(text=text, tokens=tuple(tokens)))
        full_tokens.extend(tokens)
    if not statements:
        raise EmptySnippet("no statements after segmentation")
    return SegmentedSnippet(statements=tuple(statements), full_tokens=tuple(full_tokens))


def segment_pairs(pairs: Sequence[RawPair], language: str) -> Iterator[PreparedPair]:
    """Each pair with its segmented snippet and comment tokens, in order.

    The one pair filter and the one tokenization of the pipeline: a pair whose
    code segments to no statement (:class:`EmptySnippet`, blank code included)
    or whose comment has no token (:class:`EmptyComment`) is skipped, so the
    skip count is ``len(pairs)`` minus the number of pairs yielded.
    """
    for pair in pairs:
        try:
            snippet = segment(pair.code, language)
            comment = tokenize_comment(pair.comment)
        except (EmptySnippet, EmptyComment):
            continue
        yield pair, snippet, comment
