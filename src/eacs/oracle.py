"""Ground-truth important-statement labels.

A statement set's informativity is the LCS recall of its concatenated tokens
against the reference comment. Statements are ranked by individual
informativity and scanned in rank order; one is accepted exactly when it
strictly increases the joint informativity of everything accepted so far.
The scan stops at the first statement that shares no token with the comment:
it and every later one leave the joint LCS unchanged.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional, Sequence

from ._kernels import lcs_masks
from .metrics import rouge_l_recall
from .segmenter import SegmentedSnippet


@dataclass(frozen=True)
class TraceStep:
    index: int
    informativity: float


@dataclass(frozen=True)
class LabeledSnippet:
    labels: tuple[int, ...]
    trace: tuple[TraceStep, ...]


def informativity(
    selected: Sequence[int],
    snippet: SegmentedSnippet,
    comment: Sequence[str],
    masks: Optional[dict] = None,
) -> float:
    """LCS recall of the selected statements, concatenated in source order.

    ``selected`` lists distinct statement indices in ascending order.
    ``masks`` is ``_kernels.lcs_masks(comment)``, when the caller has it.
    """
    tokens: list[str] = []
    for i in selected:
        tokens.extend(snippet.statements[i].tokens)
    if not tokens:
        return 0.0
    return rouge_l_recall(comment, tokens, masks)


def label_statements(snippet: SegmentedSnippet, comment: Sequence[str]) -> LabeledSnippet:
    """Greedy 0/1 labels for every statement of a snippet.

    Ties in the ranking go to the earlier statement. When no statement has
    positive informativity, the rank-1 statement is forcibly labeled 1 so the
    extractor always sees a positive example.
    """
    n = len(snippet.statements)
    masks = lcs_masks(comment)  # every call below scores against the comment
    individual = [informativity([i], snippet, comment, masks) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-individual[i], i))

    accepted: list[int] = []  # in source order, as informativity takes them
    best = 0.0
    trace: list[TraceStep] = []
    for i in order:
        if not individual[i]:
            # No token shared with the comment, here or in any later statement.
            break
        candidate = accepted.copy()
        insort(candidate, i)
        joint = informativity(candidate, snippet, comment, masks)
        if joint > best:
            accepted = candidate
            best = joint
            trace.append(TraceStep(index=i, informativity=joint))
    if not accepted:
        forced = order[0]
        accepted.append(forced)
        trace.append(TraceStep(index=forced, informativity=0.0))

    labels = tuple(1 if i in accepted else 0 for i in range(n))
    return LabeledSnippet(labels=labels, trace=tuple(trace))
