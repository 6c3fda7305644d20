"""Text-generation metrics: BLEU-4, METEOR, ROUGE-L, and a rank-sum test.

All scores live in [0, 1]. Sentence scores are averaged over a corpus rather
than pooled, and reports carry per-sample values, percentiles, and optional
length buckets. The reference sequence is always the first argument.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._kernels import lcs_len_ids
from .errors import EmptyInput, ShapeError

TokenSeq = Sequence[str]

PERCENTILES = (5, 25, 50, 75, 95)

# Default bucket edges: code length in physical lines, comment length in tokens.
CODE_LINE_EDGES = (10, 20, 30, 40)
COMMENT_TOKEN_EDGES = (5, 10, 15, 20, 25)


def lcs_length(r: TokenSeq, g: TokenSeq) -> int:
    """Length of a longest common subsequence of two token sequences."""
    if not r or not g:
        return 0
    return lcs_len_ids(r, g)


def rouge_l(r: TokenSeq, g: TokenSeq, beta: float = 1.2) -> float:
    """LCS-based F-measure of generated tokens ``g`` against reference ``r``.

    Recall weighting ``beta`` defaults to 1.2. Returns 0 when the sequences
    share no common subsequence.
    """
    if not r or not g:
        raise EmptyInput("rouge_l requires non-empty reference and hypothesis")
    lcs = lcs_length(r, g)
    if lcs == 0:
        return 0.0
    r_lcs = lcs / len(r)
    p_lcs = lcs / len(g)
    b2 = beta * beta
    return (1.0 + b2) * r_lcs * p_lcs / (r_lcs + b2 * p_lcs)


def rouge_l_recall(r: TokenSeq, g: TokenSeq) -> float:
    """LCS recall: LCS(r, g) / |r|. The informativity measure of the oracle."""
    if not r:
        raise EmptyInput("rouge_l_recall requires a non-empty reference")
    if not g:
        return 0.0
    return lcs_length(r, g) / len(r)


def modified_ngram_stats(r: TokenSeq, g: TokenSeq, n: int) -> tuple[int, int]:
    """Raw clipped-match and total n-gram counts of ``g`` against ``r``."""
    total = max(len(g) - n + 1, 0)
    if total == 0:
        return 0, 0
    ref_counts = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
    hyp_counts = Counter(tuple(g[i : i + n]) for i in range(total))
    matched = sum(min(c, ref_counts[gram]) for gram, c in hyp_counts.items())
    return matched, total


def brevity_penalty(r_len: int, g_len: int) -> float:
    """BLEU's penalty for short hypotheses: 1 when |g| > |r|, else e^(1-|r|/|g|)."""
    if g_len > r_len:
        return 1.0
    return math.exp(1.0 - r_len / g_len)


def bleu4(r: TokenSeq, g: TokenSeq) -> float:
    """Sentence BLEU with n = 1..4, uniform weights, and a brevity penalty.

    Precisions for n >= 2 get add-one smoothing on both numerator and
    denominator (short sentences would otherwise zero out routinely); a zero
    unigram precision short-circuits to 0.
    """
    if not r or not g:
        raise EmptyInput("bleu4 requires non-empty reference and hypothesis")
    m1, t1 = modified_ngram_stats(r, g, 1)
    if m1 == 0:
        return 0.0
    log_sum = math.log(m1 / t1)
    for n in range(2, 5):
        mn, tn = modified_ngram_stats(r, g, n)
        log_sum += math.log((mn + 1) / (tn + 1))
    return brevity_penalty(len(r), len(g)) * math.exp(0.25 * log_sum)


def alignment_stats(r: TokenSeq, g: TokenSeq) -> tuple[int, int]:
    """Exact-match alignment statistics for METEOR: (matches, chunks).

    Among all alignments with the maximum number of exact unigram matches,
    picks one with the fewest chunks, where a chunk is a maximal run of
    matches contiguous and in order in both sequences. Solved exactly by a
    memoized search with a bitmask over the shorter side; comment-scale
    sequences keep the state space small.
    """
    if not r or not g:
        return 0, 0
    # Mask the shorter side; matches and chunk adjacency are symmetric.
    if len(r) <= len(g):
        scan, pool = list(g), list(r)
    else:
        scan, pool = list(r), list(g)
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(pool):
        positions.setdefault(tok, []).append(j)

    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def best(i: int, prev_j: int, mask: int) -> tuple[int, int]:
        # Returns (matches, -chunks) for scan[i:], maximized lexicographically.
        if i == len(scan):
            return 0, 0
        key = (i, prev_j, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = best(i + 1, -1, mask)
        for j in positions.get(scan[i], ()):
            if mask & (1 << j):
                continue
            extends = j == prev_j + 1 and prev_j >= 0
            m2, negc2 = best(i + 1, j, mask | (1 << j))
            cand = (m2 + 1, negc2 - (0 if extends else 1))
            if cand > res:
                res = cand
        memo[key] = res
        return res

    matches, neg_chunks = best(0, -1, 0)
    # `best` refers to itself through its closure cell; unbinding it breaks
    # that cycle, so the memo is freed now, not at the next cyclic collection.
    best = None
    return matches, -neg_chunks


def meteor(
    r: TokenSeq,
    g: TokenSeq,
    alpha: float = 0.9,
    beta: float = 3.0,
    gamma: float = 0.5,
) -> float:
    """Unigram-alignment metric with a fragmentation penalty.

    Exact-token alignment only (no stemming or synonym stages); parameters
    default to alpha=0.9, beta=3.0, gamma=0.5.
    """
    if not r or not g:
        raise EmptyInput("meteor requires non-empty reference and hypothesis")
    m, chunks = alignment_stats(r, g)
    if m == 0:
        return 0.0
    p_unig = m / len(g)
    r_unig = m / len(r)
    fmean = p_unig * r_unig / (alpha * p_unig + (1.0 - alpha) * r_unig)
    frag = chunks / m
    return (1.0 - gamma * frag**beta) * fmean


@dataclass(frozen=True)
class SignificanceResult:
    u_statistic: float
    p_value: float
    method: str  # "exact" or "normal-approx"
    band: str  # "ns", "*", "**", "***", "****"


def significance_band(p: float) -> str:
    if p < 0.0001:
        return "****"
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "ns"


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _exact_u_cdf(n: int, m: int, u_max: int) -> float:
    """P(U <= u_max) under the null, by counting rank splits.

    c(n, m, u) = c(n-1, m, u-m) + c(n, m-1, u); total splits C(n+m, n).
    """
    size = n * m + 1
    table = {(0, 0): np.zeros(size)}

    def counts(a: int, b: int) -> np.ndarray:
        got = table.get((a, b))
        if got is not None:
            return got
        arr = np.zeros(size)
        if a == 0 or b == 0:
            arr[0] = 1.0
        else:
            left = counts(a - 1, b)
            arr[b:] += left[: size - b]
            arr += counts(a, b - 1)
        table[(a, b)] = arr
        return arr

    table[(0, 0)][0] = 1.0
    dist = counts(n, m)
    total = dist.sum()
    return float(dist[: u_max + 1].sum() / total)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u_test(
    xs: Sequence[float], ys: Sequence[float], method: str = "auto"
) -> SignificanceResult:
    """Unpaired two-tailed Wilcoxon-Mann-Whitney rank-sum test.

    Exact enumeration of the U distribution when the pooled sample has at
    most 20 tie-free values; otherwise a normal approximation with tie and
    continuity corrections. ``method`` can force "exact" or "normal-approx"
    (ties still fall back to the approximation). The reported U statistic
    counts (x > y) pairs.
    """
    n, m = len(xs), len(ys)
    if n < 1 or m < 1:
        raise EmptyInput("both samples must be non-empty")
    if method not in ("auto", "exact", "normal-approx"):
        raise ValueError(f"unknown method {method!r}")
    pooled = list(xs) + list(ys)
    ranks = _midranks(pooled)
    r1 = sum(ranks[:n])
    u1 = r1 - n * (n + 1) / 2.0
    u2 = n * m - u1
    has_ties = len(set(pooled)) < len(pooled)

    if method == "auto":
        method = "exact" if (n + m <= 20 and not has_ties) else "normal-approx"
    if method == "exact" and n + m > 24:
        raise ValueError("exact enumeration is limited to pooled samples of 24")
    if method == "exact" and not has_ties:
        u_min = int(round(min(u1, u2)))
        p = min(1.0, 2.0 * _exact_u_cdf(n, m, u_min))
    else:
        mu = n * m / 2.0
        big_n = n + m
        tie_term = sum(t**3 - t for t in Counter(pooled).values())
        var = n * m / 12.0 * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
        if var <= 0:
            p = 1.0
        else:
            z = (max(u1, u2) - mu - 0.5) / math.sqrt(var)
            p = min(1.0, 2.0 * _normal_sf(z))
        method = "normal-approx"  # forced exact degrades to this on ties
    return SignificanceResult(
        u_statistic=u1, p_value=p, method=method, band=significance_band(p)
    )


@dataclass(frozen=True)
class BucketSpec:
    """Length-bucket request for corpus evaluation.

    ``kind`` is "code" (bucket by snippet line count) or "comment" (bucket by
    reference token count). ``lengths`` supplies the per-sample basis; for
    comment buckets it defaults to the reference lengths.
    """

    kind: str
    edges: tuple[int, ...] = ()
    lengths: Optional[Sequence[int]] = None

    def resolved_edges(self) -> tuple[int, ...]:
        if self.edges:
            return self.edges
        return CODE_LINE_EDGES if self.kind == "code" else COMMENT_TOKEN_EDGES


def bucket_label(value: int, edges: tuple[int, ...]) -> str:
    lo = 1
    for hi in edges:
        if value <= hi:
            return f"{lo}-{hi}"
        lo = hi + 1
    return f">{edges[-1]}"


@dataclass
class MetricReport:
    bleu: np.ndarray
    meteor: np.ndarray
    rouge_l: np.ndarray
    buckets: dict[str, "MetricReport"] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.bleu.shape[0])

    def means(self) -> dict[str, float]:
        return {
            "bleu": float(self.bleu.mean()),
            "meteor": float(self.meteor.mean()),
            "rouge_l": float(self.rouge_l.mean()),
        }

    def percentiles(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for name, vals in (("bleu", self.bleu), ("meteor", self.meteor), ("rouge_l", self.rouge_l)):
            out[name] = {p: float(np.percentile(vals, p)) for p in PERCENTILES}
        return out

    def to_record(self) -> dict:
        rec = {
            "n_samples": self.size,
            "means": self.means(),
            "percentiles": {k: {str(p): v for p, v in d.items()} for k, d in self.percentiles().items()},
            "samples": {
                "bleu": [float(x) for x in self.bleu],
                "meteor": [float(x) for x in self.meteor],
                "rouge_l": [float(x) for x in self.rouge_l],
            },
        }
        if self.buckets:
            rec["buckets"] = {k: v.to_record() for k, v in self.buckets.items()}
        return rec


def score_pair(r: TokenSeq, g: TokenSeq) -> tuple[float, float, float]:
    return bleu4(r, g), meteor(r, g), rouge_l(r, g)


def evaluate_corpus(
    refs: Sequence[TokenSeq],
    hyps: Sequence[TokenSeq],
    buckets: Optional[BucketSpec] = None,
) -> MetricReport:
    """Score each (reference, hypothesis) pair and aggregate.

    Per-sample scoring is order-independent; means are plain arithmetic
    averages. With a bucket spec, sub-reports are built per length range.
    """
    if len(refs) != len(hyps):
        raise ShapeError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    if not refs:
        raise EmptyInput("evaluate_corpus needs at least one pair")
    triples = [score_pair(r, g) for r, g in zip(refs, hyps)]
    arr = np.array(triples, dtype=np.float64)
    report = MetricReport(bleu=arr[:, 0], meteor=arr[:, 1], rouge_l=arr[:, 2])

    if buckets is not None:
        lengths = buckets.lengths
        if lengths is None:
            if buckets.kind != "comment":
                raise ShapeError("code buckets need per-sample line counts")
            lengths = [len(r) for r in refs]
        if len(lengths) != len(refs):
            raise ShapeError("bucket lengths must align with samples")
        edges = buckets.resolved_edges()
        groups: dict[str, list[int]] = {}
        for i, val in enumerate(lengths):
            groups.setdefault(bucket_label(int(val), edges), []).append(i)
        for label in sorted(groups, key=lambda s: _bucket_sort_key(s)):
            idx = groups[label]
            report.buckets[f"{buckets.kind} {label}"] = MetricReport(
                bleu=arr[idx, 0], meteor=arr[idx, 1], rouge_l=arr[idx, 2]
            )
    return report


def _bucket_sort_key(label: str) -> int:
    head = label.lstrip(">").split("-")[0]
    return int(head)
