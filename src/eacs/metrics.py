"""Text-generation metrics: BLEU-4, METEOR, ROUGE-L, and a rank-sum test.

All scores live in [0, 1]. Sentence scores are averaged over a corpus rather
than pooled, and reports carry per-sample values, percentiles, and optional
length buckets. The reference sequence is always the first argument.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import lcs_len_ids, lcs_masks
from .errors import EmptyInput, ShapeError

TokenSeq = Sequence[str]

# Score names, in the column order of score_pair, and their report labels.
METRICS = {"bleu": "BLEU-4", "meteor": "METEOR", "rouge_l": "ROUGE-L"}
PERCENTILES = (5, 25, 50, 75, 95)

# ROUGE-L's recall weight; METEOR's precision/recall weight, fragmentation
# exponent and fragmentation weight.
ROUGE_BETA = 1.2
METEOR_ALPHA, METEOR_BETA, METEOR_GAMMA = 0.9, 3.0, 0.5

# Nodes (moves tried) the exact METEOR link search may visit per pair before
# it settles for the greedy packing: about 0.1 s. The 56,320 perfbench
# `score` pairs of seeds 101-110 need at most 76, random pairs of up to 12
# tokens over two to four tokens at most 547; some 20-token pairs over two
# tokens need more.
SEARCH_NODES = 20_000

# Steps the greedy packing may take per pair: each match on a common run it
# lists and each candidate a round scans. Once they are spent it keeps the
# links packed so far and the search is skipped. The 56,320 perfbench `score`
# pairs of seeds 101-110 take at most 53. A pair takes at most about 0.2 s
# and 25 MB of candidates here: a 400-token pair over two tokens, packed in
# full, took 0.17 s; a 6,000-token one stops in 0.1 s.
PACK_STEPS = 200_000

# Default bucket edges: code length in physical lines, comment length in tokens.
CODE_LINE_EDGES = (10, 20, 30, 40)
COMMENT_TOKEN_EDGES = (5, 10, 15, 20, 25)


def rouge_l(r: TokenSeq, g: TokenSeq, masks: Optional[dict] = None) -> float:
    """LCS-based F-measure of generated tokens ``g`` against reference ``r``.

    Recall is weighted by beta = 1.2. Returns 0 when the sequences share no
    common subsequence. ``masks`` is ``_kernels.lcs_masks(r)``, when the
    caller has it already.
    """
    if not r or not g:
        raise EmptyInput("rouge_l requires non-empty reference and hypothesis")
    lcs = lcs_len_ids(r, g, masks)
    if lcs == 0:
        return 0.0
    r_lcs = lcs / len(r)
    p_lcs = lcs / len(g)
    b2 = ROUGE_BETA * ROUGE_BETA
    return (1.0 + b2) * r_lcs * p_lcs / (r_lcs + b2 * p_lcs)


def _ngrams(seq: TokenSeq, n: int) -> Iterable:
    """The n-grams of ``seq`` in order; unigrams are the tokens themselves."""
    return iter(seq) if n == 1 else zip(*(seq[i:] for i in range(n)))


def _clipped_ngram_stats(ref_counts: Counter, g: TokenSeq, n: int) -> tuple[int, int]:
    total = max(len(g) - n + 1, 0)
    if total == 0:
        return 0, 0
    # Each n-gram of g matches while the reference has copies of it left.
    left = dict(ref_counts)
    matched = 0
    for gram in _ngrams(g, n):
        c = left.get(gram)
        if c:
            left[gram] = c - 1
            matched += 1
    return matched, total


@dataclass(frozen=True)
class RefProfile:
    """What scoring needs of one reference, counted once: its n-gram counts
    for n = 1..4 and its LCS bitmask table."""

    ngrams: tuple[Counter, ...]
    masks: dict

    def ngram_stats(self, g: TokenSeq) -> list[tuple[int, int]]:
        """Clipped-match and total n-gram counts of ``g`` against the
        reference for n = 1..4, counting g once per n."""
        return [_clipped_ngram_stats(c, g, n) for n, c in enumerate(self.ngrams, start=1)]


def profile_reference(r: TokenSeq) -> RefProfile:
    return RefProfile(tuple(Counter(_ngrams(r, n)) for n in range(1, 5)), lcs_masks(r))


def brevity_penalty(r_len: int, g_len: int) -> float:
    """BLEU's penalty for short hypotheses: 1 when |g| > |r|, else e^(1-|r|/|g|)."""
    if g_len > r_len:
        return 1.0
    return math.exp(1.0 - r_len / g_len)


def bleu4(r: TokenSeq, g: TokenSeq, stats: Optional[Sequence[tuple[int, int]]] = None) -> float:
    """Sentence BLEU with n = 1..4, uniform weights, and a brevity penalty.

    Precisions for n >= 2 get add-one smoothing on both numerator and
    denominator (short sentences would otherwise zero out routinely); a zero
    unigram precision short-circuits to 0. ``stats`` is
    ``profile_reference(r).ngram_stats(g)``, when the caller has it.
    """
    if not r or not g:
        raise EmptyInput("bleu4 requires non-empty reference and hypothesis")
    if stats is None:
        stats = profile_reference(r).ngram_stats(g)
    (m1, t1), *higher = stats
    if m1 == 0:
        return 0.0
    log_sum = math.log(m1 / t1)
    for mn, tn in higher:
        log_sum += math.log((mn + 1) / (tn + 1))
    return brevity_penalty(len(r), len(g)) * math.exp(0.25 * log_sum)


def alignment_stats(
    r: TokenSeq, g: TokenSeq, counts: Optional[tuple[int, int]]
) -> tuple[int, int, Optional[tuple[int, int]]]:
    """Exact-match alignment statistics for METEOR: (matches, chunks, bound).

    Among all alignments with the maximum number of exact unigram matches,
    picks one with the fewest chunks, where a chunk is a maximal run of
    matches contiguous and in order in both sequences.

    The match count m is the sum over token types of the smaller count. A
    *link* is a pair of aligned matches (i, j) and (i+1, j+1); chunks =
    m - L, where L is the most links any one-to-one alignment holds (a link
    set extends to a maximum alignment, as it takes the same tokens from
    both sides). L is found in three steps:

    - bound: L <= UB = min(m - 1, sum over bigrams of the smaller count);
      an exact copy reaches it with the identity alignment;
    - certificate: a greedy packing of the longest common blocks among
      unused positions gives links that reach UB on most comment pairs;
    - search: otherwise an exact search over bigram links alone, pruned by
      the per-bigram count of the links that remain, decides each target
      from UB down to one above the packing.

    Minimising chunks is a minimum common string partition, which is
    NP-hard, so the search may visit at most :data:`SEARCH_NODES` nodes, and
    the packing may take at most :data:`PACK_STEPS` steps. If either runs
    out, the links packed so far stand: a valid alignment, so METEOR is a
    lower bound, and ``bound`` is ``(packed links, UB)``; otherwise None.

    ``counts`` is (m, the bigram sum), BLEU's clipped unigram and bigram
    matches of the pair, when the caller has them.
    """
    if not r or not g:
        return 0, 0, None
    if r == g:
        return len(r), 1, None
    if counts is None:
        stats = profile_reference(r).ngram_stats(g)
        counts = stats[0][0], stats[1][0]
    m, shared = counts
    if m == 0:
        return 0, 0, None
    upper = min(m - 1, shared)
    if upper == 0:
        return m, m, None
    lower, packed = _packed_links(r, g, upper)
    if lower < upper:
        links = _max_links(r, g, lower, upper) if packed else None
        if links is None:
            return m, m - lower, (lower, upper)
        lower = links
    return m, m - lower, None


def _packed_links(r: TokenSeq, g: TokenSeq, upper: int) -> tuple[int, bool]:
    """Links of a greedy packing: the longest common block among unused
    positions first, the leftmost (in r, then g) on ties; stops at ``upper``.
    Returns (links, whether the packing finished within :data:`PACK_STEPS`).

    Each common run is measured once, from the match that starts it, and
    every match on it that leaves two or more tokens becomes a candidate
    with the rest of the run. Among unused positions, a candidate's block is
    that run cut at the next used position in r or in g, the distances
    ``free_r`` and ``free_g`` hold. Candidates are tried longest run first,
    so a round stops at the first run shorter than its best block.
    """
    n, n_g = len(r), len(g)
    positions: dict[str, list[int]] = {}
    for j, tok in enumerate(g):
        positions.setdefault(tok, []).append(j)
    steps = PACK_STEPS
    starts = []  # (run, i, j)
    for i, tok in enumerate(r):
        for j in positions.get(tok, ()):
            if i and j and r[i - 1] == g[j - 1]:
                continue  # on the run of the match before it, already paid for
            run = 1
            while i + run < n and j + run < n_g and r[i + run] == g[j + run]:
                run += 1
            steps -= run
            if steps < 0:
                return 0, False
            for t in range(run - 1):
                starts.append((run - t, i + t, j + t))
    starts.sort(reverse=True)
    free_r = list(range(n, 0, -1))
    free_g = list(range(n_g, 0, -1))
    links = 0
    while links < upper:
        size, at_r, at_g = 1, n, n_g
        for run, i, j in starts:
            if run < size:
                break
            k = run if run < free_r[i] else free_r[i]
            if free_g[j] < k:
                k = free_g[j]
            if k > size or (k == size and (i, j) < (at_r, at_g)):
                size, at_r, at_g = k, i, j
        if size == 1:
            break
        links += size - 1
        # The scan read every candidate whose run reaches the best block.
        steps -= bisect_right(starts, -size, key=lambda s: -s[0])
        if steps < 0:
            return links, False
        if links < upper:  # another round reads the block as used
            for free, at in ((free_r, at_r), (free_g, at_g)):
                free[at : at + size] = [0] * size
                p = at - 1
                while p >= 0 and free[p]:
                    free[p] = at - p
                    p -= 1
    return links, True


def _max_links(r: TokenSeq, g: TokenSeq, lower: int, upper: int) -> Optional[int]:
    """The most links an alignment holds if above ``lower`` (else ``lower``),
    knowing it is at most ``upper``; None once :data:`SEARCH_NODES` nodes
    (moves tried) have been visited without an answer.

    Walks r left to right. A state is (i, p, mask): r[:i] is decided; p is
    the g position r[i] is already linked to, or -1 if r[i] is free; mask
    holds the g positions links use. Each target from ``upper`` down is a
    depth-first search on an explicit stack, and a state that fails a need
    of k links is remembered, as it fails any larger need too.
    """
    n, n_g = len(r), len(g)
    starts: dict[tuple, list[int]] = {}  # g positions q of each bigram (g[q], g[q+1])
    for q in range(n_g - 1):
        starts.setdefault((g[q], g[q + 1]), []).append(q)
    bigram = [(r[i], r[i + 1]) if (r[i], r[i + 1]) in starts else None for i in range(n - 1)]
    bigram.append(None)
    # Every new link sets one bit of ends[b], the q+1 positions of its bigram.
    ends = {b: sum(1 << (q + 1) for q in qs) for b, qs in starts.items()}
    spans = {b: bits | bits >> 1 for b, bits in ends.items()}
    # From r position i on: the next link start, the shared bigrams still to
    # come with their counts, and the g positions any of them could use.
    after = [n] * (n + 1)
    remaining: list[tuple] = [()] * (n + 1)
    live = [0] * (n + 1)
    counts: Counter = Counter()
    for i in range(n - 1, -1, -1):
        b = bigram[i]
        after[i] = i if b is not None else after[i + 1]
        live[i] = live[i + 1]
        if b is not None:
            counts[b] += 1
            live[i] |= spans[b]
        remaining[i] = tuple(counts.items())
    fail: dict[tuple[int, int, int], int] = {}

    def linked(i: int, q: int, mask: int, need: int) -> tuple[int, int, int, int]:
        # r[i] now aligned to g[q]; keep the chain only if it can grow.
        if i + 1 < n and q + 1 < n_g and not mask >> (q + 1) & 1 and g[q + 1] == r[i + 1]:
            return i, q, mask, need
        return after[i + 1], -1, mask, need

    def enter(i: int, p: int, mask: int, need: int):
        # True if the need is met, False if it cannot be, else a stack
        # frame (key, need, moves) to search.
        if need <= 0:
            return True
        if i >= n - 1:
            return False
        mask &= live[i]
        key = (i, p, mask)
        known = fail.get(key)
        if known is None:  # first visit: the per-bigram bound caps the links to come
            known = fail[key] = 1 + sum(min(c, (ends[b] & ~mask).bit_count()) for b, c in remaining[i])
        if known <= need:
            return False
        if p >= 0:
            moves = [linked(i + 1, p + 1, mask | 1 << (p + 1), need - 1)]
        else:
            moves = [linked(i + 1, q + 1, mask | 3 << q, need - 1)
                     for q in starts[bigram[i]] if not mask >> q & 3]
        moves.append((after[i + 1], -1, mask, need))
        return key, need, iter(moves)

    nodes = SEARCH_NODES
    for target in range(upper, lower, -1):
        root = enter(after[0], -1, 0, target)
        stack = [root] if root else []
        while stack:
            nodes -= 1
            if nodes < 0:
                return None
            key, need, moves = stack[-1]
            move = next(moves, None)
            if move is None:
                fail[key] = need
                stack.pop()
                continue
            frame = enter(*move)
            if frame is True:
                return target
            if frame:
                stack.append(frame)
    return lower


def meteor(r: TokenSeq, g: TokenSeq) -> float:
    """Unigram-alignment metric with a fragmentation penalty.

    Exact-token alignment only (no stemming or synonym stages), with
    alpha=0.9, beta=3.0, gamma=0.5.
    """
    if not r or not g:
        raise EmptyInput("meteor requires non-empty reference and hypothesis")
    m, chunks, _ = alignment_stats(r, g, None)
    return _meteor_score(len(r), len(g), m, chunks)


def _meteor_score(r_len: int, g_len: int, m: int, chunks: int) -> float:
    """METEOR of a pair from its lengths and :func:`alignment_stats`."""
    if m == 0:
        return 0.0
    p_unig = m / g_len
    r_unig = m / r_len
    fmean = p_unig * r_unig / (METEOR_ALPHA * p_unig + (1.0 - METEOR_ALPHA) * r_unig)
    frag = chunks / m
    return (1.0 - METEOR_GAMMA * frag**METEOR_BETA) * fmean


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


def _exact_u_cdf(n: int, m: int, u_max: int) -> float:
    """P(U <= u_max) under the null, by counting rank splits.

    c(a, b, u) = c(a-1, b, u-b) + c(a, b-1, u), with c(a, 0) = c(0, b) the
    single split at u = 0; row b of ``c`` holds c(a, b, .) as a runs from 0
    to n. Total splits C(n+m, n). Every count is an integer below 2^53, so
    each sum is exact.
    """
    size = n * m + 1
    c = np.zeros((m + 1, size))
    c[:, 0] = 1.0
    for _ in range(n):
        for b in range(1, m + 1):
            c[b, b:] = c[b, : size - b]
            c[b, :b] = 0.0
            c[b] += c[b - 1]
    return float(c[m, : u_max + 1].sum() / c[m].sum())


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
    # Midranks: a run of ties at sorted positions i..j (0-based) all get
    # (i + j) / 2 + 1, which is the run's end minus (count - 1) / 2.
    _, inverse, counts = np.unique(np.concatenate([xs, ys]), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse].tolist()
    u1 = sum(ranks[:n]) - n * (n + 1) / 2.0
    u2 = n * m - u1
    has_ties = len(counts) < n + m

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
        tie_term = sum(t**3 - t for t in counts.tolist())
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


def bucket_label(value: int, edges: tuple[int, ...]) -> str:
    lo = 1
    for hi in edges:
        if value <= hi:
            return f"{lo}-{hi}"
        lo = hi + 1
    return f">{edges[-1]}"


@dataclass
class MetricReport:
    """Per-sample scores keyed by :data:`METRICS`, with optional bucket
    sub-reports, and the pairs whose METEOR is only a lower bound."""

    scores: dict[str, np.ndarray]
    buckets: dict[str, "MetricReport"] = field(default_factory=dict)
    # One {"index", "links": [packed, UB]} entry per pair whose link search
    # ran out of nodes (see alignment_stats); `evaluate` adds each entry's file.
    meteor_bounded: list[dict] = field(default_factory=list)

    def to_record(self) -> dict:
        """Sample count, means, percentiles and samples, bucket records nested."""
        rec = {
            "n_samples": len(self.scores["bleu"]),
            "means": {k: float(v.mean()) for k, v in self.scores.items()},
            "percentiles": {
                k: dict(zip(map(str, PERCENTILES), np.percentile(v, PERCENTILES).tolist()))
                for k, v in self.scores.items()
            },
            "samples": {k: v.tolist() for k, v in self.scores.items()},
        }
        if self.buckets:
            rec["buckets"] = {k: v.to_record() for k, v in self.buckets.items()}
        if self.meteor_bounded:
            rec["meteor_bounded"] = self.meteor_bounded
        return rec


def score_pair(
    r: TokenSeq, g: TokenSeq, profile: RefProfile
) -> tuple[tuple[float, float, float], Optional[tuple[int, int]]]:
    """(BLEU-4, METEOR, ROUGE-L) of one pair and METEOR's ``bound`` from
    :func:`alignment_stats`; an empty hypothesis scores 0 on all three (an
    empty reference still raises :class:`EmptyInput`).

    ``profile`` is ``profile_reference(r)``. The hypothesis's n-grams are
    counted once: BLEU's clipped unigram and bigram matches are METEOR's m
    and bigram bound.
    """
    if r and not g:
        return (0.0, 0.0, 0.0), None
    stats = profile.ngram_stats(g)
    bleu = bleu4(r, g, stats)
    m, chunks, bound = alignment_stats(r, g, (stats[0][0], stats[1][0]))
    return (bleu, _meteor_score(len(r), len(g), m, chunks), rouge_l(r, g, profile.masks)), bound


def evaluate_corpus(
    refs: Sequence[TokenSeq],
    hyps: Sequence[TokenSeq],
    profiles: Sequence[RefProfile],
    buckets: Optional[tuple[str, Sequence[int]]] = None,
) -> MetricReport:
    """Score each (reference, hypothesis) pair and aggregate.

    Per-sample scoring is order-independent; means are plain arithmetic
    averages. ``buckets`` is (kind, lengths): "code" with each sample's
    snippet line count, or "comment" with its reference token count; each
    length range gets a sub-report. ``profiles`` holds
    ``profile_reference(r)`` for each reference, so that several hypothesis
    files scored against one reference file count it once.
    """
    if len(refs) != len(hyps):
        raise ShapeError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    if not refs:
        raise EmptyInput("evaluate_corpus needs at least one pair")
    if buckets is not None and len(buckets[1]) != len(refs):
        raise ShapeError(f"{len(buckets[1])} bucket lengths vs {len(refs)} pairs")
    if len(profiles) != len(refs):
        raise ShapeError(f"{len(refs)} references vs {len(profiles)} profiles")
    rows, meteor_bounded = [], []
    for i, (r, g, profile) in enumerate(zip(refs, hyps, profiles)):
        scores, bound = score_pair(r, g, profile)
        rows.append(scores)
        if bound:
            meteor_bounded.append({"index": i, "links": list(bound)})
    arr = np.array(rows, dtype=np.float64)
    report = MetricReport(dict(zip(METRICS, arr.T)), meteor_bounded=meteor_bounded)

    if buckets is not None:
        kind, lengths = buckets
        edges = CODE_LINE_EDGES if kind == "code" else COMMENT_TOKEN_EDGES
        # Groups created in edge order, so the buckets come out shortest first.
        groups = {bucket_label(hi, edges): [] for hi in edges + (edges[-1] + 1,)}
        for i, val in enumerate(lengths):
            groups[bucket_label(int(val), edges)].append(i)
        for label, idx in groups.items():
            if idx:
                report.buckets[f"{kind} {label}"] = MetricReport(
                    {k: v[idx] for k, v in report.scores.items()}
                )
    return report
