"""Independent brute-force implementations used to verify the package.

Everything here is written from the metric definitions with no shared code:
full-table LCS, Counter-based n-gram stats, per-type assignment enumeration
for the METEOR alignment, and a standalone copy of the greedy labeling rule.
The decoder references drive a model's own ``decode_step`` one hypothesis at
a time, so they check the batched search and loss, not the model.
``alignment_reference``, ``adamw_reference``, ``java_fragments_reference``
and ``tokenize_code_reference`` are the earlier, plainer implementations that
the faster ones must match exactly; ``lstm_reference`` is a textbook LSTM
that shares no code with ``numcore``, and ``lstm_over_reference`` is the
earlier ``lstm_over`` loop that the live-row one must match bit for bit.
"""

import itertools
import math
import re
from collections import Counter

import numpy as np

from eacs.abstracter import LOGPROB_CLAMP, DecodeResult, fuse
from eacs.corpus import BOS, EOS


def lcs_brute(r, g):
    n, m = len(r), len(g)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if r[i - 1] == g[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


def ngram_stats_brute(r, g, n):
    total = max(len(g) - n + 1, 0)
    if total == 0:
        return 0, 0
    ref = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
    matched = 0
    hyp = Counter(tuple(g[i : i + n]) for i in range(total))
    for gram, count in hyp.items():
        matched += min(count, ref.get(gram, 0))
    return matched, total


def bleu4_brute(r, g):
    m1, t1 = ngram_stats_brute(r, g, 1)
    if m1 == 0:
        return 0.0
    acc = math.log(m1 / t1)
    for n in (2, 3, 4):
        mn, tn = ngram_stats_brute(r, g, n)
        acc += math.log((mn + 1) / (tn + 1))
    bp = 1.0 if len(g) > len(r) else math.exp(1.0 - len(r) / len(g))
    return bp * math.exp(acc / 4.0)


def rouge_l_brute(r, g, beta=1.2):
    lcs = lcs_brute(r, g)
    if lcs == 0:
        return 0.0
    rec = lcs / len(r)
    prec = lcs / len(g)
    return (1 + beta**2) * rec * prec / (rec + beta**2 * prec)


def _chunks_of(pairs):
    # pairs: (g_pos, r_pos) matches; a chunk breaks unless both advance by 1.
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for gp, rp in pairs:
        if prev is None or (gp, rp) != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = (gp, rp)
    return chunks


def meteor_alignment_brute(r, g):
    """(matches, min chunks) by enumerating every maximum exact alignment."""
    r_pos = {}
    g_pos = {}
    for i, tok in enumerate(r):
        r_pos.setdefault(tok, []).append(i)
    for i, tok in enumerate(g):
        g_pos.setdefault(tok, []).append(i)
    shared = sorted(set(r_pos) & set(g_pos))
    if not shared:
        return 0, 0
    per_type = []
    m = 0
    for tok in shared:
        rp, gp = r_pos[tok], g_pos[tok]
        k = min(len(rp), len(gp))
        m += k
        options = []
        for g_sel in itertools.combinations(gp, k):
            for r_sel in itertools.permutations(rp, k):
                options.append(tuple(zip(g_sel, r_sel)))
        per_type.append(options)
    best = None
    for combo in itertools.product(*per_type):
        pairs = [p for group in combo for p in group]
        chunks = _chunks_of(pairs)
        if best is None or chunks < best:
            best = chunks
    return m, best


def alignment_reference(r, g):
    """(matches, min chunks) by a memoized search over every position.

    The previous ``metrics.alignment_stats``: exact, and exponential in
    repeated matched tokens. It scans the longer side with a bitmask over
    the shorter one and maximizes (matches, -chunks).
    """
    if not r or not g:
        return 0, 0
    if len(r) <= len(g):
        scan, pool = list(g), list(r)
    else:
        scan, pool = list(r), list(g)
    positions = {}
    for j, tok in enumerate(pool):
        positions.setdefault(tok, []).append(j)
    memo = {}

    def best(i, prev_j, mask):
        if i == len(scan):
            return 0, 0
        key = (i, prev_j, mask)
        if key not in memo:
            res = best(i + 1, -1, mask)
            for j in positions.get(scan[i], ()):
                if not mask & (1 << j):
                    m2, negc2 = best(i + 1, j, mask | (1 << j))
                    res = max(res, (m2 + 1, negc2 - (0 if j == prev_j + 1 and prev_j >= 0 else 1)))
            memo[key] = res
        return memo[key]

    matches, neg_chunks = best(0, -1, 0)
    return matches, -neg_chunks


def meteor_brute(r, g, alpha=0.9, beta=3.0, gamma=0.5):
    m, chunks = meteor_alignment_brute(r, g)
    if m == 0:
        return 0.0
    p = m / len(g)
    rec = m / len(r)
    fmean = p * rec / (alpha * p + (1 - alpha) * rec)
    return (1 - gamma * (chunks / m) ** beta) * fmean


def rank_sum_reference(xs, ys, method="auto"):
    """(U, two-tailed p, method) of the rank-sum test: midranks by a sorted
    walk, and the exact p by enumerating every split of the pooled ranks."""
    n, m = len(xs), len(ys)
    pooled = list(xs) + list(ys)
    order = sorted(range(n + m), key=lambda i: pooled[i])
    ranks = [0.0] * (n + m)
    i = 0
    while i < n + m:
        j = i
        while j + 1 < n + m and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    u1 = sum(ranks[:n]) - n * (n + 1) / 2.0
    has_ties = len(set(pooled)) < n + m
    if method == "auto":
        method = "exact" if n + m <= 20 and not has_ties else "normal-approx"
    if method == "exact" and not has_ties:
        # With 0-based ranks, a split's U is its x rank sum minus n(n-1)/2.
        u_min = min(u1, n * m - u1)
        splits = list(itertools.combinations(range(n + m), n))
        below = sum(sum(c) - n * (n - 1) // 2 <= u_min for c in splits)
        return u1, min(1.0, 2.0 * below / len(splits)), "exact"
    big_n = n + m
    tie_term = sum(t**3 - t for t in Counter(pooled).values())
    var = n * m / 12.0 * (big_n + 1 - tie_term / (big_n * (big_n - 1)))
    if var <= 0:
        return u1, 1.0, "normal-approx"
    z = (max(u1, n * m - u1) - n * m / 2.0 - 0.5) / math.sqrt(var)
    return u1, min(1.0, math.erfc(z / math.sqrt(2.0))), "normal-approx"


def recall_brute(comment, tokens):
    if not tokens:
        return 0.0
    return lcs_brute(comment, tokens) / len(comment)


def greedy_labels_brute(statement_tokens, comment):
    """Standalone copy of the ranked-scan greedy labeling rule.

    Returns (labels, trace) where trace is [(index, joint informativity)].
    """
    n = len(statement_tokens)

    def joint(selected):
        merged = []
        for i in sorted(selected):
            merged.extend(statement_tokens[i])
        return recall_brute(comment, merged)

    individual = [joint([i]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (-individual[i], i))
    accepted = []
    best = 0.0
    trace = []
    for i in order:
        score = joint(accepted + [i])
        if score > best:
            accepted.append(i)
            best = score
            trace.append((i, score))
    if not accepted:
        forced = order[0]
        accepted.append(forced)
        trace.append((forced, 0.0))
    labels = [1 if i in accepted else 0 for i in range(n)]
    return labels, trace


def best_subset_informativity(statement_tokens, comment):
    """Exhaustive best joint informativity over all statement subsets."""
    n = len(statement_tokens)
    best = 0.0
    for mask in range(1, 1 << n):
        merged = []
        for i in range(n):
            if mask & (1 << i):
                merged.extend(statement_tokens[i])
        best = max(best, recall_brute(comment, merged))
    return best


def step_distributions(model, sample):
    """Inference-mode per-step distributions under teacher forcing, one step at a time."""
    e_ex = model.encode_extractive(sample.important_ids)
    e_ab = model.encode_abstractive(sample.code_ids)
    h, c, u = model.init_decoder(fuse(e_ex, e_ab, model.config.fusion))
    out = []
    for y_prev in sample.comment_ids[:-1]:
        h, c, probs = model.decode_step(np.array([y_prev]), h, c, u)
        out.append(probs.data[0].copy())
    return out


def beam_reference(model, e_fu, vocab, max_len, width):
    """Beam search that runs ``decode_step`` on one hypothesis at a time."""
    h0, c0, u = model.init_decoder(e_fu)
    # hypothesis: (ids, step log-probs, total, h, c, finished)
    beams = [((), (), 0.0, h0, c0, False)]
    for _ in range(max_len):
        if all(b[5] for b in beams):
            break
        candidates = []
        for ids, lps, total, h, c, finished in beams:
            if finished:
                candidates.append((ids, lps, total, h, c, True))
                continue
            y_prev = ids[-1] if ids else BOS
            h2, c2, probs = model.decode_step(np.array([y_prev]), h, c, u)
            dist = np.log(np.maximum(probs.data[0], LOGPROB_CLAMP))
            for tok in np.argsort(-dist, kind="stable")[:width]:
                tok = int(tok)
                lp = float(dist[tok])
                candidates.append((ids + (tok,), lps + (lp,), total + lp, h2, c2, tok == EOS))
        candidates.sort(key=lambda b: (-b[2], b[0]))
        beams = candidates[:width]
    best = min(beams, key=lambda b: (-b[2], b[0]))
    ids = [i for i in best[0] if i != EOS]
    return DecodeResult(tokens=vocab.decode(ids), step_log_probs=list(best[1]))


def lstm_reference(x, wx, wh, b, lengths, h0, c0):
    """A float64 LSTM, gates i, f, g, o, with sigmoid(z) = 1 / (1 + e^-z).

    Runs sequence k of ``x`` (B, T, D) for ``lengths[k]`` steps from
    (h0[k], c0[k]). Returns each sequence's list of step hidden states and
    the final (h, c), each (B, H).
    """

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hidden = wh.shape[0]
    states, final_h, final_c = [], [], []
    for k, n in enumerate(lengths):
        h, c = h0[k], c0[k]
        seq = []
        for t in range(n):
            z = x[k, t] @ wx + h @ wh + b
            i, f, g, o = (z[j * hidden : (j + 1) * hidden] for j in range(4))
            c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
            h = sigmoid(o) * np.tanh(c)
            seq.append(h)
        states.append(seq)
        final_h.append(h)
        final_c.append(c)
    return states, np.array(final_h), np.array(final_c)


def lstm_over_reference(x, wx, wh, b, lengths, h0, c0, collect, g_out, g_c):
    """The earlier ``numcore.lstm_over`` loop, run over every row at every step.

    Arrays in, arrays out: ``x`` is (B, T, D) and ``g_out``, ``g_c`` are the
    upstream gradients of the two outputs. Returns (out, c, grads), where
    grads holds the gradients of x, wx, wh, b, h0 and c0. Padded rows are
    computed and then masked with ``np.where``, so the live-row op must match
    it bit for bit.
    """
    n, steps, width = x.shape
    hidden = wh.shape[0]
    scale = np.full(4 * hidden, 0.5, dtype=x.dtype)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = np.full(4 * hidden, 0.5, dtype=x.dtype)
    shift[2 * hidden : 3 * hidden] = 0.0
    slope = scale * scale
    live = None
    if lengths.min(initial=steps) < steps:
        live = (np.arange(steps)[:, None] < lengths)[:, :, None]
    xw = (x.reshape(n * steps, width) @ wx + b).reshape(n, steps, 4 * hidden)
    hs = np.empty((n, steps + 1, hidden), dtype=x.dtype)
    cs = np.empty_like(hs)
    hs[:, 0], cs[:, 0] = h0, c0
    saved = []
    for t in range(steps):
        a = np.tanh((xw[:, t] + hs[:, t] @ wh) * scale)
        gates = a * scale + shift
        i, f, g, o = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c = f * cs[:, t] + i * g
        tc = np.tanh(c)
        h = o * tc
        if live is not None:
            h = np.where(live[t], h, hs[:, t])
            c = np.where(live[t], c, cs[:, t])
        hs[:, t + 1], cs[:, t + 1] = h, c
        saved.append((a, gates, tc))
    out = hs[:, 1:] if collect else hs[:, steps].copy()
    c_out = cs[:, steps].copy()

    dz = np.empty((n, steps, 4 * hidden), dtype=x.dtype)
    dh = np.zeros((n, hidden), dtype=x.dtype) if collect else g_out
    dc = g_c
    for t in reversed(range(steps)):
        if collect:
            dh = dh + g_out[:, t]
        a, gates, tc = saved[t]
        i, f, g, o = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        dc_t = dc + dh * o * (1.0 - tc * tc)
        dgates = np.empty_like(gates)
        dgates[:, :hidden] = dc_t * g
        dgates[:, hidden : 2 * hidden] = dc_t * cs[:, t]
        dgates[:, 2 * hidden : 3 * hidden] = dc_t * i
        dgates[:, 3 * hidden :] = dh * tc
        dz_t = dgates * (1.0 - a * a) * slope
        dc_prev = dc_t * f
        if live is not None:
            dz_t *= live[t]
        dh_prev = (wh @ dz_t.T).T
        if live is not None:
            dh_prev = np.where(live[t], dh_prev, dh)
            dc_prev = np.where(live[t], dc_prev, dc)
        dz[:, t] = dz_t
        dh, dc = dh_prev, dc_prev
    dz = dz.reshape(n * steps, 4 * hidden)
    grads = (
        (dz @ wx.T).reshape(x.shape),
        x.reshape(n * steps, width).T @ dz,
        hs[:, :steps].reshape(n * steps, hidden).T @ dz,
        dz.sum(axis=0),
        dh,
        dc,
    )
    return out, c_out, grads


def adamw_reference(params, grads, steps, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
    """The AdamW update with fresh temporaries, as first written.

    ``grads[t][k]`` is parameter k's gradient at step t, or None for zero.
    Updates copies of ``params`` and returns them.
    """
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for k, p in enumerate(params):
            grad = grads[t - 1][k]
            if grad is None:
                grad = np.zeros_like(p)
            m[k] *= beta1
            m[k] += (1.0 - beta1) * grad
            v[k] *= beta2
            v[k] += (1.0 - beta2) * grad * grad
            m_hat = m[k] / bc1
            v_hat = v[k] / bc2
            p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)
    return params


def java_fragments_reference(code):
    """Per-character Java walk: split after ';', '{', '}' outside literals and comments."""
    fragments = []
    buf = []
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
        elif state in ("string", "char"):
            if ch == "\\":
                if i + 1 < n:
                    buf.append(nxt)
                    i += 1
            elif ch == ('"' if state == "string" else "'"):
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


_REF_RUN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")
_REF_PIECE_RE = re.compile(r"[0-9]+|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


def tokenize_code_reference(text):
    """Two-pass code tokenizer: character runs, then camelCase pieces per word."""
    tokens = []
    for run in _REF_RUN_RE.findall(text):
        if run[0].isalnum() or run[0] == "_":
            for word in run.split("_"):
                merged = []
                for piece in _REF_PIECE_RE.findall(word):
                    # Digit runs belong to the subtoken before them.
                    if piece[0].isdigit() and merged:
                        merged[-1] += piece
                    else:
                        merged.append(piece)
                tokens.extend(p.lower() for p in merged)
        else:
            tokens.append(run)
    return tokens
