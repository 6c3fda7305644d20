"""The three benchmark workloads and their correctness checks.

Each workload has a set-up step, repeated to time it, and a measured pass
that drives eacs with one closed-loop client for the run's time budget.
End-to-end calls go through ``eacs.cli.main(argv)`` in-process, so argument
parsing, file I/O and checkpoint save/load count as they do for a user.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import logging
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import gen

perf_counter = time.perf_counter

# 33 pairs x 8 epochs: at 5 epochs beam 4 still returns empty summaries for
# some seeds (an undertrained model prefers EOS first), which the summary check
# would count against decoding rather than against training length.
PIPE_PAIRS = 33
PIPE_EPOCHS = 8
PIPE_HELD_OUT = 100  # every snippet is decoded in both modes, so p90 has ten samples beyond it
SCORE_CHUNK = 88  # 8 x 11 statement counts and 11 x 8 comment lengths
# About one pass in a 30 s window. METEOR's cost sits in a few pairs, so a
# large pool keeps seeds alike.
SCORE_CHUNKS = 32
CHECK_SUBSAMPLE = 24
WIDE = dict(vocab=5000, width=512, batch=4, code=120, important=30, steps=21)
SETUP_REPEATS = 5
REF_REPEATS = 3
PROBE_EVERY_S = 0.5


# -- measurement helpers ------------------------------------------------------


def python_mix():
    """Reference for the desk pipeline and scoring: integer arithmetic, dict
    and string churn, and numpy calls on tiny arrays, in roughly equal parts.
    Desk training tracked it with slope 0.93 (log time against log probe);
    each part alone tracked it less well."""
    rng = np.random.default_rng(0)
    weights = (rng.standard_normal((128, 256)) * 0.05).astype(np.float32)
    start = np.ones((1, 128), dtype=np.float32)

    def run() -> None:
        acc = 0
        for i in range(10_000):
            acc += i * i
        table = {}
        for i in range(2_000):
            table[(i, str(i & 15))] = [i, i + 1]
        h = start
        for _ in range(50):
            h = np.tanh(h @ weights)[:, :128]

    return run


def integer_loop():
    """Reference for the published-width step, which tracked it with slope
    0.98; an 8 MB numpy stream and the mix above tracked it with 0.44 and 0.37."""

    def run() -> None:
        acc = 0
        for i in range(30_000):
            acc += i * i

    return run


# Reference factories, with each reference's time on an idle core of a
# 2-core shared x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS).
REFERENCES = {"mix": (python_mix, 0.002), "loop": (integer_loop, 0.002)}


class HostClock:
    """Expresses measured times at a nominal host speed.

    On a 2-core shared x86-64 VM, identical work ran up to 1.8x slower for
    tens of seconds at a time while other tenants were busy, in CPU time as
    much as in wall time. So between operations, at
    most every PROBE_EVERY_S, and after every training epoch, the clock times
    a fixed reference chosen because the workload's time tracked it. The
    probes inside an operation cut it into segments; each segment's time is
    scaled by the reference's nominal time over the mean of the probes on
    either side of it, and the probes' own time is left out. Host drift
    cancels; a change to eacs does not, since the reference runs none of its
    code. Raw times are printed too.
    """

    def __init__(self, reference: str):
        make, self.nominal = REFERENCES[reference]
        self.reference = make()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []

    def probe(self, force: bool = False) -> None:
        if not force and self.ends and perf_counter() - self.ends[-1] < PROBE_EVERY_S:
            return
        start = perf_counter()
        best = float("inf")
        for _ in range(REF_REPEATS):  # the fastest of a few skips an interrupt
            t0 = perf_counter()
            self.reference()
            best = min(best, perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.took.append(best)

    def scaled(self, span: tuple[float, float]) -> float:
        start, end = span
        first = bisect.bisect_left(self.starts, start)  # probes inside the span
        last = bisect.bisect_right(self.ends, end)
        cuts = [start]
        for k in range(first, last):
            cuts += [self.starts[k], self.ends[k]]
        cuts.append(end)
        total = 0.0
        for n, k in enumerate(range(first - 1, last)):
            refs = [self.took[i] for i in (k, k + 1) if 0 <= i < len(self.took)]
            total += (cuts[2 * n + 1] - cuts[2 * n]) * self.nominal / statistics.mean(refs)
        return total

    def reference_ms(self) -> float:
        return statistics.median(self.took) * 1e3


def percentile_report(samples: list[float]) -> dict:
    """Median, the highest of p90/p99 with ten samples beyond it, and the count."""
    xs = sorted(samples)
    out = {"n": len(xs), "p50": statistics.median(xs) if xs else float("nan")}
    for p in (99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(xs, p))
            break
    return out


class EpochLog(logging.Handler):
    """Collects the per-epoch records TrainHistory logs, tagged by CLI command."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.phase = ""
        self.clock: HostClock | None = None
        # (phase, record timestamp, perf_counter stamp, epoch, train_loss, val_loss)
        self.records: list[tuple] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("epoch "):
            epoch, train, val = record.args
            self.records.append((self.phase, record.created, perf_counter(), epoch, train, val))
            if self.clock is not None:
                self.clock.probe(force=True)

    def of(self, phase: str) -> list[tuple]:
        return [r for r in self.records if r[0] == phase]

    def epoch_seconds(self, phase: str) -> float:
        """Median gap between consecutive epoch records of one training command."""
        stamps = [r[1] for r in self.of(phase)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        return statistics.median(gaps) if gaps else 0.0

    def steady_seconds(self, phase: str, span: tuple[float, float]) -> float:
        """A training command's scaled time with every epoch after the first
        counted at the median scaled epoch, so a transient stall of one epoch
        does not move it; labeling, the first epoch and the save stay in."""
        stamps = [r[2] for r in self.of(phase)]
        gaps = [self.clock.scaled(gap) for gap in zip(stamps, stamps[1:])]
        total = self.clock.scaled(span)
        return total - sum(gaps) + len(gaps) * statistics.median(gaps) if gaps else total


@dataclass
class Run:
    """What one measured pass produced."""

    e2e: dict = field(default_factory=dict)  # end-to-end metric on the result line -> value
    named: dict = field(default_factory=dict)  # per-workload metric name -> (value, unit, note)
    properties: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Client:
    """One closed-loop client calling the CLI in-process."""

    def __init__(self, run: Run, seed: int, epoch_log: EpochLog, clock: HostClock, tracer=None):
        self.run = run
        self.seed = seed
        self.epoch_log = epoch_log
        self.clock = clock
        self.tracer = tracer
        epoch_log.clock = clock

    def begin(self) -> float:
        """Start one operation: probe the host if due, count a request."""
        self.clock.probe()
        if self.tracer is not None:
            self.tracer.request += 1
        return perf_counter()

    def cli(self, argv: list[str]) -> tuple[bool, str, tuple[float, float]]:
        """Run one CLI command; returns (exit 0, stdout, (start, end))."""
        from eacs import cli

        self.epoch_log.phase = argv[0]
        out, err = io.StringIO(), io.StringIO()
        start = self.begin()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            failure = f"{argv[0]} exited {code}: {err.getvalue().strip()}"
        except Exception as exc:  # an escaped exception is one failed operation
            code = None
            failure = f"{argv[0]} raised {type(exc).__name__}: {exc}"
        span = (start, perf_counter())
        ok = self.run.check(code == 0, failure)
        return ok, out.getvalue(), span

    @contextlib.contextmanager
    def untraced(self):
        """Checks run outside the traced layers' numbers."""
        if self.tracer is not None:
            self.tracer.paused += 1
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused -= 1


def wall(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def load_oracles(root: str):
    import importlib.util

    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- shared checks ----------------------------------------------------------


def check_losses(run: Run, epoch_log: EpochLog, phase: str, epochs: int) -> None:
    records = epoch_log.of(phase)
    run.check(len(records) == epochs, f"{phase}: {len(records)} epoch records, expected {epochs}")
    for _, _, _, epoch, train, val in records:
        run.check(math.isfinite(train) and math.isfinite(val), f"{phase}: epoch {epoch} loss not finite")


def check_checkpoint(run: Run, path: str, scratch: str) -> list[str]:
    """Reload and re-save; the bytes must be identical. Returns the vocabulary."""
    from eacs.checkpoint import load_checkpoint, save_checkpoint

    ckpt = load_checkpoint(path)
    save_checkpoint(ckpt, scratch)
    with open(path, "rb") as a, open(scratch, "rb") as b:
        run.check(a.read() == b.read(), f"{path}: re-save is not byte-identical")
    os.remove(scratch)
    return ckpt.vocabulary


def check_scores(run: Run, oracles, report_path: str, refs, hyps, limit: int) -> None:
    """Per-sample scores in the report match the brute-force oracles."""
    with open(report_path, encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]
    for i, (r, g) in enumerate(list(zip(refs, hyps))[:limit]):
        want = (oracles.bleu4_brute(r, g), oracles.meteor_brute(r, g), oracles.rouge_l_brute(r, g))
        got = (samples["bleu"][i], samples["meteor"][i], samples["rouge_l"][i])
        run.check(
            all(abs(a - b) <= 1e-9 for a, b in zip(got, want)),
            f"evaluate sample {i}: scores {got} vs brute force {want}",
        )


def check_labels(run: Run, oracles, labels_path: str, comments, limit: int) -> None:
    """`label` output matches the standalone greedy labeling rule."""
    from eacs.corpus import tokenize_code

    with open(labels_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][:limit]
    for rec, comment in zip(records, comments):
        tokens = [tokenize_code(text) for text in rec["statements"]]
        labels, trace = oracles.greedy_labels_brute(tokens, comment)
        same_trace = [tuple(step) for step in rec["trace"]] == [tuple(s) for s in trace]
        run.check(rec["labels"] == labels and same_trace,
                  f"label record {rec['id']} differs from brute force")


# -- pipeline_desk ------------------------------------------------------------


@dataclass
class PipelineInputs:
    corpus: str
    snippets: list
    refs: list
    stats: dict


def setup_pipeline(seed: int, work: str) -> PipelineInputs:
    from eacs.corpus import tokenize_comment

    rng = np.random.default_rng([seed, 1])
    train, train_stmts = gen.make_corpus(rng, PIPE_PAIRS)
    held, held_stmts = gen.make_corpus(rng, PIPE_HELD_OUT)
    corpus = os.path.join(work, "train.jsonl")
    gen.write_jsonl(corpus, train)
    snippets = []
    for i, rec in enumerate(held):
        path = os.path.join(work, f"snippet{i:03d}.java")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rec["code"])
        snippets.append(path)
    refs = [tokenize_comment(rec["comment"]) for rec in held]
    stats = {
        "train_pairs": PIPE_PAIRS,
        "statements_per_snippet": histogram(train_stmts + held_stmts),
        "comment_tokens": histogram(len(tokenize_comment(r["comment"])) for r in train + held),
    }
    return PipelineInputs(corpus=corpus, snippets=snippets, refs=refs, stats=stats)


def run_pipeline(inp: PipelineInputs, work: str, seconds: float, client: Client, oracles) -> None:
    run = client.run
    start = perf_counter()
    ex, ab = os.path.join(work, "ex.ckpt"), os.path.join(work, "ab.ckpt")
    epochs = ["--epochs", str(PIPE_EPOCHS), "--seed", str(client.seed)]
    _, _, span_ex = client.cli(["train-extractor", "--corpus", inp.corpus, "--out", ex] + epochs)
    _, _, span_ab = client.cli(
        ["train-abstracter", "--corpus", inp.corpus, "--extractor", ex, "--out", ab] + epochs
    )
    with client.untraced():
        check_losses(run, client.epoch_log, "train-extractor", PIPE_EPOCHS)
        check_losses(run, client.epoch_log, "train-abstracter", PIPE_EPOCHS)
        check_checkpoint(run, ex, os.path.join(work, "resave.ckpt"))
        vocab = set(check_checkpoint(run, ab, os.path.join(work, "resave.ckpt")))

    # Rounds over the held-out snippets, greedy then beam 4 for each, until
    # the window closes; the first round always completes.
    latencies = {1: [], 4: []}
    outputs = {1: [], 4: []}
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        for snippet in inp.snippets:
            if rounds and perf_counter() - start >= seconds:
                break
            for beam in (1, 4):
                ok, out, span = client.cli(
                    ["summarize", "--extractor", ex, "--abstracter", ab, "--code", snippet,
                     "--beam", str(beam)]
                )
                latencies[beam].append(span)
                tokens = out.split()
                if rounds == 0:
                    outputs[beam].append(tokens)
                run.check(ok and bool(tokens) and set(tokens) <= vocab,
                          f"summary {out.strip()!r} (beam {beam})")
        rounds += 1

    # Score greedy against beam-4 summaries on the held-out references.
    n = len(inp.refs)
    files = {}
    for name, lines in (("refs", inp.refs), ("greedy", outputs[1]), ("beam4", outputs[4])):
        files[name] = os.path.join(work, f"{name}.txt")
        gen.write_lines(files[name], (" ".join(tokens) for tokens in lines))
    report = os.path.join(work, "report.json")
    ok, _, span_eval = client.cli([
        "evaluate", "--refs", files["refs"], "--hyps", files["greedy"], "--compare", files["beam4"],
        "--buckets", "comment", "--out", report,
    ])
    if ok:
        with client.untraced():
            check_scores(run, oracles, report, inp.refs, outputs[1], CHECK_SUBSAMPLE)

    clock = client.clock
    clock.probe(force=True)
    decoded = latencies[1] + latencies[4]
    train_s = (client.epoch_log.steady_seconds("train-extractor", span_ex)
               + client.epoch_log.steady_seconds("train-abstracter", span_ab))
    run.e2e["train_pairs_per_s"] = 2 * PIPE_PAIRS * PIPE_EPOCHS / train_s
    run.e2e["eval_pairs_per_s"] = len(decoded) / sum(map(clock.scaled, decoded))
    note = f"{PIPE_PAIRS} pairs x {PIPE_EPOCHS} epochs"
    run.named["extractor_train_pairs_per_s"] = (PIPE_PAIRS * PIPE_EPOCHS / wall(span_ex), "1/s", note)
    run.named["abstracter_train_pairs_per_s"] = (PIPE_PAIRS * PIPE_EPOCHS / wall(span_ab), "1/s", note)
    for beam, label in ((1, "greedy"), (4, "beam4")):
        rep = percentile_report([wall(x) * 1e3 for x in latencies[beam]])
        for key in ("p50", "p90", "p99"):
            if key in rep:
                run.named[f"summarize_{label}_ms_{key}"] = (rep[key], "ms", f"n={rep['n']}")
    run.named["evaluate_pairs_per_s"] = (n / wall(span_eval), "1/s", f"n={n}, with --compare")
    run.properties = dict(
        inp.stats, decode_rounds=rounds,
        summary_tokens_mean={label: statistics.mean(map(len, outputs[beam]))
                             for beam, label in ((1, "greedy"), (4, "beam4"))},
    )


# -- step_wide ----------------------------------------------------------------


@dataclass
class WideInputs:
    model: object
    optimizer: object
    samples: list
    drop_rng: object


def setup_wide(seed: int, work: str) -> WideInputs:
    from eacs import numcore as nc
    from eacs.abstracter import AbstracterConfig, AbstracterModel, AbstracterSample

    rng = np.random.default_rng([seed, 2])
    v, w = WIDE["vocab"], WIDE["width"]
    config = AbstracterConfig(embed_dim=w, hidden_dim=w, lr=3e-4, dropout=0.1, seed=seed)
    init_rng, _, drop_rng = nc.rng_streams(seed)
    model = AbstracterModel(v, config, init_rng)
    optimizer = nc.AdamW(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    samples = []
    for i in range(WIDE["batch"]):
        comment = [2] + list(rng.integers(4, v, size=WIDE["steps"] - 1)) + [3]
        samples.append(AbstracterSample(
            pair_id=i,
            code_ids=rng.integers(4, v, size=WIDE["code"]),
            important_ids=rng.integers(4, v, size=WIDE["important"]),
            comment_ids=np.array(comment, dtype=np.int64),
            comment_tokens=[],
        ))
    return WideInputs(model=model, optimizer=optimizer, samples=samples, drop_rng=drop_rng)


def run_wide(inp: WideInputs, work: str, seconds: float, client: Client, oracles) -> None:
    from eacs import numcore as nc
    from eacs.abstracter import abstracter_loss

    run = client.run
    params = inp.model.parameters()
    steps, evals = [], []
    start = perf_counter()
    # One AdamW step, then the forward-only loss an epoch's validation pass runs.
    while perf_counter() - start < seconds or len(steps) < 3:
        t0 = client.begin()
        inp.optimizer.zero_grad()
        with nc.Tape() as tape:
            loss = abstracter_loss(inp.model, inp.samples, train=True, rng=inp.drop_rng)
            tape.backward(loss, params=params)
        inp.optimizer.step()
        t1 = perf_counter()
        val = abstracter_loss(inp.model, inp.samples)
        t2 = perf_counter()
        steps.append((t0, t1))
        evals.append((t1, t2))
        run.check(math.isfinite(loss.item()), f"wide step {len(steps)}: loss not finite")
        run.check(math.isfinite(val.item()), f"wide eval {len(evals)}: loss not finite")
    client.clock.probe(force=True)
    batch = WIDE["batch"]
    run.e2e["train_pairs_per_s"] = batch / statistics.median(map(client.clock.scaled, steps))
    run.e2e["eval_pairs_per_s"] = batch / statistics.median(map(client.clock.scaled, evals))
    step_s = [wall(x) for x in steps]
    run.named["wide_step_s"] = (
        statistics.median(step_s), "s", f"median of n={len(steps)}, max {max(step_s):.3f}")
    run.named["wide_eval_s"] = (statistics.median(map(wall, evals)), "s", f"median of n={len(evals)}")
    run.properties = dict(WIDE)


# -- score --------------------------------------------------------------------


@dataclass
class ScoreInputs:
    chunks: list  # per chunk: dict of file paths
    refs: list  # per chunk: reference token lists
    hyps: list
    stats: dict


def setup_score(seed: int, work: str) -> ScoreInputs:
    from eacs.corpus import tokenize_comment

    rng = np.random.default_rng([seed, 3])
    chunks, all_refs, all_hyps = [], [], []
    stmts, copies, matched = [], 0, []
    for c in range(SCORE_CHUNKS):
        records, chunk_stmts = gen.make_corpus(rng, SCORE_CHUNK)
        refs = [tokenize_comment(rec["comment"]) for rec in records]
        hyps, is_copy = gen.make_hypotheses(rng, refs)
        other, _ = gen.make_hypotheses(rng, refs)
        paths = {k: os.path.join(work, f"{k}{c:02d}.txt") for k in ("refs", "hyps", "other")}
        paths["corpus"] = os.path.join(work, f"corpus{c:02d}.jsonl")
        paths["labels"] = os.path.join(work, f"labels{c:02d}.jsonl")
        paths["report"] = os.path.join(work, f"report{c:02d}.json")
        gen.write_jsonl(paths["corpus"], records)
        for key, lines in (("refs", refs), ("hyps", hyps), ("other", other)):
            gen.write_lines(paths[key], (" ".join(t) for t in lines))
        chunks.append(paths)
        all_refs.append(refs)
        all_hyps.append(hyps)
        stmts += chunk_stmts
        copies += sum(is_copy)
        matched += [gen.matched_tokens(r, g) for r, g in zip(refs, hyps)]
    n = SCORE_CHUNK * SCORE_CHUNKS
    stats = {
        "pairs_per_chunk": SCORE_CHUNK,
        "statements_per_snippet": histogram(stmts),
        "comment_tokens": histogram(len(r) for refs in all_refs for r in refs),
        "exact_copy_share": copies / n,
        "matched_tokens": {
            "le8": sum(m <= 8 for m in matched) / n,
            "9to12": sum(9 <= m <= 12 for m in matched) / n,
            "13up": sum(m >= 13 for m in matched) / n,
        },
    }
    return ScoreInputs(chunks=chunks, refs=all_refs, hyps=all_hyps, stats=stats)


def run_score(inp: ScoreInputs, work: str, seconds: float, client: Client, oracles) -> None:
    run = client.run
    label_spans, eval_spans = [], []
    start = perf_counter()
    c = 0
    # Cycle the chunk pool until the window closes.
    while c < 2 or perf_counter() - start < seconds:
        k = c % len(inp.chunks)
        paths = inp.chunks[k]
        ok_label, _, span_label = client.cli(
            ["label", "--corpus", paths["corpus"], "--lang", "java", "--out", paths["labels"]]
        )
        ok_eval, _, span_eval = client.cli([
            "evaluate", "--refs", paths["refs"], "--hyps", paths["hyps"], "--compare", paths["other"],
            "--buckets", "comment", "--out", paths["report"],
        ])
        label_spans.append(span_label)
        eval_spans.append(span_eval)
        if c == 0:
            with client.untraced():
                if ok_eval:
                    check_scores(run, oracles, paths["report"], inp.refs[k], inp.hyps[k], CHECK_SUBSAMPLE)
                if ok_label:
                    check_labels(run, oracles, paths["labels"], inp.refs[k], CHECK_SUBSAMPLE)
        c += 1
    client.clock.probe(force=True)
    pairs = SCORE_CHUNK * c
    run.e2e["train_pairs_per_s"] = pairs / sum(map(client.clock.scaled, label_spans))
    run.e2e["eval_pairs_per_s"] = pairs / sum(map(client.clock.scaled, eval_spans))
    note = f"median over n={c} chunks of {SCORE_CHUNK} pairs"
    run.named["label_pairs_per_s"] = (SCORE_CHUNK / statistics.median(map(wall, label_spans)), "1/s", note)
    run.named["evaluate_pairs_per_s"] = (
        SCORE_CHUNK / statistics.median(map(wall, eval_spans)), "1/s", note + ", with --compare")
    run.properties = dict(inp.stats, chunks_scored=c)


# name -> (set-up, measured pass, HostClock reference)
WORKLOADS = {
    "pipeline_desk": (setup_pipeline, run_pipeline, "mix"),
    "step_wide": (setup_wide, run_wide, "loop"),
    "score": (setup_score, run_score, "mix"),
}
