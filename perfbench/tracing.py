"""Span tracer that instruments eacs from outside the package.

Public functions are wrapped where callers look them up: every module
attribute of an ``eacs`` module that is bound to the function object, and
class attributes for methods. Nothing under ``src/`` changes. Backward time
per op kind comes from wrapping the closure each op hands to
``eacs.numcore.ops.record``.

Layer spans are kept in memory with their parent and written out when the
benchmark ends. Op-level frames (hundreds of thousands per run) are only
aggregated, so tracing memory stays small. A frame's self time is its
duration minus the time of the frames nested inside it.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import Counter, defaultdict

import gen

perf_counter = time.perf_counter

# Op kinds reported on their own; every other recording op counts as "other".
OP_KINDS = ("lstm_cell", "matmul", "softmax", "embedding_lookup")
RECORDING_OPS = (
    "add", "sub", "mul", "matmul", "concat", "slice_axis", "tanh", "sigmoid", "log",
    "clip", "softmax", "sum_all", "mean_all", "embedding_lookup", "gather_rows",
    "dropout", "lstm_cell", "lstm_over",
)
DECODE_CONTEXT = "abstracter.generate_summary"


def op_kind(name: str) -> str:
    return name if name in OP_KINDS else "other"


def match_bucket(r, g) -> str:
    """METEOR's exact-match count of a pair, bucketed as in the per-layer rows."""
    matched = gen.matched_tokens(r, g)
    if matched <= 8:
        return "match_le8"
    if matched <= 12:
        return "match_9to12"
    return "match_13up"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_s, span_id]
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.request = 0
        self.paused = 0
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- frames -------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        span_id = -1
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        self.active[name] -= 1
        dur = end - start
        if stack:
            stack[-1][2] += dur
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if keep:
            parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
            self.spans.append((span_id, parent, name, start, end, self.request))

    def call(self, name: str, fn, args, kwargs, keep: bool = True):
        frame = self._enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, keep)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, name: str, keep: bool = True,
                      within: str | None = None, name_fn=None, after=None) -> None:
        """Wrap ``module.attr`` at every eacs module attribute bound to it.

        ``within`` records only while a frame of that name is open,
        ``name_fn(args)`` picks the frame name per call, and
        ``after(args, result)`` updates counters once the call returns.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused or (within and not tracer.active[within]):
                return original(*args, **kwargs)
            frame_name = name_fn(args) if name_fn else name
            result = tracer.call(frame_name, original, args, kwargs, keep)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eacs" or mod_name.startswith("eacs.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, keep: bool = True,
                    within: str | None = None, after=None) -> None:
        original = getattr(cls, attr)
        tracer = self

        def wrapper(obj, *args, **kwargs):
            if tracer.paused or (within and not tracer.active[within]):
                return original(obj, *args, **kwargs)
            result = tracer.call(name, original, (obj,) + args, kwargs, keep)
            if after is not None:
                after((obj,) + args, result)
            return result

        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request,
                }) + "\n")

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0


def _gemm_flops(kind: str, inputs) -> int:
    """Forward GEMM flops of one op call, from operand shapes."""
    if kind == "matmul":
        (m, k), (_, n) = inputs[0].data.shape, inputs[1].data.shape
        return 2 * m * k * n
    if kind == "lstm_cell":
        x, h = inputs[0].data.shape, inputs[1].data.shape
        gates = inputs[3].data.shape[1]
        return 2 * x[0] * (x[1] + h[1]) * gates
    return 0


def instrument(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics read."""
    from eacs import abstracter, checkpoint, cli, corpus, extractor, metrics, oracle
    from eacs import report, segmenter
    from eacs import _kernels
    from eacs.numcore import ops, optim, tensor

    t = tracer

    # Ops: forward frames aggregated per op; record() wraps the backward closure.
    for op in RECORDING_OPS:
        t.wrap_function(ops, op, f"numcore.ops.{op}.fwd", keep=False)

    original_record = ops.record

    def record(inputs, outputs, backward):
        if t.paused:
            return original_record(inputs, outputs, backward)
        frame = t.stack[-1][0] if t.stack else ""
        kind = op_kind(frame.split(".")[2]) if frame.startswith("numcore.ops.") else "other"
        flops = _gemm_flops(kind, inputs)
        t.counts["numcore.gemm_flop"] += flops
        if tensor.Tape.current() is None:
            return original_record(inputs, outputs, backward)
        grad_bytes = inputs[0].data.nbytes if kind == "embedding_lookup" else 0
        bwd_name = f"numcore.ops.{kind}.bwd"

        def timed_backward(gs):
            t.counts["numcore.gemm_flop"] += 2 * flops
            t.counts["numcore.ops.embedding_lookup.grad_bytes"] += grad_bytes
            return t.call(bwd_name, backward, (gs,), {}, keep=False)

        return original_record(inputs, outputs, timed_backward)

    t._set(ops, "record", record)

    def count_nodes(args, _result):
        t.counts["numcore.tape.nodes"] += len(args[0].nodes)

    t.wrap_method(tensor.Tape, "backward", "numcore.tape.backward", after=count_nodes)
    t.wrap_method(optim.AdamW, "step", "numcore.optim.adamw_step")

    # Models, data, checkpoints.
    t.wrap_function(extractor, "train_extractor", "extractor.train_extractor")
    t.wrap_function(extractor, "build_extractor_dataset", "extractor.build_dataset")
    t.wrap_function(abstracter, "train_abstracter", "abstracter.train_abstracter")
    t.wrap_function(abstracter, "build_abstracter_dataset", "abstracter.build_dataset")
    t.wrap_function(abstracter, "generate_summary", DECODE_CONTEXT)
    t.wrap_function(extractor, "predict_important", "extractor.predict_important",
                    within=DECODE_CONTEXT)
    for method in ("encode_extractive", "encode_abstractive"):
        t.wrap_method(abstracter.AbstracterModel, method, "abstracter.encode", within=DECODE_CONTEXT)
    t.wrap_method(abstracter.AbstracterModel, "decode_step", "abstracter.decode_step",
                  keep=False, within=DECODE_CONTEXT)

    def count_bytes(args, _result):
        t.counts["checkpoint.bytes"] += os.path.getsize(args[1])

    t.wrap_function(checkpoint, "save_checkpoint", "checkpoint.save", after=count_bytes)
    t.wrap_function(checkpoint, "load_checkpoint", "checkpoint.load")
    t.wrap_function(corpus, "load_corpus", "corpus.load")
    t.wrap_function(corpus, "build_vocabulary", "corpus.build_vocabulary")
    t.wrap_function(segmenter, "segment", "segmenter.segment")

    # Labeling and scoring.
    t.wrap_function(oracle, "label_statements", "oracle.label_statements")
    t.wrap_function(oracle, "informativity", "oracle.informativity", keep=False)

    def count_cells(args, _result):
        t.counts["kernels.lcs_cells"] += len(args[0]) * len(args[1])

    t.wrap_function(_kernels, "lcs_len_ids", "kernels.lcs_len_ids", keep=False, after=count_cells)
    t.wrap_function(metrics, "bleu4", "metrics.bleu4", keep=False)
    t.wrap_function(metrics, "rouge_l", "metrics.rouge_l", keep=False)
    t.wrap_function(metrics, "alignment_stats", "metrics.alignment_stats", keep=False,
                    name_fn=lambda args: f"metrics.alignment_stats.{match_bucket(*args[:2])}")
    t.wrap_function(metrics, "mann_whitney_u_test", "metrics.mann_whitney")
    t.wrap_function(report, "emit_report", "report.emit_report")
    t.wrap_function(cli, "main", "cli.main")


def per_layer(t: Tracer, epoch_s: dict) -> dict:
    """Per-layer metric values by name, from one traced pass."""
    out: dict[str, float] = {}
    gemm_s = 0.0
    for kind in OP_KINDS + ("other",):
        names = [f"numcore.ops.{op}.fwd" for op in RECORDING_OPS if op_kind(op) == kind]
        fwd = sum(map(t.self_time, names))
        calls = sum(map(t.calls, names))
        bwd = t.total(f"numcore.ops.{kind}.bwd")
        if kind in ("lstm_cell", "matmul"):
            gemm_s += fwd + bwd
        out[f"numcore.ops.{kind}.fwd_s"] = fwd
        out[f"numcore.ops.{kind}.bwd_s"] = bwd
        out[f"numcore.ops.{kind}.calls"] = calls
    out["numcore.tape.backward_s"] = t.total("numcore.tape.backward")
    out["numcore.tape.bookkeeping_s"] = t.self_time("numcore.tape.backward")
    out["numcore.tape.nodes"] = t.counts["numcore.tape.nodes"]
    out["numcore.optim.adamw_step_s"] = t.total("numcore.optim.adamw_step")
    gflop = t.counts["numcore.gemm_flop"] / 1e9
    out["numcore.gemm_gflop"] = gflop
    out["numcore.gemm_gflop_per_s"] = gflop / gemm_s if gemm_s else 0.0
    out["numcore.ops.embedding_lookup.grad_bytes"] = t.counts["numcore.ops.embedding_lookup.grad_bytes"]
    out["extractor.epoch_s"] = epoch_s.get("train-extractor", 0.0)
    out["abstracter.epoch_s"] = epoch_s.get("train-abstracter", 0.0)
    out["extractor.build_dataset_s"] = t.total("extractor.build_dataset")
    out["abstracter.build_dataset_s"] = t.total("abstracter.build_dataset")
    out["abstracter.encode_s"] = t.total("abstracter.encode")
    out["abstracter.decode_step_s"] = t.total("abstracter.decode_step")
    out["abstracter.decode_steps"] = t.calls("abstracter.decode_step")
    out["extractor.predict_important_s"] = t.total("extractor.predict_important")
    out["checkpoint.load_s"] = t.total("checkpoint.load")
    out["checkpoint.save_s"] = t.total("checkpoint.save")
    out["checkpoint.bytes"] = t.counts["checkpoint.bytes"]
    out["corpus.load_s"] = t.total("corpus.load")
    out["corpus.build_vocabulary_s"] = t.total("corpus.build_vocabulary")
    out["segmenter.segment_s"] = t.total("segmenter.segment")
    out["segmenter.calls"] = t.calls("segmenter.segment")
    out["oracle.label_statements_s"] = t.total("oracle.label_statements")
    out["oracle.informativity_calls"] = t.calls("oracle.informativity")
    out["kernels.lcs_len_ids_s"] = t.total("kernels.lcs_len_ids")
    out["kernels.lcs_len_ids.calls"] = t.calls("kernels.lcs_len_ids")
    out["kernels.lcs_cells"] = t.counts["kernels.lcs_cells"]
    out["metrics.bleu4_s"] = t.total("metrics.bleu4")
    out["metrics.rouge_l_s"] = t.total("metrics.rouge_l")
    out["metrics.mann_whitney_s"] = t.total("metrics.mann_whitney")
    for bucket in ("match_le8", "match_9to12", "match_13up"):
        out[f"metrics.alignment_stats_s.{bucket}"] = t.total(f"metrics.alignment_stats.{bucket}")
    out["report.emit_report_s"] = t.total("report.emit_report")
    out["cli.main.self_s"] = t.self_time("cli.main")
    return out
