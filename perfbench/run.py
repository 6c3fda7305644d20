"""Benchmark for eacs: one command, three workloads, an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the same pass untraced and then traced, and prints the
per-layer metrics plus the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results and the
traced spans go to ``.bench_results/``; scratch files live in ``.bench_work/``
and are removed at exit.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: one thread keeps runs steady on a
# small shared machine and is at most nproc everywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def environment() -> dict:
    import numpy

    from eacs import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "eacs_using_numba": _kernels.USING_NUMBA,
    }


def measure(workloads, name, seed, seconds, inputs, work, oracles, epoch_log, tracer=None):
    _, measured, reference = workloads.WORKLOADS[name]
    run = workloads.Run()
    clock = workloads.HostClock(reference)
    client = workloads.Client(run, seed, epoch_log, clock, tracer)
    epoch_log.records.clear()
    measured(inputs, work, seconds, client, oracles)
    run.named["host_reference_ms"] = (
        clock.reference_ms(), "ms",
        f"{reference} reference, median of {len(clock.took)} probes; "
        f"end-to-end times are scaled to {clock.nominal * 1e3:g} ms")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in (spec_path, os.path.join(ROOT, "src", "eacs", "__init__.py"),
                 os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(need):
            return fail(f"missing {os.path.relpath(need, ROOT)}; run from a full checkout")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import eacs

    if not os.path.abspath(eacs.__file__).startswith(os.path.join(ROOT, "src")):
        return fail(f"imported eacs from {eacs.__file__}, not from this checkout")
    import tracing
    import workloads

    oracles = workloads.load_oracles(ROOT)
    epoch_log = workloads.EpochLog()
    train_log = logging.getLogger("eacs.extractor")  # TrainHistory logs here for both models
    train_log.setLevel(logging.INFO)
    train_log.propagate = False
    train_log.addHandler(epoch_log)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup, _, reference = workloads.WORKLOADS[args.workload]
        clock = workloads.HostClock(reference)
        setup_spans = []
        for _ in range(workloads.SETUP_REPEATS):
            inputs = None  # release the previous set-up before building the next
            clock.probe(force=True)
            t0 = time.perf_counter()
            inputs = setup(args.seed, work)
            setup_spans.append((t0, time.perf_counter()))
        clock.probe(force=True)
        setup_times = [clock.scaled(span) for span in setup_spans]

        run = measure(workloads, args.workload, args.seed, args.seconds, inputs, work, oracles, epoch_log)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(setup_times)
        values = dict(run.e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        wanted = spec["end_to_end"]
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            try:
                traced = measure(workloads, args.workload, args.seed, args.seconds, inputs, work,
                                 oracles, epoch_log, tracer)
            finally:
                tracer.restore()
            epoch_s = {p: epoch_log.epoch_seconds(p) for p in ("train-extractor", "train-abstracter")}
            layer = tracing.per_layer(tracer, epoch_s)
            for key in ("train_pairs_per_s", "eval_pairs_per_s"):
                layer[f"trace.overhead.{key}"] = run.e2e[key] / traced.e2e[key] - 1.0
            values = layer
            wanted = spec["per_layer"]
            tracer.write_spans(os.path.join(
                ROOT, ".bench_results", f"spans-{args.workload}-s{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = run.attempted + (traced.attempted if traced else 0)
    failed = run.failed + (traced.failed if traced else 0)
    failures = run.failures + (traced.failures if traced else [])

    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps(run.properties, sort_keys=True))
    for key, (value, unit, note) in run.named.items():
        print(f"#   {key:<32} {value:>12.4f} {unit:<4} {note}")
    print(f"#   {'setup_s':<32} {setup_s:>12.4f} s    median of {len(setup_times)} set-ups")
    print(f"#   {'peak_rss_mb':<32} {peak_rss_mb:>12.1f} MB")
    print(f"#   {'failed_share':<32} {failed / max(attempted, 1):>12.4f}      "
          f"{failed} of {attempted} operations and checks")
    for what in failures:
        print(f"# FAILED: {what}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, inputs=run.properties,
                  named={k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in run.named.items()})
    out = os.path.join(ROOT, ".bench_results", f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
