"""Aggregate the per-run records in .bench_results/ into one baseline file.

Run from the repository root after a set of benchmark runs:

    python3 perfbench/summarize.py > perfbench/baseline.json

Per workload it reports, for each end-to-end metric, the median, quartiles
and interquartile spread as a share of the median (the statistic the bounds
in BENCHMARK.json apply to), the medians of the workload's named metrics,
the input properties of each seed, the environment, and the per-layer
metrics of every traced run.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / med if med else None)
    return out


def main() -> int:
    records = []
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_results", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print("no records in .bench_results/", file=sys.stderr)
        return 1
    out = {"environment": records[0]["environment"], "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1]
        entry = {
            "seeds": sorted(r["seed"] for r in untraced),
            "seconds": sorted({r["seconds"] for r in untraced}),
            "failed": sum(r["failed"] for r in untraced + traced),
            "attempted": sum(r["attempted"] for r in untraced + traced),
        }
        if untraced:
            metrics = untraced[0]["metrics"]
            entry["end_to_end"] = {
                m: dict(spread([r["metrics"][m]["value"] for r in untraced]), unit=metrics[m]["unit"])
                for m in metrics
            }
            named = untraced[0]["named"]
            entry["named"] = {
                m: {
                    "median": statistics.median(r["named"][m]["value"] for r in untraced),
                    "unit": named[m]["unit"],
                    "note": named[m]["note"],
                }
                for m in named
            }
            entry["inputs"] = {str(r["seed"]): r["inputs"] for r in untraced}
        entry["traced"] = {
            str(r["seed"]): {m: v["value"] for m, v in r["metrics"].items()} for r in traced
        }
        out["workloads"][name] = entry
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
