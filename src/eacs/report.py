"""Evaluation report rendering: aligned text tables plus a JSON record."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from .fileio import replace_on_success
from .metrics import METRICS, PERCENTILES, MetricReport, SignificanceResult


def format_table(record: dict, title: str) -> str:
    """One row per metric of a report record, scores in percentages with two decimals."""
    means, pcts = record["means"], record["percentiles"]
    lines = [
        f"[{title}]  n={record['n_samples']}",
        f"{'':<9}{'mean':>8}" + "".join(f"p{p:<2}".rjust(8) for p in PERCENTILES),
    ]
    for key, label in METRICS.items():
        row = f"{label:<9}{means[key] * 100:>8.2f}"
        row += "".join(f"{pcts[key][str(p)] * 100:>8.2f}" for p in PERCENTILES)
        lines.append(row)
    return "\n".join(lines)


def format_significance(compare: dict[str, SignificanceResult]) -> str:
    lines = ["significance vs comparison hypotheses (two-tailed rank-sum):"]
    for key, label in METRICS.items():
        res = compare[key]
        lines.append(
            f"{label:<9} U={res.u_statistic:<10.1f} p={res.p_value:<12.6g} "
            f"({res.band})  [{res.method}]"
        )
    return "\n".join(lines)


def emit_report(
    report: MetricReport, compare: Optional[dict[str, SignificanceResult]], path: str
) -> None:
    """Print the aligned table (and bucket sub-tables) and write the record file."""
    record = report.to_record()
    print(format_table(record, "all samples"))
    for name, sub in record.get("buckets", {}).items():
        print()
        print(format_table(sub, name))
    if compare:
        print()
        print(format_significance(compare))
        record["significance"] = {key: asdict(res) for key, res in compare.items()}
    bounded = record.get("meteor_bounded")
    if bounded:
        print()
        print(f"METEOR is a lower bound on {len(bounded)} pair(s): the alignment search "
              "ran out of its budget (see meteor_bounded)")
    if path:
        with replace_on_success(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
