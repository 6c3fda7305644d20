"""Evaluation report rendering: aligned text tables plus a JSON record."""

from __future__ import annotations

import json
import sys
from typing import Optional, TextIO

from .errors import IoError
from .fileio import replace_on_success
from .metrics import PERCENTILES, MetricReport, SignificanceResult

METRIC_LABELS = (("bleu", "BLEU-4"), ("meteor", "METEOR"), ("rouge_l", "ROUGE-L"))


def format_table(report: MetricReport, title: str = "") -> str:
    """One row per metric, scores in percentages with two decimals."""
    means = report.means()
    pcts = report.percentiles()
    lines = []
    if title:
        lines.append(f"[{title}]  n={report.size}")
    header = f"{'':<9}{'mean':>8}" + "".join(f"p{p:<2}".rjust(8) for p in PERCENTILES)
    lines.append(header)
    for key, label in METRIC_LABELS:
        row = f"{label:<9}{means[key] * 100:>8.2f}"
        row += "".join(f"{pcts[key][p] * 100:>8.2f}" for p in PERCENTILES)
        lines.append(row)
    return "\n".join(lines)


def format_significance(compare: dict[str, SignificanceResult]) -> str:
    lines = ["significance vs comparison hypotheses (two-tailed rank-sum):"]
    for key, label in METRIC_LABELS:
        res = compare[key]
        lines.append(
            f"{label:<9} U={res.u_statistic:<10.1f} p={res.p_value:<12.6g} "
            f"({res.band})  [{res.method}]"
        )
    return "\n".join(lines)


def emit_report(
    report: MetricReport,
    compare: Optional[dict[str, SignificanceResult]] = None,
    path: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> None:
    """Print the aligned table (and bucket sub-tables) and write the record file."""
    stream = stream or sys.stdout
    print(format_table(report, title="all samples"), file=stream)
    for name, sub in report.buckets.items():
        print("", file=stream)
        print(format_table(sub, title=name), file=stream)
    if compare:
        print("", file=stream)
        print(format_significance(compare), file=stream)
    if path:
        record = report.to_record()
        if compare:
            record["significance"] = {
                key: {
                    "u_statistic": res.u_statistic,
                    "p_value": res.p_value,
                    "method": res.method,
                    "band": res.band,
                }
                for key, res in compare.items()
            }
        try:
            with replace_on_success(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise IoError(f"cannot write report {path}: {exc}") from exc
