"""Scoring recognized annotations against gold annotations."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from . import tsv
from .annotations import Annotation, GoldAnnotation
from .seeds import UNKNOWN

REPORT_HEADER = ["tp", "fp", "fn", "precision", "recall"]


class EvalReport(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: Optional[float]
    recall: Optional[float]


def evaluate(
    system: Iterable[Annotation], gold: Iterable[GoldAnnotation]
) -> EvalReport:
    """Exact-span scoring: doc, token span, and class must all match.

    Annotations the recognizer left `unknown` do not count as found.
    Undefined ratios (zero denominator) come back as None, never 0.
    """
    found = {
        (a.doc, a.first, a.last, a.class_label)
        for a in system
        if a.class_label != UNKNOWN
    }
    wanted = {(g.doc, g.first, g.last, g.class_label) for g in gold}
    tp = len(found & wanted)
    fp = len(found - wanted)
    fn = len(wanted - found)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return EvalReport(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall)


def _ratio(value: Optional[float], missing: str) -> str:
    return missing if value is None else f"{value:.7g}"


def format_report(report: EvalReport) -> str:
    lines = [
        "exact-span entity evaluation (unknown annotations excluded)",
        f"true positives   {report.tp}",
        f"false positives  {report.fp}",
        f"false negatives  {report.fn}",
        f"precision        {_ratio(report.precision, 'n/a')}",
        f"recall           {_ratio(report.recall, 'n/a')}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path: str | Path) -> None:
    row = [
        str(report.tp),
        str(report.fp),
        str(report.fn),
        _ratio(report.precision, "NA"),
        _ratio(report.recall, "NA"),
    ]
    tsv.write_rows(path, REPORT_HEADER, [row])
