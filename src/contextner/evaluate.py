"""Scoring against gold annotations, and corpus-growth statistics."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from . import tsv
from .corpus import CorpusManifest
from .errors import InputError
from .extract import ContextKey, instance_contexts, instance_index, tokenize
from .seeds import UNKNOWN, LearningExample
from .weighting import TableConfig

if TYPE_CHECKING:
    from .recognize import Annotation

GOLD_HEADER = ["doc", "start_token", "end_token", "class"]
REPORT_HEADER = ["tp", "fp", "fn", "precision", "recall"]
GROWTH_HEADER = ["docs", "occurrences", "contexts"]


class GoldAnnotation(NamedTuple):
    doc: str
    first: int
    last: int
    class_label: str


def _gold_row(doc: str, first: str, last: str, label: str) -> GoldAnnotation:
    start, end = int(first), int(last)
    if start < 0 or end < start:
        raise ValueError(f"bad span {start}..{end}")
    if not label or label == UNKNOWN:
        raise ValueError(f"bad gold class {label!r}")
    return GoldAnnotation(doc=doc, first=start, last=end, class_label=label)


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    return tsv.read_rows(path, GOLD_HEADER, _gold_row)


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


class GrowthPoint(NamedTuple):
    doc_count: int
    example_occurrences: int
    context_count: int


def growth_curve(
    corpus: CorpusManifest,
    examples: Iterable[LearningExample],
    steps: Iterable[int],
    config: TableConfig = TableConfig(),
) -> list[GrowthPoint]:
    """Extraction statistics over growing prefixes of the corpus.

    For each prefix size, reports how many example occurrences the
    prefix contains and how many distinct contexts they produce.
    Prefixes follow manifest (document-id) order.
    """
    steps = list(steps)
    index = instance_index(examples)
    if not steps:
        raise InputError("no growth steps given")
    previous = 0
    for step in steps:
        if step <= previous:
            raise InputError(f"growth steps must be increasing, got {steps}")
        previous = step
    if steps[-1] > len(corpus):
        raise InputError(
            f"growth step {steps[-1]} exceeds corpus size {len(corpus)}"
        )

    documents = list(corpus)
    points: list[GrowthPoint] = []
    occurrences = 0
    contexts: set[ContextKey] = set()
    done = 0
    for step in steps:
        for doc in documents[done:step]:
            found = instance_contexts(
                tokenize(doc.clean), index, config.context_len, config.side
            )
            occurrences += len(found)
            contexts.update(key for _occ, key in found if key is not None)
        done = step
        points.append(
            GrowthPoint(
                doc_count=step,
                example_occurrences=occurrences,
                context_count=len(contexts),
            )
        )
    return points


def format_growth(points: Iterable[GrowthPoint]) -> str:
    rows = [
        [str(p.doc_count), str(p.example_occurrences), str(p.context_count)]
        for p in points
    ]
    return tsv.format_rows(GROWTH_HEADER, rows)


def write_growth(points: Iterable[GrowthPoint], path: str | Path) -> None:
    tsv.write_text(path, format_growth(points))
