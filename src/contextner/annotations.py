"""The two span files: the annotations recognize writes and the gold
annotations evaluate scores them against.

Both name a span by document id and first and last token index, and
both readers reject the same bad spans.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from . import tsv
from .seeds import UNKNOWN

ANNOTATIONS_HEADER = [
    "doc",
    "start_token",
    "end_token",
    "surface",
    "class",
    "score",
    "runner_up",
]
GOLD_HEADER = ["doc", "start_token", "end_token", "class"]


class Annotation(NamedTuple):
    """One recognized (or rejected) span of a document."""

    doc: str
    first: int
    last: int
    surface: str
    class_label: str
    score: float
    runner_up: float


class GoldAnnotation(NamedTuple):
    doc: str
    first: int
    last: int
    class_label: str


def _span(first: str, last: str) -> tuple[int, int]:
    start, end = int(first), int(last)
    if start < 0 or end < start:
        raise ValueError(f"bad span {start}..{end}")
    return start, end


def format_annotations(annotations: Iterable[Annotation]) -> str:
    rows = [
        [
            a.doc,
            str(a.first),
            str(a.last),
            a.surface,
            a.class_label,
            f"{a.score:.7g}",
            f"{a.runner_up:.7g}",
        ]
        for a in annotations
    ]
    return tsv.format_rows(ANNOTATIONS_HEADER, rows)


def _annotation_row(*fields: str) -> Annotation:
    doc, first, last, surface, label, score, runner_up = fields
    start, end = _span(first, last)
    return Annotation(
        doc=doc,
        first=start,
        last=end,
        surface=surface,
        class_label=label,
        score=float(score),
        runner_up=float(runner_up),
    )


def load_annotations(path: str | Path) -> list[Annotation]:
    return tsv.read_rows(path, ANNOTATIONS_HEADER, _annotation_row)


def _gold_row(doc: str, first: str, last: str, label: str) -> GoldAnnotation:
    start, end = _span(first, last)
    if not label or label == UNKNOWN:
        raise ValueError(f"bad gold class {label!r}")
    return GoldAnnotation(doc=doc, first=start, last=end, class_label=label)


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    return tsv.read_rows(path, GOLD_HEADER, _gold_row)
