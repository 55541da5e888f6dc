"""The two span files: the annotations recognize writes and the gold
annotations evaluate scores them against.

Both name a span by document id and first and last token index, and
both readers reject the same bad spans.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from . import tsv
from .seeds import check_class_label

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
    """One recognized (or rejected) span of a document. Its surface is
    the span's words joined by single spaces. Its fields are the
    annotations file's columns, in order."""

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


def write_annotations(output: str | Path | None, annotations: Iterable[Annotation]) -> None:
    """Write the annotations file to `output`, or to stdout when it is
    None or empty, a row as each annotation arrives, so a stream of
    annotations is never held whole."""
    tsv.write_rows(output, ANNOTATIONS_HEADER, annotations)


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
    return GoldAnnotation(doc=doc, first=start, last=end, class_label=check_class_label(label))


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    return tsv.read_rows(path, GOLD_HEADER, _gold_row)
