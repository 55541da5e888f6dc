"""Entity recognition by weighted context voting.

A model holds one context->weight table per class. Candidate spans are
wherever a known context occurs under training's window rule; each
class whose table holds a context of the span adds the context's weight,
and the winning class must clear a threshold and beat the runner-up by a
margin or the span stays `unknown`.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Optional

from . import tsv
from .annotations import Annotation
from .corpus import Document
from .errors import DataFormatError
from .extract import LEFT, RIGHT, ContextKey, WordSequence, context_hits, tokenize
from .record import Record
from .seeds import UNKNOWN
from .weighting import WeightTable, format_weight_table, read_weight_mapping

MODEL_FILE = "model.tsv"
MODEL_HEADER = ["class", "table_file", "threshold", "margin"]

_LABEL_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


# (side, length) -> context words -> ((class, weight), ...) in table order.
_ContextVotes = dict[tuple[str, int], dict[tuple[str, ...], tuple[tuple[str, float], ...]]]


class RecognitionModel(Record):
    """Per-class context weights plus the decision parameters.

    On construction the tables are compiled into one index, grouped by
    (side, length) in sorted order, whose entries list every class's
    weight for those context words in `tables` order. Detection and
    voting read only that index, so each costs time proportional to a
    document's tokens, not to the model's size. The tables must not be
    changed after construction.
    """

    __slots__ = ("tables", "threshold", "margin", "max_entity_tokens", "_votes")

    def __init__(
        self,
        tables: dict[str, dict[ContextKey, float]],
        threshold: float = 0.0,
        margin: float = 0.0,
        max_entity_tokens: int = 4,
    ) -> None:
        if not (threshold >= 0 and margin >= 0):
            raise ValueError("threshold and margin must be non-negative")
        if max_entity_tokens < 1:
            raise ValueError(f"max_entity_tokens must be >= 1, got {max_entity_tokens}")
        votes: _ContextVotes = {}
        for label, table in tables.items():
            if not label or label == UNKNOWN:
                raise ValueError(f"invalid class label {label!r}")
            for key, weight in table.items():
                if weight <= 0:
                    raise ValueError(
                        f"non-positive weight {weight} for {key.phrase()!r} in {label}"
                    )
                group = votes.setdefault((key.side, key.length), {})
                group[key.words] = group.get(key.words, ()) + ((label, weight),)
        self._assign(
            tables=tables,
            threshold=threshold,
            margin=margin,
            max_entity_tokens=max_entity_tokens,
            _votes=dict(sorted(votes.items())),
        )


def classify(
    votes: Mapping[str, float], threshold: float = 0.0, margin: float = 0.0
) -> tuple[str, float, float]:
    """The decision on one span's class votes: (label, best, runner-up).

    Votes rank highest first, equal votes by label; best and runner-up
    are the top two votes, 0.0 where absent. The label is the best
    class if its vote reaches `threshold` and exceeds the runner-up by
    at least `margin`, otherwise `unknown`; an exact tie for first
    place is always unknown.
    """
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    if not ranked:
        return UNKNOWN, 0.0, 0.0
    label, best = ranked[0]
    second = ranked[1][1] if len(ranked) > 1 else 0.0
    close = len(ranked) > 1 and (second == best or best - second < margin)
    if close or best < threshold:
        label = UNKNOWN
    return label, best, second


def detect_candidates(
    tok: WordSequence, model: RecognitionModel
) -> dict[tuple[int, int], dict[str, float]]:
    """Candidate entity spans, as (first, last) token index pairs in
    order, each with its summed vote per class.

    Wherever a table's context words occur as a context (context_hits),
    the span grows from the anchor away from the context, up to
    max_entity_tokens, stopping at a sentence break or before a token
    that starts lowercase. A span's votes are those of every context at
    its edges: the left contexts of its first word, then the right
    contexts of its last, each group's votes in table order.
    """
    hits: dict[tuple[str, int], list[tuple[str, float]]] = {}
    spans: set[tuple[int, int]] = set()
    words = tok.words
    sent = tok.sent
    n = len(words)
    for side, anchor, votes in context_hits(tok, model._votes):
        hits.setdefault((side, anchor), []).extend(votes)
        step = 1 if side == LEFT else -1
        edge = anchor
        for _ in range(model.max_entity_tokens - 1):
            nxt = edge + step
            if not 0 <= nxt < n or sent[nxt] != sent[edge] or words[nxt][:1].islower():
                break
            edge = nxt
        spans.add((min(anchor, edge), max(anchor, edge)))
    candidates: dict[tuple[int, int], dict[str, float]] = {}
    for first, last in sorted(spans):
        totals: dict[str, float] = {}
        for label, weight in chain(hits.get((LEFT, first), ()), hits.get((RIGHT, last), ())):
            totals[label] = totals.get(label, 0.0) + weight
        candidates[first, last] = totals
    return candidates


def recognize_document(doc: Document, model: RecognitionModel) -> list[Annotation]:
    """Annotate one document's candidate spans with voted classes.

    Every class whose table holds a context of the span (as
    detect_candidates finds them) gets one vote per matching context, so
    a context shared across tables pulls each class up by its own weight.
    """
    if not model.tables:
        return []
    tok = tokenize(doc.clean)
    out: list[Annotation] = []
    for (first, last), votes in detect_candidates(tok, model).items():
        label, best, second = classify(votes, model.threshold, model.margin)
        out.append(
            Annotation(
                doc=doc.id,
                first=first,
                last=last,
                surface=tok.text[tok.starts[first] : tok.ends[last]],
                class_label=label,
                score=best,
                runner_up=second,
            )
        )
    return out


def recognize_corpus(
    documents: Iterable[Document], model: RecognitionModel
) -> list[Annotation]:
    out: list[Annotation] = []
    for doc in documents:
        out.extend(recognize_document(doc, model))
    return out


def _table_file_name(label: str) -> str:
    if not _LABEL_RE.match(label):
        raise DataFormatError(
            f"class label {label!r} is not usable as a file name"
            " (letters, digits, '_', '-', '.' only)"
        )
    return f"table_{label}.tsv"


def _read_index(index_path: Path) -> tuple[dict[str, str], tuple[float, float]]:
    """A model index as class -> table file, in line order, plus the
    threshold and margin its lines share ((0, 0) when it has none). Every
    check on an index is here, so weigh and recognize reject the same files."""
    entries: dict[str, str] = {}
    shared: set[tuple[float, float]] = set()

    def parse(label, table_file, theta, delta):
        if not label or label == UNKNOWN:
            raise ValueError(f"invalid class label {label!r}")
        if label in entries:
            raise ValueError(f"duplicate class {label!r}")
        table_path = index_path.parent / table_file
        if not table_path.is_file():
            raise ValueError(f"table file not found: {table_path}")
        theta, delta = float(theta), float(delta)
        if not (theta >= 0 and delta >= 0):
            raise ValueError("threshold and margin must be non-negative")
        shared.add((theta, delta))
        if len(shared) > 1:
            raise ValueError("threshold/margin disagree across classes")
        entries[label] = table_file

    tsv.read_rows(index_path, MODEL_HEADER, parse)
    return entries, next(iter(shared), (0.0, 0.0))


def _stored_index(directory: Path) -> tuple[dict[str, str], tuple[float, float]]:
    """_read_index of the directory's model.tsv, or an empty index."""
    index_path = directory / MODEL_FILE
    return _read_index(index_path) if index_path.is_file() else ({}, (0.0, 0.0))


def check_model_update(directory: str | Path, label: str) -> None:
    """Raise DataFormatError where update_model would reject this class
    label or the directory's stored index, before any table is built."""
    _table_file_name(label)
    _stored_index(Path(directory))


def update_model(
    directory: str | Path,
    label: str,
    table: WeightTable,
    threshold: Optional[float] = None,
    margin: Optional[float] = None,
) -> None:
    """Add or replace one class's table in a model directory.

    Other classes' entries are preserved. Threshold and margin are
    model-wide: explicit values overwrite the stored ones, otherwise
    the stored (or zero) values stay on every row.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries, stored = _stored_index(directory)
    file_name = _table_file_name(label)
    tsv.write_text(directory / file_name, format_weight_table(table))
    entries[label] = file_name
    theta = stored[0] if threshold is None else threshold
    delta = stored[1] if margin is None else margin
    rows = [
        [name, entries[name], f"{theta:.7g}", f"{delta:.7g}"]
        for name in sorted(entries)
    ]
    tsv.write_rows(directory / MODEL_FILE, MODEL_HEADER, rows)


def load_model(
    directory: str | Path,
    side: str = LEFT,
    threshold: Optional[float] = None,
    margin: Optional[float] = None,
    max_entity_tokens: int = 4,
) -> RecognitionModel:
    """Read a saved model; explicit threshold/margin arguments win."""
    index_path = Path(directory) / MODEL_FILE
    entries, stored = _read_index(index_path)
    if not entries:
        raise DataFormatError(f"{index_path}: model lists no classes")
    tables = {
        label: read_weight_mapping(index_path.parent / table_file, side)
        for label, table_file in entries.items()
    }
    return RecognitionModel(
        tables=tables,
        threshold=stored[0] if threshold is None else threshold,
        margin=stored[1] if margin is None else margin,
        max_entity_tokens=max_entity_tokens,
    )
