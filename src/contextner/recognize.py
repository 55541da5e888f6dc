"""Entity recognition by weighted context voting.

A model holds one context->weight table per class. Candidate spans are
wherever a known context occurs under training's window rule; each
class whose table holds a context of the span adds the context's weight,
and the winning class must clear a threshold and beat the runner-up by a
margin or the span stays `unknown`.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .annotations import Annotation
from .corpus import Document
from .errors import DataFormatError
from .extract import LEFT, RIGHT, ContextKey, WordSequence, context_hits, tokenize
from .model import MODEL_FILE, _read_index, read_weight_mapping
from .record import Record
from .seeds import UNKNOWN, check_class_label


# length -> context words -> ((class, weight), ...) in table order.
_ContextVotes = dict[int, dict[tuple[str, ...], tuple[tuple[str, float], ...]]]


class RecognitionModel(Record):
    """Per-class context weights plus the decision parameters.

    On construction the tables are compiled into one index per side,
    grouped by length in increasing order, whose entries list every
    class's weight for those context words in `tables` order. Detection
    and voting read only those indexes, so each costs time proportional
    to a document's tokens, not to the model's size. Every weight must
    be positive and finite, and every context's side left or right. The
    tables must not be changed after construction.
    """

    __slots__ = ("tables", "threshold", "margin", "max_entity_tokens", "_left", "_right")

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
        votes: dict[str, _ContextVotes] = {LEFT: {}, RIGHT: {}}
        for label, table in tables.items():
            check_class_label(label)
            for key, weight in table.items():
                if not 0 < weight < math.inf:
                    kind = "non-positive" if weight <= 0 else "non-finite"
                    raise ValueError(f"{kind} weight {weight} for {key.phrase()!r} in {label}")
                words, side = key
                if side not in votes:
                    raise ValueError(
                        f"side {side!r} of {key.phrase()!r} in {label}"
                        " is neither 'left' nor 'right'"
                    )
                group = votes[side].setdefault(len(words), {})
                group[words] = group.get(words, ()) + ((label, weight),)
        self._assign(
            tables=tables,
            threshold=threshold,
            margin=margin,
            max_entity_tokens=max_entity_tokens,
            _left=dict(sorted(votes[LEFT].items())),
            _right=dict(sorted(votes[RIGHT].items())),
        )


def classify(
    votes: Mapping[str, float], threshold: float = 0.0, margin: float = 0.0
) -> tuple[str, float, float]:
    """The decision on one span's class votes: (label, best, runner-up).

    Votes rank highest first, equal votes by label; best and runner-up
    are the top two votes, 0.0 where absent. The label is the best
    class if its vote reaches `threshold` and exceeds the runner-up by
    at least `margin`, otherwise `unknown`; an exact tie for first
    place is always unknown. A vote from one class has no runner-up to
    rank against, so only the threshold decides it.
    """
    if not votes:
        return UNKNOWN, 0.0, 0.0
    if len(votes) == 1:
        [(label, best)] = votes.items()
        return (UNKNOWN if best < threshold else label), best, 0.0
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    label, best = ranked[0]
    second = ranked[1][1]
    if second == best or best - second < margin or best < threshold:
        label = UNKNOWN
    return label, best, second


def detect_candidates(
    tok: WordSequence, model: RecognitionModel
) -> dict[tuple[int, int], dict[str, float]]:
    """Candidate entity spans, as (first, last) token index pairs in
    order, each with its summed vote per class.

    Wherever a table's context words occur as a context (context_hits) of
    an anchor word that does not start lowercase, the span grows from the
    anchor away from the context, up to max_entity_tokens, stopping at a
    sentence break or before a token that starts lowercase. A span's votes
    are those of every context at its edges: the left contexts of its
    first word, then the right contexts of its last, each group's votes in
    table order.
    """
    words = tok.words
    opens = tok.opens
    grow = model.max_entity_tokens - 1
    spans: set[tuple[int, int]] = set()
    left: dict[int, tuple[tuple[str, float], ...]] = {}  # anchor -> votes in hit order
    right: dict[int, tuple[tuple[str, float], ...]] = {}
    for side, groups, hits in ((LEFT, model._left, left), (RIGHT, model._right, right)):
        for anchor, votes in context_hits(tok, side, groups):
            if words[anchor][:1].islower():
                continue
            if anchor in hits:
                hits[anchor] += votes
                continue
            hits[anchor] = votes
            first = last = anchor
            if side == LEFT:
                # The anchor is the span's first word; the span grows right
                # until the next word opens a sentence or starts lowercase.
                end = min(anchor + grow, len(words) - 1)
                while last < end and not opens[last + 1] and not words[last + 1][:1].islower():
                    last += 1
            else:
                # The anchor is the span's last word; the span grows left
                # until its first word opens a sentence or the word before
                # it starts lowercase.
                end = max(anchor - grow, 0)
                while first > end and not opens[first] and not words[first - 1][:1].islower():
                    first -= 1
            spans.add((first, last))
    candidates: dict[tuple[int, int], dict[str, float]] = {}
    for span in sorted(spans):
        totals: dict[str, float] = {}
        for label, weight in left.get(span[0], ()) + right.get(span[1], ()):
            totals[label] = totals.get(label, 0.0) + weight
        candidates[span] = totals
    return candidates


def recognize_document(doc: Document, model: RecognitionModel) -> list[Annotation]:
    """Annotate one document's candidate spans with voted classes.

    Every class whose table holds a context of the span (as
    detect_candidates finds them) gets one vote per matching context, so
    a context shared across tables pulls each class up by its own weight.
    """
    tok = tokenize(doc.clean)
    words = tok.words
    threshold, margin = model.threshold, model.margin
    return [
        Annotation(
            doc.id, first, last, " ".join(words[first : last + 1]),
            *classify(votes, threshold, margin),
        )
        for (first, last), votes in detect_candidates(tok, model).items()
    ]


def recognize_corpus(
    documents: Iterable[Document], model: RecognitionModel
) -> Iterator[Annotation]:
    """Each document's annotations in document order, yielded as each
    document is decided. Nothing here keeps a document once its
    annotations are made, nor its annotations once they are consumed,
    so only one document's text and spans are held at a time."""
    return chain.from_iterable(map(recognize_document, documents, repeat(model)))


def load_model(
    directory: str | Path,
    side: str = LEFT,
    threshold: Optional[float] = None,
    margin: Optional[float] = None,
    max_entity_tokens: int = 4,
) -> RecognitionModel:
    """Read a saved model; explicit threshold/margin arguments win."""
    directory = Path(directory)
    entries, stored = _read_index(directory)
    if not entries:
        raise DataFormatError(f"{directory / MODEL_FILE}: model lists no classes")
    tables = {
        label: read_weight_mapping(directory / table_file, side)
        for label, table_file in entries.items()
    }
    return RecognitionModel(
        tables=tables,
        threshold=stored[0] if threshold is None else threshold,
        margin=stored[1] if margin is None else margin,
        max_entity_tokens=max_entity_tokens,
    )
