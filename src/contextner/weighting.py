"""Context pertinence weighting.

The composite weight of a context multiplies four factors:

* cf  -- share of all example-adjacent context occurrences this context owns
* lef -- fraction of the learning examples it appeared next to
* df  -- fraction of the corpus's sources it appeared in
* icf -- its example-adjacent count over its other-adjacent count

Each factor is exposed on its own so the parts can be inspected or
re-weighted; `context_weight` is their plain product.

`growth_curve` reads the statistics' first-pass scan over growing
prefixes of a corpus, to show how the context set saturates.
"""

from __future__ import annotations

from itertools import islice, starmap
from typing import Iterable, Iterator, NamedTuple

from .corpus import CorpusManifest, Document
from .errors import EmptyResultError, InputError
from .extract import (
    LEFT,
    RIGHT,
    ContextKey,
    WordSequence,
    context_hits,
    context_window,
    find_instances,
    instance_index,
    tokenize,
)
from .record import Record
from .seeds import LearningExample, single_class

GROWTH_HEADER = ["docs", "occurrences", "contexts"]


def context_frequency(count: int, total: int) -> float:
    """Occurrences of one context next to examples over all such occurrences."""
    if count < 0 or total <= 0 or count > total:
        raise ValueError(f"bad context frequency counts: {count}/{total}")
    return count / total


def learning_example_frequency(seen: int, total: int) -> float:
    """Distinct examples a context appeared next to over all examples."""
    if seen < 0 or total <= 0 or seen > total:
        raise ValueError(f"bad example counts: {seen}/{total}")
    return seen / total


def document_frequency(sources: int, docs: int) -> float:
    """Distinct sources a context occurred in over documents containing it."""
    if sources < 1 or docs < 1 or sources > docs:
        raise ValueError(f"bad document counts: {sources}/{docs}")
    return sources / docs


def inverse_context_frequency(with_examples: int, with_others: int) -> float:
    """Example-adjacent count over other-adjacent count, floored at 1.

    A context never seen next to anything other than examples keeps its
    full count rather than dividing by zero. Contexts are only stored
    when seen with at least one example, so with_examples must be >= 1.
    """
    if with_examples < 1:
        raise ValueError(
            f"need at least one example-adjacent occurrence, got {with_examples}"
        )
    if with_others < 0:
        raise ValueError(f"other-occurrence count must be non-negative: {with_others}")
    return with_examples / max(with_others, 1)


def context_weight(cf: float, lef: float, df: float, icf: float) -> float:
    """Composite pertinence: the product of the four factors."""
    for name, value in (("cf", cf), ("lef", lef), ("df", df), ("icf", icf)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return cf * lef * df * icf


class ContextStats(NamedTuple):
    """Raw counts for one context over a corpus."""

    context: ContextKey
    n_with_examples: int
    n_with_others: int
    n_examples_seen: int
    n_docs: int
    n_sources: int


class GlobalStats(NamedTuple):
    """Corpus-wide totals the per-context factors are normalized by."""

    total_with_examples: int
    n_examples: int


class WeightedContext(NamedTuple):
    stats: ContextStats
    cf: float
    lef: float
    df: float
    icf: float
    weight: float

    @property
    def context(self) -> ContextKey:
        return self.stats.context


# A document's source, its words, each example occurrence's anchor ->
# surface, and the words of every context that the window rule accepts.
_Scanned = tuple[str, WordSequence, dict[int, str], list[tuple[str, ...]]]


def _example_contexts(
    corpus: CorpusManifest, examples: list[LearningExample], context_len: int, side: str
) -> tuple[int, Iterator[_Scanned]]:
    """The per-document scan that weigh and growth read, and the number
    of distinct examples it looks for: examples that give the same words
    are one, as in instance_index.

    Checks the examples and settings at once. The scan yields, as each
    document in corpus order is reached, its source and words, every
    example occurrence's surface keyed by its context anchor (an
    instance's first word for left contexts, its last for right), and
    the words of each occurrence's context where context_window accepts
    the window. Every context has `side` and `context_len`, so its words
    name it. The scan keeps nothing of a document once it has yielded
    it, so a caller that keeps nothing either holds one document's text
    and words at a time.
    """
    single_class(examples)  # rejects examples of more than one class
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    index = instance_index(examples)
    left = side == LEFT

    def scan(doc: Document) -> _Scanned:
        seq = tokenize(doc.clean)
        words = seq.words
        surfaces = {}
        contexts = []
        for example, first, last in find_instances(seq, index):
            anchor = first if left else last
            surfaces[anchor] = example.surface
            window = context_window(seq, anchor, context_len, side)
            if window is not None:
                contexts.append(words[window[0] : window[1]])
        return doc.source, seq, surfaces, contexts

    return sum(map(len, index.values())), map(scan, corpus)


def collect_context_stats(
    corpus: CorpusManifest,
    examples: Iterable[LearningExample],
    context_len: int = 2,
    side: str = LEFT,
) -> tuple[list[ContextStats], GlobalStats]:
    """Gather raw per-context counts from a corpus.

    First pass pulls the adjacent context of every example occurrence;
    second pass counts every context_hits hit of those contexts, split
    into example-adjacent and other-adjacent occurrences, and collects
    the document / source / example coverage. Between the passes only
    each document's source, its words (one string per distinct word
    across the corpus, so a kept word costs a pointer), its sentence
    starts, and the example surface at each instance's context anchor
    are kept. The second pass numbers the contexts in sorted order and
    keeps each count in a list by that number. It visits documents in
    order, so a context's hits in one document arrive together and its
    documents are counted without a set. total_with_examples sums the
    second pass's example-adjacent counts: it hits each example
    occurrence that has a context once, at its own anchor.
    """
    contexts: set[tuple[str, ...]] = set()
    vocabulary: dict[str, str] = {}

    def keep(
        source: str, seq: WordSequence, surfaces: dict[int, str], found: list[tuple[str, ...]]
    ) -> tuple[str, WordSequence, dict[int, str]]:
        contexts.update(found)
        # One string object per distinct word, so each kept word costs a pointer.
        words = tuple(map(vocabulary.setdefault, seq.words, seq.words))
        return source, WordSequence(words, seq.starts), surfaces

    # starmap holds no document after keep returns, so the next one is
    # read and split while only the kept form of the last one is alive.
    n_examples, scan = _example_contexts(corpus, list(examples), context_len, side)
    analyzed = list(starmap(keep, scan))

    ordered = sorted(contexts)
    n = len(ordered)
    with_examples = [0] * n
    with_others = [0] * n
    last_doc = [-1] * n  # the number of the last document it was hit in
    n_docs = [0] * n
    # Every context is hit at the example occurrence it came from, so
    # each one fills both of its sets.
    seen_examples = [set() for _ in ordered]
    sources_seen = [set() for _ in ordered]
    groups = {context_len: dict(zip(ordered, range(n)))}
    for number, (source, seq, surfaces) in enumerate(analyzed):
        for anchor, i in context_hits(seq, side, groups):
            if last_doc[i] != number:
                last_doc[i] = number
                n_docs[i] += 1
                sources_seen[i].add(source)
            surface = surfaces.get(anchor)
            if surface is None:
                with_others[i] += 1
            else:
                with_examples[i] += 1
                seen_examples[i].add(surface)

    stats = [
        ContextStats(
            context=ContextKey(words, side),
            n_with_examples=with_examples[i],
            n_with_others=with_others[i],
            n_examples_seen=len(seen_examples[i]),
            n_docs=n_docs[i],
            n_sources=len(sources_seen[i]),
        )
        for i, words in enumerate(ordered)
    ]
    return stats, GlobalStats(total_with_examples=sum(with_examples), n_examples=n_examples)


class GrowthPoint(NamedTuple):
    """One prefix of a growth curve; its fields are the growth file's
    columns, in order."""

    doc_count: int
    example_occurrences: int
    context_count: int


def growth_curve(
    corpus: CorpusManifest,
    examples: Iterable[LearningExample],
    steps: Iterable[int],
    context_len: int = 2,
    side: str = LEFT,
) -> list[GrowthPoint]:
    """Extraction statistics over growing prefixes of the corpus.

    For each prefix size, reports how many example occurrences the
    prefix contains and how many distinct contexts they produce.
    Prefixes follow manifest (document-id) order.
    """
    steps = list(steps)
    if not steps:
        raise InputError("no growth steps given")
    previous = 0
    for step in steps:
        if step <= previous:
            raise InputError(
                f"growth steps must be positive and increasing, got {steps}"
            )
        previous = step
    if steps[-1] > len(corpus):
        raise InputError(
            f"growth step {steps[-1]} exceeds corpus size {len(corpus)}"
        )

    _n_examples, scan = _example_contexts(corpus, list(examples), context_len, side)
    points: list[GrowthPoint] = []
    occurrences = 0
    contexts: set[tuple[str, ...]] = set()
    done = 0
    for step in steps:
        for _source, _seq, surfaces, found in islice(scan, step - done):
            occurrences += len(surfaces)
            contexts.update(found)
        done = step
        points.append(
            GrowthPoint(
                doc_count=step,
                example_occurrences=occurrences,
                context_count=len(contexts),
            )
        )
    return points


class WeightTable(Record):
    __slots__ = ("rows", "totals")

    def __init__(self, rows: tuple[WeightedContext, ...], totals: GlobalStats) -> None:
        self._assign(rows=rows, totals=totals)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_mapping(self) -> dict[ContextKey, float]:
        return {row.context: row.weight for row in self.rows}


def weigh_context(stats: ContextStats, totals: GlobalStats) -> WeightedContext:
    cf = context_frequency(stats.n_with_examples, totals.total_with_examples)
    lef = learning_example_frequency(stats.n_examples_seen, totals.n_examples)
    df = document_frequency(stats.n_sources, stats.n_docs)
    icf = inverse_context_frequency(stats.n_with_examples, stats.n_with_others)
    return WeightedContext(
        stats=stats,
        cf=cf,
        lef=lef,
        df=df,
        icf=icf,
        weight=context_weight(cf, lef, df, icf),
    )


def build_weight_table(
    corpus: CorpusManifest,
    examples: Iterable[LearningExample],
    context_len: int = 2,
    side: str = LEFT,
    min_count: int = 1,
) -> WeightTable:
    """Score every context of a corpus against a single class's examples,
    keeping those seen with examples at least `min_count` times."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    stats, totals = collect_context_stats(corpus, examples, context_len, side)
    if not stats:
        raise EmptyResultError(
            "no contexts extracted; check that the examples occur in the corpus"
        )
    kept = [s for s in stats if s.n_with_examples >= min_count]
    if not kept:
        raise EmptyResultError(
            f"no context occurs with examples at least {min_count} times"
        )
    rows = [weigh_context(s, totals) for s in kept]
    rows.sort(key=lambda r: (-r.weight, -r.stats.n_with_examples, r.context.words))
    return WeightTable(rows=tuple(rows), totals=totals)
