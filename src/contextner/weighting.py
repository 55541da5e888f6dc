"""Context pertinence weighting, plus a tf-idf baseline for comparison.

The composite weight of a context multiplies four factors:

* cf  -- share of all example-adjacent context occurrences this context owns
* lef -- fraction of the learning examples it appeared next to
* df  -- fraction of the corpus's sources it appeared in
* icf -- its example-adjacent count over its other-adjacent count

Each factor is exposed on its own so the parts can be inspected or
re-weighted; `context_weight` is their plain product.

`growth_curve` runs the same per-document extraction over growing
prefixes of a corpus, to show how the context set saturates.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, NamedTuple

from . import tsv
from .corpus import CorpusManifest
from .errors import EmptyResultError, InputError
from .extract import (
    LEFT,
    RIGHT,
    ContextKey,
    WordSequence,
    context_hits,
    group_contexts,
    instance_contexts,
    instance_index,
    split_words,
)
from .record import Record
from .seeds import LearningExample, single_class

WEIGHT_HEADER = ["context", "cf", "df", "lef", "icf", "w"]
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


def term_frequency(count: int, doc_total: int) -> float:
    if count < 0 or doc_total <= 0 or count > doc_total:
        raise ValueError(f"bad term frequency counts: {count}/{doc_total}")
    return count / doc_total


def inverse_document_frequency(n_docs: int, n_containing: int) -> float:
    """log10 of total documents over documents containing the term."""
    if n_containing < 1 or n_docs < n_containing:
        raise ValueError(f"bad idf counts: {n_docs}/{n_containing}")
    return math.log10(n_docs / n_containing)


def tf_idf(tf: float, idf: float) -> float:
    return tf * idf


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


class TableConfig(Record):
    __slots__ = ("context_len", "side", "min_count")

    def __init__(self, context_len: int = 2, side: str = LEFT, min_count: int = 1) -> None:
        if context_len < 1:
            raise ValueError(f"context_len must be >= 1, got {context_len}")
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self._assign(context_len=context_len, side=side, min_count=min_count)


def collect_context_stats(
    corpus: CorpusManifest,
    examples: Iterable[LearningExample],
    config: TableConfig = TableConfig(),
) -> tuple[list[ContextStats], GlobalStats]:
    """Gather raw per-context counts from a corpus.

    First pass pulls the adjacent context of every example occurrence;
    second pass counts every context_hits hit of those contexts, split
    into example-adjacent and other-adjacent occurrences, and collects
    the document / source / example coverage. Between the passes only
    each document's words, sentence ids and the example surface at each
    instance's context anchor are kept.
    """
    examples = list(examples)
    single_class(examples)  # rejects examples of more than one class
    index = instance_index(examples)
    contexts: set[ContextKey] = set()
    total_with_examples = 0
    analyzed: list[tuple[str, str, WordSequence, dict[int, str]]] = []
    vocabulary: dict[str, str] = {}
    for doc in corpus:
        tok = split_words(doc.clean)
        found = instance_contexts(tok, index, config.context_len, config.side)
        for _occ, key in found:
            if key is not None:
                contexts.add(key)
                total_with_examples += 1
        # One string object per distinct word, so each kept word costs a pointer.
        seq = WordSequence(tuple(map(vocabulary.setdefault, tok.words, tok.words)), tok.sent)
        # Every context is of config.side, so its anchor is an instance's
        # first word (left) or last word (right).
        surfaces = {
            (occ.first if config.side == LEFT else occ.last): occ.example.surface
            for occ, _key in found
        }
        analyzed.append((doc.id, doc.source, seq, surfaces))

    with_examples: dict[ContextKey, int] = {}
    with_others: dict[ContextKey, int] = {}
    seen_examples: dict[ContextKey, set[str]] = {}
    docs_seen: dict[ContextKey, set[str]] = {}
    sources_seen: dict[ContextKey, set[str]] = {}
    groups = group_contexts(contexts)
    for doc_id, source, seq, surfaces in analyzed:
        for _side, anchor, key in context_hits(seq, groups):
            docs_seen.setdefault(key, set()).add(doc_id)
            sources_seen.setdefault(key, set()).add(source)
            surface = surfaces.get(anchor)
            if surface is None:
                with_others[key] = with_others.get(key, 0) + 1
            else:
                with_examples[key] = with_examples.get(key, 0) + 1
                seen_examples.setdefault(key, set()).add(surface)

    stats = [
        ContextStats(
            context=key,
            n_with_examples=with_examples.get(key, 0),
            n_with_others=with_others.get(key, 0),
            n_examples_seen=len(seen_examples.get(key, ())),
            n_docs=len(docs_seen.get(key, ())),
            n_sources=len(sources_seen.get(key, ())),
        )
        for key in sorted(contexts)
    ]
    totals = GlobalStats(
        total_with_examples=total_with_examples,
        n_examples=len({ex.surface for ex in examples}),
    )
    return stats, totals


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
    examples = list(examples)
    single_class(examples)  # rejects examples of more than one class
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

    index = instance_index(examples)
    documents = list(corpus)
    points: list[GrowthPoint] = []
    occurrences = 0
    contexts: set[ContextKey] = set()
    done = 0
    for step in steps:
        for doc in documents[done:step]:
            found = instance_contexts(
                split_words(doc.clean), index, config.context_len, config.side
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
    config: TableConfig = TableConfig(),
) -> WeightTable:
    """Score every context of a corpus against a single class's examples."""
    stats, totals = collect_context_stats(corpus, examples, config)
    if not stats:
        raise EmptyResultError(
            "no contexts extracted; check that the examples occur in the corpus"
        )
    kept = [s for s in stats if s.n_with_examples >= config.min_count]
    if not kept:
        raise EmptyResultError(
            f"no context occurs with examples at least {config.min_count} times"
        )
    rows = [weigh_context(s, totals) for s in kept]
    rows.sort(key=lambda r: (-r.weight, -r.stats.n_with_examples, r.context.words))
    return WeightTable(rows=tuple(rows), totals=totals)


def format_weight_table(table: WeightTable) -> str:
    rows = [
        [
            row.context.phrase(),
            f"{row.cf:.7g}",
            f"{row.df:.7g}",
            f"{row.lef:.7g}",
            f"{row.icf:.7g}",
            f"{row.weight:.7g}",
        ]
        for row in table.rows
    ]
    return tsv.format_rows(WEIGHT_HEADER, rows)


def read_weight_mapping(path: str | Path, side: str = LEFT) -> dict[ContextKey, float]:
    """Load context -> weight from a saved table, dropping non-positive rows.

    Two rows whose phrases split into the same words are rejected.
    """
    mapping: dict[ContextKey, float] = {}

    def parse(phrase, _cf, _df, _lef, _icf, w):
        words = tuple(phrase.split())
        if not words:
            raise ValueError("empty context phrase")
        try:
            weight = float(w)
        except ValueError:
            raise ValueError(f"bad weight {w!r}") from None
        key = ContextKey(words, side)
        if key in mapping:
            raise ValueError(f"duplicate context {phrase!r}")
        mapping[key] = weight

    tsv.read_rows(path, WEIGHT_HEADER, parse)
    return {key: w for key, w in mapping.items() if w > 0 and math.isfinite(w)}
