"""Brute-force reference computations used to cross-check the fast path.

Everything here recounts from scratch with plain loops over token lists,
and shares nothing with the package. That includes the tokenizer:
`oracle_tokenize` is a frozen copy of the package's original per-token
gap scan, kept as the reference its faster replacement must match. The
markup stripper's references are the package's original `html.parser`
stripper, `oracle_markup_text`, and its first regular-expression
stripper, `oracle_split_markup_text`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

LEFT = "left"
RIGHT = "right"


# -- tokenization --------------------------------------------------------------

_WORD_RE = re.compile(r"[^\W_]+(?:['’.\-][^\W_]+)*")
_TERMINATORS = ".!?"


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


def oracle_tokenize(text: str) -> tuple[list[str], list[tuple[int, int]], set[int]]:
    """Words, their (start, end) offsets, and the sentence breaks.

    A break i means a sentence ends after word i. The body is the
    package's original tokenizer, unchanged: one Token per word, and a
    character-by-character scan of every gap between words.
    """
    tokens: list[Token] = []
    for m in _WORD_RE.finditer(text):
        start, end = m.span()
        if end - start == 1 and text[start].isalpha() and end < len(text) and text[end] == ".":
            end += 1
        tokens.append(Token(text[start:end], start, end))

    breaks = set()
    for i, tok in enumerate(tokens):
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        gap = text[tok.end : nxt.start if nxt else len(text)]
        for j, ch in enumerate(gap):
            if ch not in _TERMINATORS:
                continue
            rest = gap[j + 1 :]
            if nxt is None:
                if not rest or rest.isspace():
                    breaks.add(i)
                    break
            elif rest and rest.isspace() and nxt.text[0].isupper():
                breaks.add(i)
                break
    return [t.text for t in tokens], [(t.start, t.end) for t in tokens], breaks


# -- markup --------------------------------------------------------------------

_SKIP_TAGS = {"script", "style"}


def oracle_markup_text(raw: str) -> str:
    """The text content of markup, skipping script/style subtrees.

    The package's original stripper, unchanged: `html.parser` callbacks
    that add one space per tag and drop script and style content.
    """
    from html.parser import HTMLParser

    chunks: list[str] = []
    skip_depth = 0

    def handle_starttag(tag, attrs):
        nonlocal skip_depth
        if tag in _SKIP_TAGS:
            skip_depth += 1
        else:
            chunks.append(" ")

    def handle_endtag(tag):
        nonlocal skip_depth
        if tag in _SKIP_TAGS:
            if skip_depth:
                skip_depth -= 1
        else:
            chunks.append(" ")

    def handle_data(data):
        if not skip_depth:
            chunks.append(data)

    parser = HTMLParser(convert_charrefs=True)
    parser.handle_starttag = handle_starttag
    parser.handle_endtag = handle_endtag
    parser.handle_data = handle_data
    parser.feed(raw)
    parser.close()
    return "".join(chunks)


# The package's first regular-expression stripper, unchanged: one
# `re.split` over this pattern, which reads a `<` that opens no complete
# construct as text only after scanning on to the end of the text.
_QUOTED = r"""[\s=]*(?:"[^"]*"|'[^']*')"""
_ATTRIBUTES = rf"(?:[\t\n\r\f /][^>=]*(?:=(?:{_QUOTED}|(?!{_QUOTED}))[^>=]*)*)?"


def _raw_text_element(name: str) -> str:
    name = f"(?ai:{name})"
    close = rf"/\s*{name}\s*>"
    return rf"{name}{_ATTRIBUTES}(?:(?<=/)>|>[^<]*(?:<(?!{close})[^<]*)*(?:<{close})?)"


_SPLIT_MARKUP = re.compile("<(?:" + "|".join([
    r"!--[\s\S]*?--\s*>",
    _raw_text_element("script"),
    _raw_text_element("style"),
    r"/(?:\s*(?ai:script|style)\s*|(?ai:script|style)[\t\n\r\f /][^>]*)>",
    rf"()(?:[a-zA-Z][^\t\n\r\f />]*{_ATTRIBUTES}"
    r"|/(?:[a-zA-Z][^>]*|\s+[a-zA-Z][-.a-zA-Z0-9:_]*\s*))>",
    r"/[^>]*>",
    r"(?:!(?!--)|\?)[^>]*>",
]) + ")")


def oracle_split_markup_text(raw: str) -> str:
    """The text content of markup as one `re.split` reads it: one space
    per tag other than script and style, references decoded in each run
    of text on its own. Quadratic on many unclosed constructs."""
    from html import unescape

    parts = _SPLIT_MARKUP.split(raw)
    parts[::2] = [unescape(text) if "&" in text else text for text in parts[::2]]
    parts[1::2] = ["" if space is None else " " for space in parts[1::2]]
    return "".join(parts)


# -- instance matching ---------------------------------------------------------


def oracle_find_instances(words: list[str], examples: list) -> list[tuple[int, int, object]]:
    """(first, last, example) for every example occurrence in `words`.

    A frozen copy of the package's original find_instances, changed only
    to take the words directly, to return tuples, and to key a surface by
    the words oracle_tokenize gives it: it rebuilds the surface index on
    every call and probes every position once per surface length.
    """
    by_words = {}
    for ex in examples:
        by_words.setdefault(tuple(oracle_tokenize(ex.surface)[0]), ex)
    lengths = sorted({len(w) for w in by_words}, reverse=True)
    words = tuple(words)
    out = []
    i = 0
    n = len(words)
    while i < n:
        hit = None
        for length in lengths:
            if i + length <= n and words[i : i + length] in by_words:
                hit = (length, by_words[words[i : i + length]])
                break
        if hit is None:
            i += 1
            continue
        length, example = hit
        out.append((i, i + length - 1, example))
        i += length
    return out


# -- weighting -----------------------------------------------------------------


@dataclass
class OracleDoc:
    doc_id: str
    source: str
    text: str


@dataclass
class OracleRow:
    nc: int
    c_other: int
    nle: int
    nd: int
    d_docs: int
    cf: float
    lef: float
    df: float
    icf: float
    weight: float


def naive_instances(words: list[str], surfaces: list[str]) -> list[tuple[int, int, str]]:
    """Longest-match-first left-to-right scan, consumed spans; a surface
    matches by the words oracle_tokenize gives it."""
    split = sorted({tuple(oracle_tokenize(s)[0]) for s in surfaces}, key=len, reverse=True)
    out = []
    i = 0
    while i < len(words):
        for cand in split:
            if tuple(words[i : i + len(cand)]) == cand:
                out.append((i, i + len(cand) - 1, " ".join(cand)))
                i += len(cand)
                break
        else:
            i += 1
    return out


def _window_ok(breaks: set[int], lo: int, hi: int) -> bool:
    return not any(j in breaks for j in range(lo, hi))


def _instance_context(
    words: list[str], breaks: set[int], first: int, last: int, length: int, side: str
) -> tuple[str, ...] | None:
    """The `length` words beside instance [first, last] on `side`, or None
    when they run past the document or a sentence break falls among them
    and the instance's nearest word."""
    if side == LEFT:
        lo = first - length
        if lo < 0 or not _window_ok(breaks, lo, first):
            return None
        return tuple(words[lo:first])
    hi = last + length
    if hi >= len(words) or not _window_ok(breaks, last, hi):
        return None
    return tuple(words[last + 1 : hi + 1])


def oracle_stats(
    docs: list[OracleDoc],
    surfaces: list[str],
    length: int = 2,
    side: str = LEFT,
) -> tuple[dict[tuple[str, ...], OracleRow], int]:
    """All context rows plus the total example-adjacent occurrence count.

    Contexts are collected by walking the instances; the counts are then
    redone by enumerating every n-gram window of every document.
    """
    prepared = []
    for doc in docs:
        words, _spans, breaks = oracle_tokenize(doc.text)
        insts = naive_instances(words, surfaces)
        prepared.append((doc, words, breaks, insts))

    keys: set[tuple[str, ...]] = set()
    total_nc = 0
    for _doc, words, breaks, insts in prepared:
        for first, last, _surface in insts:
            key = _instance_context(words, breaks, first, last, length, side)
            if key is not None:
                keys.add(key)
                total_nc += 1

    n_examples = len({tuple(oracle_tokenize(s)[0]) for s in surfaces})
    rows: dict[tuple[str, ...], OracleRow] = {}
    for key in keys:
        nc = 0
        c_other = 0
        seen_surfaces: set[str] = set()
        seen_docs: set[str] = set()
        seen_sources: set[str] = set()
        for doc, words, breaks, insts in prepared:
            starts = {first: surface for first, _last, surface in insts}
            ends = {last: surface for _first, last, surface in insts}
            for p in range(len(words) - length + 1):
                if tuple(words[p : p + length]) != key:
                    continue
                if side == LEFT:
                    adjacent = p + length
                    if adjacent >= len(words) or not _window_ok(breaks, p, adjacent):
                        continue
                    surface = starts.get(adjacent)
                else:
                    if p == 0 or not _window_ok(breaks, p - 1, p + length - 1):
                        continue
                    surface = ends.get(p - 1)
                if surface is None:
                    c_other += 1
                else:
                    nc += 1
                    seen_surfaces.add(surface)
                seen_docs.add(doc.doc_id)
                seen_sources.add(doc.source)
        cf = nc / total_nc
        lef = len(seen_surfaces) / n_examples
        df = len(seen_sources) / len(seen_docs)
        icf = nc / c_other if c_other >= 1 else nc / 1
        rows[key] = OracleRow(
            nc=nc,
            c_other=c_other,
            nle=len(seen_surfaces),
            nd=len(seen_sources),
            d_docs=len(seen_docs),
            cf=cf,
            lef=lef,
            df=df,
            icf=icf,
            weight=cf * lef * df * icf,
        )
    return rows, total_nc


def oracle_growth(
    docs: list[OracleDoc],
    surfaces: list[str],
    steps: list[int],
    length: int = 2,
    side: str = LEFT,
) -> list[tuple[int, int, int]]:
    """(prefix size, example occurrences, distinct contexts) per step.

    Every prefix of the id-ordered documents is recounted from scratch:
    each instance counts as an occurrence, and those whose window holds
    adds its words to the prefix's context set.
    """
    ordered = sorted(docs, key=lambda d: d.doc_id)
    points = []
    for step in steps:
        occurrences = 0
        keys: set[tuple[str, ...]] = set()
        for doc in ordered[:step]:
            words, _spans, breaks = oracle_tokenize(doc.text)
            for first, last, _surface in naive_instances(words, surfaces):
                occurrences += 1
                key = _instance_context(words, breaks, first, last, length, side)
                if key is not None:
                    keys.add(key)
        points.append((step, occurrences, len(keys)))
    return points


# Small vocabularies keep n-grams repeating often enough to be interesting.
FILLER = [
    "the", "a", "map", "of", "hotels", "in", "travel", "to", "visit",
    "old", "city", "guide", "cheap", "near", "flights", "from", "stay",
    "Map", "Hotels", "Travel", "Guide", "The",
]
SURFACE_POOL = [
    "Paris", "Berlin", "Tunis", "London", "Rio",
    "New York", "San Luis Obispo", "George W. Bush", "Bush", "Y.",
]
SOURCES = ["alpha", "beta", "gamma", "delta"]
GLUE = [" ", " ", " ", " ", ". ", "! ", "? ", ", ", "; ", " - ", "\n"]


def random_corpus(rng: random.Random) -> tuple[list[OracleDoc], list[str]]:
    """A corpus of up to 10 short documents plus its example surfaces.

    Surfaces may overlap ("Bush" inside "George W. Bush"); sources
    repeat so the df factor gets exercised below 1.
    """
    n_surfaces = rng.randint(2, 5)
    surfaces = rng.sample(SURFACE_POOL, n_surfaces)
    docs = []
    for d in range(rng.randint(1, 10)):
        pieces = []
        for _ in range(rng.randint(3, 50)):
            roll = rng.random()
            if roll < 0.25:
                pieces.append(rng.choice(surfaces))
            else:
                pieces.append(rng.choice(FILLER))
            pieces.append(rng.choice(GLUE))
        docs.append(
            OracleDoc(
                doc_id=f"d{d:02}",
                source=rng.choice(SOURCES),
                text="".join(pieces).strip(),
            )
        )
    return docs, surfaces


# -- recognition ---------------------------------------------------------------

# A class table as (side, context words) -> weight.
OracleTable = dict[tuple[str, tuple[str, ...]], float]


@dataclass
class OracleAnnotation:
    first: int
    last: int
    surface: str
    class_label: str
    score: float
    runner_up: float


def _candidate_span(
    words: list[str], breaks: set[int], side: str, p: int, length: int, limit: int
) -> tuple[int, int] | None:
    """The span next to a context found at token p, or None.

    None when the context has no next token, that token starts
    lowercase, or a sentence break falls between any of its words and
    that token. The span grows away from the context, one token at a
    time, up to `limit` tokens, stopping before a lowercase token or
    across a sentence break.
    """
    if side == LEFT:
        first = p + length
        if first >= len(words) or not _window_ok(breaks, p, first):
            return None
        if words[first][:1].islower():
            return None
        last = first
        while last - first + 1 < limit:
            nxt = last + 1
            if last in breaks or nxt >= len(words) or words[nxt][:1].islower():
                break
            last = nxt
        return first, last
    last = p - 1
    if last < 0 or not _window_ok(breaks, last, p + length - 1):
        return None
    if words[last][:1].islower():
        return None
    first = last
    while last - first + 1 < limit:
        prev = first - 1
        if prev < 0 or prev in breaks or words[prev][:1].islower():
            break
        first = prev
    return first, last


def oracle_classify(
    votes: dict[str, float], threshold: float, margin: float
) -> tuple[str, float, float]:
    """The decision rule by a full ranking, whatever the number of classes.

    Votes rank highest first, equal votes by label. The best vote wins
    if it is not tied, beats an existing runner-up by `margin` and
    reaches `threshold`; otherwise the span is `unknown`. Best and
    runner-up are 0.0 where absent.
    """
    ranked = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
    decided = "unknown"
    best = ranked[0][1] if ranked else 0.0
    runner_up = ranked[1][1] if len(ranked) > 1 else 0.0
    if ranked:
        beaten = len(ranked) == 1 or (best != runner_up and best - runner_up >= margin)
        if beaten and best >= threshold:
            decided = ranked[0][0]
    return decided, best, runner_up


def oracle_recognize(
    text: str,
    tables: dict[str, OracleTable],
    threshold: float,
    margin: float,
    max_entity_tokens: int,
) -> list[OracleAnnotation]:
    """Recognition recounted with plain loops, candidate by candidate.

    Candidates come from every position of every context of every
    table whose words and next token share a sentence. Each candidate
    then checks every context of every table for adjacency within its
    sentence; a class's vote adds its matching weights in ascending
    (side, length) order, the documented summation order, and
    oracle_classify decides the span.
    """
    words, offsets, breaks = oracle_tokenize(text)
    spans: set[tuple[int, int]] = set()
    for table in tables.values():
        for side, context in table:
            length = len(context)
            for p in range(len(words) - length + 1):
                if tuple(words[p : p + length]) != context:
                    continue
                span = _candidate_span(words, breaks, side, p, length, max_entity_tokens)
                if span is not None:
                    spans.add(span)

    out = []
    for first, last in sorted(spans):
        votes: dict[str, float] = {}
        for label, table in tables.items():
            hits = []
            for (side, context), weight in table.items():
                length = len(context)
                if side == LEFT:
                    lo, hi = first - length, first
                    same_sentence = _window_ok(breaks, lo, first)
                else:
                    lo, hi = last + 1, last + 1 + length
                    same_sentence = _window_ok(breaks, last, hi - 1)
                if (
                    lo >= 0
                    and hi <= len(words)
                    and same_sentence
                    and tuple(words[lo:hi]) == context
                ):
                    hits.append(((side, length), weight))
            if hits:
                total = 0.0
                for _group, weight in sorted(hits):
                    total += weight
                votes[label] = total
        decided, best, runner_up = oracle_classify(votes, threshold, margin)
        out.append(
            OracleAnnotation(
                first=first,
                last=last,
                surface=" ".join(words[first : last + 1]),
                class_label=decided,
                score=best,
                runner_up=runner_up,
            )
        )
    return out


RECOGNITION_WORDS = [
    "Paris", "Berlin", "New", "York", "Rio", "George", "W.", "Bush",
    "Map", "Hotels", "The", "of", "in", "to", "the", "visit", "arrived",
    "is", "big", "near", "old",
]
CLASS_LABELS = ["alpha", "beta", "gamma", "delta"]


@dataclass
class RecognitionCase:
    text: str
    tables: dict[str, OracleTable]
    threshold: float
    margin: float
    max_entity_tokens: int


def random_recognition_case(rng: random.Random) -> RecognitionCase:
    """A short document plus a 1-4 class model over its vocabulary.

    Contexts take either side and 1-3 words, mostly n-grams lifted from
    the document so they match; a context may reappear in a later class
    with its own weight. Weights often come from a few round values, so
    exact ties between classes happen.
    """
    pieces = []
    for _ in range(rng.randint(3, 40)):
        pieces.append(rng.choice(RECOGNITION_WORDS))
        pieces.append(rng.choice(GLUE))
    text = "".join(pieces).strip()
    words, _offsets, _breaks = oracle_tokenize(text)

    def weight() -> float:
        return rng.choice([0.25, 0.5, 1.0]) if rng.random() < 0.5 else rng.uniform(0.01, 1.0)

    tables: dict[str, OracleTable] = {}
    for label in rng.sample(CLASS_LABELS, rng.randint(1, 4)):
        table: OracleTable = {}
        if tables and rng.random() < 0.5:
            shared = rng.choice(sorted({key for t in tables.values() for key in t}))
            table[shared] = weight()
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 3)
            if len(words) >= length and rng.random() < 0.8:
                p = rng.randrange(len(words) - length + 1)
                context = tuple(words[p : p + length])
            else:
                context = tuple(rng.choices(RECOGNITION_WORDS, k=length))
            table[(rng.choice([LEFT, RIGHT]), context)] = weight()
        tables[label] = table
    return RecognitionCase(
        text=text,
        tables=tables,
        threshold=rng.choice([0.0, rng.uniform(0.0, 1.5)]),
        margin=rng.choice([0.0, rng.uniform(0.0, 0.8)]),
        max_entity_tokens=rng.randint(1, 5),
    )
