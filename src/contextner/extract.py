"""Tokenization, instance matching, and adjacent-context extraction.

All operations here are pure over immutable inputs; per-document work can
run in parallel as long as results are concatenated in document-id order.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, compress, count, islice, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, TypeVar

from .record import Record
from .seeds import LearningExample

LEFT = "left"
RIGHT = "right"

# Maximal runs of letters/digits, allowing internal apostrophes, periods
# and hyphens ("Bush's", "U.S", "far-right"). Underscore is a separator.
# The group makes re.split return the words between the gaps.
_WORD_RE = re.compile(r"([^\W_]+(?:['’.\-][^\W_]+)*)")
# The period after a word of one character, which that word keeps ("W."
# but not "U.S." or "a.W."): no word character follows the period, and
# the character before it follows neither a word character nor a joiner
# that follows one. _boundaries checks with str.isalpha that the character
# is a letter, which no regex class matches exactly.
_INITIAL_RE = re.compile(
    r"\.(?![^\W_])(?<=[^\W\d_]\.)(?<![^\W_]{2}\.)(?<![^\W_]['’.\-][^\W_]\.)"
)
# A terminator with only whitespace, at least some, between it and the
# next word. The text's end closes the last sentence without one.
_BREAK_RE = re.compile(r"[.!?]\s+(?=[^\W_])")


class WordSequence(Record):
    """A document's words and the sentence each one belongs to.

    `sent[i]` numbers the sentence of word i from 0, so a sentence ends
    between words j and j+1 exactly when sent[j] != sent[j+1]. Instance
    matching, context extraction and candidate detection read only this.
    """

    __slots__ = ("words", "sent")

    def __init__(self, words: tuple[str, ...], sent: tuple[int, ...]) -> None:
        self._assign(words=words, sent=sent)

    def __len__(self) -> int:
        return len(self.words)


class Tokenization(WordSequence):
    """The words of one document plus where they sit in its text.

    Word i is text[starts[i]:ends[i]].
    """

    __slots__ = ("text", "starts", "ends")

    def __init__(
        self,
        words: tuple[str, ...],
        sent: tuple[int, ...],
        text: str,
        starts: tuple[int, ...],
        ends: tuple[int, ...],
    ) -> None:
        self._assign(words=words, sent=sent, text=text, starts=starts, ends=ends)


def _boundaries(text: str) -> tuple[list[int], list[int]]:
    """The periods that initials keep, and where sentences after the first start.

    A single letter immediately followed by a period keeps the period
    ("W."), which also stops that period from ending a sentence. A
    sentence ends only at '.', '!' or '?' followed by whitespace and a
    capitalized word, and at the end of the text; commas never end one.
    Both lists are in text order. Each start is the offset of the word
    that opens a sentence, and some word comes before it.
    """
    initials = [
        m.start() for m in _INITIAL_RE.finditer(text) if text[m.start() - 1].isalpha()
    ]
    kept = set(initials)
    starts = [
        m.end()
        for m in _BREAK_RE.finditer(text)
        if text[m.end()].isupper() and m.start() not in kept
    ]
    if starts and not _WORD_RE.search(text, 0, starts[0]):
        del starts[0]  # a terminator before the first word ends no sentence
    return initials, starts


def tokenize(text: str) -> Tokenization:
    """Split cleaned text into words, sentence ids and character offsets,
    by the rules of _boundaries. split_words gives the same words and
    sentence ids without the offsets."""
    parts = _WORD_RE.split(text)  # gap, word, gap, ..., word, gap
    words = parts[1::2]
    offsets = list(accumulate(map(len, parts)))
    starts = offsets[0:-1:2]
    ends = offsets[1::2]
    initials, sentence_starts = _boundaries(text)
    for period in initials:
        i = bisect_left(starts, period - 1)
        words[i] += "."
        ends[i] += 1
    sent: list[int] = []
    for number, start in enumerate(sentence_starts):
        sent += repeat(number, bisect_left(starts, start) - len(sent))
    sent += repeat(len(sentence_starts), len(words) - len(sent))
    return Tokenization(
        words=tuple(words),
        sent=tuple(sent),
        text=text,
        starts=tuple(starts),
        ends=tuple(ends),
    )


def split_words(text: str) -> WordSequence:
    """The words and sentence ids of tokenize(text), without offsets.

    One findall gives each sentence's words. A sentence that holds an
    initial is scanned with finditer instead, whose match ends show
    which words take their initial's period.
    """
    initials, sentence_starts = _boundaries(text)
    words: list[str] = []
    sent: list[int] = []
    lo = 0
    for number, hi in enumerate(sentence_starts + [len(text)]):
        first, last = bisect_left(initials, lo), bisect_left(initials, hi)
        if first == last:
            found = _WORD_RE.findall(text, lo, hi)
        else:
            periods = initials[first:last]
            found = [
                m[0] + "." if m.end() in periods else m[0]
                for m in _WORD_RE.finditer(text, lo, hi)
            ]
        words += found
        sent += repeat(number, len(found))
        lo = hi
    return WordSequence(tuple(words), tuple(sent))


class InstanceOccurrence(NamedTuple):
    """A learning-example match at tokens [first, last] of a document."""

    example: LearningExample
    first: int
    last: int


# First word of a surface -> its (length, words, example) entries, longest first.
InstanceIndex = dict[str, tuple[tuple[int, tuple[str, ...], LearningExample], ...]]


def instance_index(examples: Iterable[LearningExample]) -> InstanceIndex:
    """Index example surfaces by their first word, for find_instances.

    Build it once per run. When two examples split into the same words,
    the first-listed one is kept.
    """
    by_words: dict[tuple[str, ...], LearningExample] = {}
    for ex in examples:
        by_words.setdefault(tuple(ex.surface.split()), ex)
    entries: dict[str, list[tuple[int, tuple[str, ...], LearningExample]]] = {}
    for words, ex in by_words.items():
        entries.setdefault(words[0], []).append((len(words), words, ex))
    return {
        first: tuple(sorted(group, key=lambda entry: -entry[0]))
        for first, group in entries.items()
    }


def find_instances(tok: WordSequence, index: InstanceIndex) -> list[InstanceOccurrence]:
    """Locate example surfaces in a word sequence.

    Scans left to right, prefers the longest matching surface at each
    position, and consumes matched spans so occurrences never overlap.
    Matching is case-sensitive on exact words. Only positions whose
    word starts some surface in `index` (from instance_index) are probed.
    """
    words = tok.words
    out: list[InstanceOccurrence] = []
    free = 0  # the first position past the previous match
    for i in compress(count(), map(index.__contains__, words)):
        if i < free:
            continue
        for length, surface, example in index[words[i]]:
            if words[i : i + length] == surface:
                out.append(InstanceOccurrence(example=example, first=i, last=i + length - 1))
                free = i + length
                break
    return out


class ContextKey(NamedTuple):
    """An n-word, case-sensitive sequence on one side of an entity.

    Keys sort by their words, then by side.
    """

    words: tuple[str, ...]
    side: str = LEFT

    @property
    def length(self) -> int:
        return len(self.words)

    def phrase(self) -> str:
        return " ".join(self.words)


def context_window(
    seq: WordSequence, anchor: int, length: int, side: str
) -> Optional[tuple[int, int]]:
    """The `length` words on `side` of word `anchor`, as a slice (lo, hi).

    This is the one rule for what counts as a context, in training and
    in recognition alike. Returns None when the anchor or the window
    runs past the document edge, or when the window and the anchor are
    not all in one sentence.
    """
    if length < 1:
        raise ValueError(f"context length must be >= 1, got {length}")
    if side == LEFT:
        first, last = anchor - length, anchor
    elif side == RIGHT:
        first, last = anchor, anchor + length
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if first < 0 or last >= len(seq) or seq.sent[first] != seq.sent[last]:
        return None
    return (first, anchor) if side == LEFT else (anchor + 1, last + 1)


def extract_context(
    occurrence: InstanceOccurrence,
    tok: WordSequence,
    length: int = 2,
    side: str = LEFT,
) -> Optional[ContextKey]:
    """The `length` tokens adjacent to an instance, or None where
    context_window rejects the window."""
    anchor = occurrence.first if side == LEFT else occurrence.last
    window = context_window(tok, anchor, length, side)
    if window is None:
        return None
    return ContextKey(tok.words[window[0] : window[1]], side)


def instance_contexts(
    tok: WordSequence,
    index: InstanceIndex,
    length: int,
    side: str,
) -> list[tuple[InstanceOccurrence, Optional[ContextKey]]]:
    """Every example occurrence of one document with its adjacent
    context, or None where extract_context rejects the window."""
    return [
        (occ, extract_context(occ, tok, length, side))
        for occ in find_instances(tok, index)
    ]


# (side, length) -> context words -> the context, groups in sorted order.
ContextGroups = dict[tuple[str, int], dict[tuple[str, ...], ContextKey]]


def group_contexts(contexts: Iterable[ContextKey]) -> ContextGroups:
    """Index contexts by (side, length), then by their words, for scanning."""
    groups: ContextGroups = {}
    for key in contexts:
        groups.setdefault((key.side, key.length), {})[key.words] = key
    return dict(sorted(groups.items()))


_V = TypeVar("_V")


def context_hits(
    seq: WordSequence, groups: Mapping[tuple[str, int], Mapping[tuple[str, ...], _V]]
) -> Iterator[tuple[str, int, _V]]:
    """Every place where grouped context words occur as a context.

    Weigh counts these hits and recognize votes with them; nothing else
    reads contexts out of a document. `groups` maps (side, length) to
    words to a value, as group_contexts does. Yields (side, anchor,
    value), groups in their own order and positions left to right,
    wherever context_window accepts a group's words as the context of
    word `anchor`.
    """
    words = seq.words
    for (side, length), entries in groups.items():
        shift = length if side == LEFT else -1
        # keys[p] = words[p : p + length], built and probed in C, so
        # that only the positions of hits come back to Python.
        keys = zip(*(islice(words, k, None) for k in range(length)))
        for p in compress(count(), map(entries.__contains__, keys)):
            if context_window(seq, p + shift, length, side) is not None:
                yield side, p + shift, entries[words[p : p + length]]
