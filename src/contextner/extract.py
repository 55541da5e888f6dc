"""Tokenization, instance matching, and adjacent-context extraction.

All operations here are pure over immutable inputs.
"""

from __future__ import annotations

import re
from itertools import compress, count, islice
from operator import not_
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, TypeVar

from .record import Record
from .seeds import LearningExample

LEFT = "left"
RIGHT = "right"

# Maximal runs of letters/digits, allowing internal apostrophes, periods
# and hyphens ("Bush's", "U.S", "far-right"). Underscore is a separator.
# A word of one character also takes a period that no word character
# follows ("W." but not "U.S." or "a.W."); tokenize gives that period
# back unless the character is a letter, which no regex class matches
# exactly.
_WORD_RE = re.compile(r"[^\W_](?:\.(?![^\W_])|[^\W_]*(?:['’.\-][^\W_]+)*)")


class WordSequence(Record):
    """A document's words and where its sentences start.

    `opens` is the sentence map: one byte per word, 1 where the word
    opens a sentence after the first and 0 elsewhere, so its first byte
    is 0 and a sentence ends between words j and j+1 exactly when
    opens[j + 1] is 1. Instance matching, context extraction and
    candidate detection read only this.
    """

    __slots__ = ("words", "opens")

    def __init__(self, words: tuple[str, ...], opens: bytes) -> None:
        self._assign(words=words, opens=opens)

    def __len__(self) -> int:
        return len(self.words)


def tokenize(text: str) -> WordSequence:
    """Split cleaned text into words and its sentence map (see WordSequence).

    Words are maximal runs of letters and digits joined by single
    apostrophes, periods or hyphens, and a word of one letter keeps a
    period that follows it ("W." but not "U.S." or "a.W."). A sentence
    ends at a '.', '!' or '?' that no word keeps, when whitespace and
    then a capitalized word follow it and some word came before; the
    end of the text closes the last sentence. Commas never end one.

    Neither rule looks across more than one run of whitespace, so one
    str.split cuts the text into pieces that are read alone. A piece
    that is alphanumeric is one word as it stands, and a word with one
    mark after it, unless it is one character and a period, is cut
    without a regex; only the other pieces are searched, with one
    findall of _WORD_RE. Each piece is overwritten by its word in the
    split list, and only pieces of zero or several words are spliced.
    """
    words = text.split()
    starts: list[int] = []  # the first word of each sentence after the first
    several: list[tuple[int, list[str]]] = []  # pieces of zero or several words
    extra = 0  # words minus pieces, over the pieces read so far
    last = len(words) - 1
    for i in compress(count(), map(not_, map(str.isalnum, words))):
        piece = words[i]
        head = piece[:-1]
        # A word and one mark; a character and a period ("W.") is the regex's.
        if head.isalnum() and (len(head) > 1 or piece[-1] != "."):
            words[i] = head
        else:
            found = [  # a period taken by a character that is no letter goes back
                w if w[-1] != "." or w[0].isalpha() else w[0]
                for w in _WORD_RE.findall(piece)
            ]
            if len(found) == 1:
                words[i] = found[0]
            else:
                several.append((i, found))
                extra += len(found) - 1
            if found and piece.endswith(found[-1]):
                continue  # the piece ends inside a word
        # A terminator that no word kept: the next piece opens a sentence
        # if its first word is capitalized and some word came before it.
        if piece[-1] in ".!?" and i < last and i + 1 + extra > 0:
            first = words[i + 1][0]
            if first.isupper() and first.isalnum():
                starts.append(i + 1 + extra)
    if several:
        pieces, words, lo = words, [], 0
        for i, found in several:
            words += pieces[lo:i]
            words += found
            lo = i + 1
        words += pieces[lo:]
    opens = bytearray(len(words))
    for start in starts:
        opens[start] = 1
    return WordSequence(tuple(words), bytes(opens))


class InstanceOccurrence(NamedTuple):
    """A learning-example match at tokens [first, last] of a document."""

    example: LearningExample
    first: int
    last: int


# First word of a surface -> its (length, words, example) entries, longest first.
InstanceIndex = dict[str, tuple[tuple[int, tuple[str, ...], LearningExample], ...]]


def instance_index(examples: Iterable[LearningExample]) -> InstanceIndex:
    """Index example surfaces by their first word, for find_instances.

    A surface is keyed by the words tokenize gives it, so `U.S.` matches
    the text's `U.S`. Build it once per run. When two examples give the
    same words, the first-listed one is kept.
    """
    by_words: dict[tuple[str, ...], LearningExample] = {}
    for example in examples:
        by_words.setdefault(tokenize(example.surface).words, example)
    entries: dict[str, list[tuple[int, tuple[str, ...], LearningExample]]] = {}
    for words, example in by_words.items():
        entries.setdefault(words[0], []).append((len(words), words, example))
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
    if first < 0 or last >= len(seq.words):
        return None
    # No word after `first`, up to `last`, may open a sentence.
    if seq.opens.find(1, first + 1, last + 1) >= 0:
        return None
    return (first, anchor) if side == LEFT else (anchor + 1, last + 1)


_V = TypeVar("_V")


def context_hits(
    seq: WordSequence, side: str, groups: Mapping[int, Mapping[tuple[str, ...], _V]]
) -> Iterator[tuple[int, _V]]:
    """Every place where grouped context words occur as a context.

    Weigh counts these hits and recognize votes with them; nothing else
    reads contexts out of a document. `groups` maps a length to the
    words of `side` contexts of that length to a value. Yields (anchor,
    value), groups in their own order and positions left to right,
    wherever context_window accepts a group's words as the context of
    word `anchor`.
    """
    words = seq.words
    for length, entries in groups.items():
        shift = length if side == LEFT else -1
        # keys[p] = words[p : p + length], built and probed in C, so
        # that only the positions of hits come back to Python.
        keys = zip(*(islice(words, k, None) for k in range(length)))
        for p in compress(count(), map(entries.__contains__, keys)):
            if context_window(seq, p + shift, length, side) is not None:
                yield p + shift, entries[words[p : p + length]]
