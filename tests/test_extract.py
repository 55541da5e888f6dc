import random
import time

import pytest
from hypothesis import example, given, strategies as st

from conftest import capitals, make_corpus, make_doc
from oracle import oracle_find_instances, oracle_tokenize, random_corpus
from contextner.extract import (
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
from contextner.corpus import CorpusManifest
from contextner.seeds import LearningExample
from contextner.weighting import _example_contexts, collect_context_stats


def words_of(text):
    return list(tokenize(text).words)


def breaks_of(tok):
    """Indices i such that a sentence ends between word i and word i+1."""
    return frozenset(i - 1 for i, opens in enumerate(tok.opens) if opens)


def test_tokenize_basic():
    assert words_of("Hotels in Paris") == ["Hotels", "in", "Paris"]


def test_tokenize_strips_terminal_punctuation():
    tok = tokenize("Map of Tunis.")
    assert list(tok.words) == ["Map", "of", "Tunis"]
    assert breaks_of(tokenize("Map of Tunis. Then")) == frozenset({2})


def test_tokenize_keeps_single_letter_abbreviations():
    assert words_of("George W. Bush's") == ["George", "W.", "Bush's"]


def test_tokenize_internal_punctuation():
    assert words_of("far-right U.N delegates") == ["far-right", "U.N", "delegates"]


def test_sentence_break_needs_capital():
    tok = tokenize("visit paris. then rome")
    assert breaks_of(tok) == frozenset()
    tok = tokenize("visit paris. Then rome")
    assert breaks_of(tok) == frozenset({1})
    assert breaks_of(tokenize("visit paris. 2 days")) == frozenset()


def test_comma_is_not_a_break():
    tok = tokenize("of our nation, Chirac said")
    assert breaks_of(tok) == frozenset()


def test_exclamation_and_question_break():
    tok = tokenize("Go! Now? Yes")
    assert breaks_of(tok) == frozenset({0, 1})


def test_break_at_end_of_document():
    assert tokenize("It ended.").opens == b"\0\0"
    assert tokenize("It ended.  ").opens == b"\0\0"
    assert tokenize("no terminator").opens == b"\0\0"
    assert tokenize("It ended. Then").opens == b"\0\0\1"


def test_abbreviation_period_does_not_break():
    # The period is part of the "W." token, so no sentence ends there.
    tok = tokenize("George W. Bush spoke")
    assert breaks_of(tok) == frozenset()


# Pieces that hit every rule of the tokenizer: terminators, runs of mixed
# whitespace, separators and joiners, initials and dotted abbreviations,
# and letters, digits and other numerals outside ASCII.
PIECES = [
    ".", "!", "?", ". ", "? ", " ", "  ", "\n", "\t", " \n\t", "\u00a0", "_", "'", "’",
    "-", ",", "W. ", "U.S. ", "...", ".)", "é", "1", "²", "a", "Z", "Paris", "in", "Éclair",
]
biased_text = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


def assert_matches_oracle(text):
    tok = tokenize(text)
    words, _spans, breaks = oracle_tokenize(text)
    assert tok.words == tuple(words)
    # A break after the final word is implicit in the sentence map.
    assert breaks_of(tok) == breaks - {len(words) - 1}
    # The map has a byte per word, each 0 or 1, and the first word opens none.
    assert len(tok.opens) == len(tok)
    assert set(tok.opens) <= {0, 1}
    assert tok.opens[:1] != b"\1"


@given(st.text())
def test_tokenize_matches_frozen_tokenizer(text):
    assert_matches_oracle(text)


@given(biased_text)
def test_tokenize_matches_frozen_tokenizer_on_punctuated_text(text):
    assert_matches_oracle(text)


# More pieces for the piece-by-piece reading: every other character that
# str.split splits on, numerals that are alphanumeric but neither
# alphabetic nor decimal, one letter with marks, pieces of several words
# and pieces with none.
WIDE_PIECES = PIECES + [
    "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u1680",
    *map(chr, range(0x2000, 0x200B)), "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
    "½", "Ⅻ", "³", "½.", "Ⅻ.", "³.",
    "W.,", "é...", "x.)", "a.W.", "and/or", "x--y", "—",
]


@given(st.lists(st.sampled_from(WIDE_PIECES), max_size=40).map("".join))
@example("é... Paris")  # the last period is no initial's, so a sentence ends
def test_tokenize_matches_frozen_tokenizer_on_wide_pieces(text):
    assert_matches_oracle(text)


def test_tokenize_keeps_an_initial_and_breaks_after_a_sentence():
    tok = tokenize("George W. Bush spoke. Then he left.")
    assert tok.words == ("George", "W.", "Bush", "spoke", "Then", "he", "left")
    assert tok.opens == b"\0\0\0\0\1\0\0"


def test_terminator_before_the_first_word_ends_no_sentence():
    assert tokenize("! Go. Now").opens == b"\0\1"


@given(st.one_of(st.text(), st.lists(st.sampled_from(WIDE_PIECES), max_size=40).map("".join)))
def test_sentence_map_is_one_byte_per_word(text):
    opens = tokenize(text).opens
    words, _spans, breaks = oracle_tokenize(text)
    assert type(opens) is bytes and len(opens) == len(words)
    assert set(opens) <= {0, 1}
    assert opens[:1] != b"\1"
    # A 1 wherever the frozen tokenizer ends a sentence before a word.
    assert {i for i, b in enumerate(opens) if b} == {b + 1 for b in breaks} - {len(words)}


@given(biased_text)
def test_context_window_agrees_with_breaks(text):
    tok = tokenize(text)
    n = len(tok)
    breaks = breaks_of(tok)
    for anchor in range(n):
        for length in (1, 2, 3):
            # first..last: the window plus its anchor, both sides.
            for side, first, last, expected in (
                (LEFT, anchor - length, anchor, (anchor - length, anchor)),
                (RIGHT, anchor, anchor + length, (anchor + 1, anchor + length + 1)),
            ):
                rejected = (
                    first < 0
                    or last >= n
                    or any(j in breaks for j in range(first, last))
                )
                window = context_window(tok, anchor, length, side)
                assert window == (None if rejected else expected)


def test_find_instances_prefers_longest():
    tok = tokenize("invitation of president Nicolas Sarkozy")
    examples = [
        LearningExample("Sarkozy", "president"),
        LearningExample("Nicolas Sarkozy", "president"),
    ]
    occs = find_instances(tok, instance_index(examples))
    assert [(o.first, o.last, o.example.surface) for o in occs] == [
        (3, 4, "Nicolas Sarkozy")
    ]


def test_find_instances_simple():
    tok = tokenize("President Bush said")
    bush = instance_index([LearningExample("Bush", "president")])
    assert [(o.first, o.last) for o in find_instances(tok, bush)] == [(1, 1)]
    blair = instance_index([LearningExample("Blair", "president")])
    assert find_instances(tok, blair) == []


def test_find_instances_non_overlapping_and_sorted():
    tok = tokenize("Bush met George W. Bush and Bush left")
    examples = [LearningExample("George W. Bush", "p"), LearningExample("Bush", "p")]
    occs = find_instances(tok, instance_index(examples))
    spans = [(o.first, o.last) for o in occs]
    assert spans == sorted(spans)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b < c
    assert [o.example.surface for o in occs] == ["Bush", "George W. Bush", "Bush"]


MATCH_WORDS = ["A", "B", "C", "D"]
learning_examples = st.lists(
    st.builds(
        lambda words, gap, label: LearningExample(gap.join(words), label),
        st.lists(st.sampled_from(MATCH_WORDS), min_size=1, max_size=3),
        st.sampled_from([" ", "  "]),
        st.sampled_from(["x", "y"]),
    ),
    min_size=1,
    max_size=6,
)


@given(st.lists(st.sampled_from(MATCH_WORDS + ["e"]), max_size=40), learning_examples)
@example(
    "Bush met George W. Bush and Bush left".split(),
    [LearningExample("Bush", "x"), LearningExample("George W. Bush", "x")],
)
@example(
    "A B C A C A B".split(),
    [LearningExample("A", "x"), LearningExample("A C", "x"), LearningExample("A B C", "x")],
)
@example(
    "C A B A B".split(),
    [LearningExample("A  B", "x"), LearningExample("A B", "y"), LearningExample("A B", "x")],
)
def test_find_instances_matches_frozen_matcher(words, examples):
    seq = WordSequence(tuple(words), bytes(len(words)))
    found = find_instances(seq, instance_index(examples))
    assert [(o.first, o.last, o.example) for o in found] == oracle_find_instances(
        words, examples
    )


@pytest.mark.parametrize(
    "surface, text, span",
    [
        ("U.S.", "He lives in the U.S. now.", (4, 4)),
        ("(Paris)", "Hotels in Paris, France.", (2, 2)),
        ("St. Louis", "Flights to St. Louis today.", (2, 3)),
        ("Paris,", "Hotels in (Paris) now.", (2, 2)),
    ],
)
def test_punctuated_example_surfaces_are_found_in_text(surface, text, span):
    [occ] = find_instances(tokenize(text), instance_index(capitals(surface)))
    assert (occ.first, occ.last) == span


# Surfaces of words and marks: letters the filler word never holds, so a
# surface can match only where it was placed.
SURFACE_CHARS = "AbZ9é.'’-(),!?&\"/ "
surfaces = st.text(SURFACE_CHARS, min_size=1, max_size=14).filter(
    lambda text: any(map(str.isalnum, text))
)


@given(st.lists(surfaces, min_size=1, max_size=4), st.lists(st.integers(0, 4), max_size=12))
@example(["U.S."], [0])
@example(["St. Louis", "(St.", "Louis)"], [1, 2, 0])
def test_surfaces_match_text_by_their_tokenized_words(texts, order):
    examples = [LearningExample(text, "c") for text in texts]
    # The first surface between filler words, then surfaces and fillers
    # in the drawn order (an index past the surfaces is a filler).
    pieces = ["and", texts[0], "and"] + [texts[i] if i < len(texts) else "and" for i in order]
    text = " ".join(pieces)
    found = find_instances(tokenize(text), instance_index(examples))
    found = [(o.first, o.last, o.example) for o in found]
    assert found == oracle_find_instances(oracle_tokenize(text)[0], examples)
    assert found[0] == (1, len(tokenize(texts[0]).words), examples[0])


def context_of(tok, examples, length, side):
    """The words context_window takes on `side` of the first instance of
    `examples` in `tok`, as weigh's first pass takes them, or None."""
    occ = find_instances(tok, instance_index(examples))[0]
    window = context_window(tok, occ.first if side == LEFT else occ.last, length, side)
    return None if window is None else tok.words[window[0] : window[1]]


def test_extract_context_left():
    tok = tokenize("Hotels in Paris")
    assert context_of(tok, capitals("Paris"), 2, LEFT) == ("Hotels", "in")


def test_extract_context_insufficient_tokens():
    tok = tokenize("Paris is big")
    assert context_of(tok, capitals("Paris"), 2, LEFT) is None


def test_extract_context_comma_does_not_block():
    tok = tokenize("of the unity of our nation, Chirac said")
    chirac = [LearningExample("Chirac", "president")]
    assert context_of(tok, chirac, 2, LEFT) == ("our", "nation")


def test_extract_context_blocked_by_sentence_break():
    tok = tokenize("It ended. Paris is far")
    assert context_of(tok, capitals("Paris"), 2, LEFT) is None


def test_extract_context_right_side():
    tok = tokenize("Paris is big")
    assert context_of(tok, capitals("Paris"), 2, RIGHT) == ("is", "big")
    assert context_of(tok, capitals("Paris"), 3, RIGHT) is None


def test_extract_context_rejects_bad_args():
    tok = tokenize("Hotels in Paris")
    with pytest.raises(ValueError):
        context_of(tok, capitals("Paris"), 0, LEFT)
    with pytest.raises(ValueError):
        context_of(tok, capitals("Paris"), 2, "above")


def counts(texts, examples, side=LEFT):
    """(context, with-example count, other count, examples seen, documents)
    for every context weigh's scan counts in a corpus of `texts`."""
    stats, _totals = collect_context_stats(make_corpus(*texts), examples, 2, side)
    return [
        (s.context.phrase(), s.n_with_examples, s.n_with_others, s.n_examples_seen, s.n_docs)
        for s in stats
    ]


def test_scan_counts_example_and_other_occurrences():
    text = "Hotels in Paris. " * 3 + "Hotels in budget. Hotels in comfort."
    assert counts([text], capitals("Paris")) == [("Hotels in", 3, 2, 1, 1)]


def test_scan_requires_adjacent_token_in_same_sentence():
    # "in" ends a sentence before "Paris", so in the second document this
    # window has no valid adjacent phrase and must not be counted on
    # either side of the gap.
    texts = ["Hotels in Paris.", "They checked Hotels in. Paris was next."]
    assert counts(texts, capitals("Paris")) == [("Hotels in", 1, 0, 1, 1)]


def test_scan_right_side():
    texts = ["Paris is big. Rome is big."]
    assert counts(texts, capitals("Paris"), side=RIGHT) == [("is big", 1, 1, 1, 1)]


def group_contexts(contexts, side):
    """The contexts of `side` as context_hits reads them: by length in
    increasing order, then by their words."""
    groups = {}
    for key in contexts:
        if key.side == side:
            groups.setdefault(len(key.words), {})[key.words] = key
    return dict(sorted(groups.items()))


def test_scan_grouped_contexts_of_both_sides():
    contexts = [
        ContextKey(("is", "big"), "right"),
        ContextKey(("Hotels", "in"), "left"),
        ContextKey(("in",), "left"),
    ]
    groups = group_contexts(contexts, LEFT)
    assert list(groups) == [1, 2]
    assert groups[2] == {("Hotels", "in"): contexts[1]}
    tok = tokenize("Hotels in Paris. Paris is big.")
    assert list(context_hits(tok, LEFT, groups)) == [(2, contexts[2]), (2, contexts[1])]
    right_groups = group_contexts(contexts, RIGHT)
    assert right_groups == {2: {("is", "big"): contexts[0]}}
    assert list(context_hits(tok, RIGHT, right_groups)) == [(3, contexts[0])]


def test_extraction_and_scan_apply_one_window_rule():
    """Training's two directions agree: weigh's first pass keeps context K
    of an instance exactly when scanning for K finds it at that instance."""
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for _ in range(60):
        docs, surfaces = random_corpus(rng)
        corpus = CorpusManifest([make_doc(d.doc_id, d.text, source=d.source) for d in docs])
        examples = [LearningExample(surface, "c") for surface in surfaces]
        for side in (LEFT, RIGHT):
            for length in (1, 2, 3):
                _n_examples, scan = _example_contexts(corpus, examples, length, side)
                for _source, tok, anchors, kept in scan:
                    found = []
                    for anchor in anchors:
                        lo = anchor - length if side == LEFT else anchor + 1
                        if lo < 0 or lo + length > len(tok):
                            continue
                        key = tok.words[lo : lo + length]
                        hits = context_hits(tok, side, {length: {key: None}})
                        hit = anchor in (a for a, _value in hits)
                        if hit:
                            found.append(key)
                        checked[hit] += 1
                    assert kept == found
    assert min(checked.values()) >= 100, checked


def brute_force_hits(seq, side, groups):
    """context_hits by definition: every group, every anchor left to
    right, and context_window's verdict on the words beside it."""
    hits = []
    for length, entries in groups.items():
        for anchor in range(len(seq)):
            window = context_window(seq, anchor, length, side)
            words = None if window is None else seq.words[window[0] : window[1]]
            if words in entries:
                hits.append((anchor, entries[words]))
    return hits


def test_context_hits_match_brute_force_scan():
    rng = random.Random(11)
    total = 0
    for _ in range(80):
        docs, _surfaces = random_corpus(rng)
        seqs = [tokenize(doc.text) for doc in docs]
        # Contexts cut from the documents, so most of them hit somewhere,
        # of both sides and lengths 1 to 3.
        contexts = set()
        for seq in seqs:
            for _ in range(rng.randint(0, 6)):
                length = rng.randint(1, 3)
                if len(seq) >= length:
                    p = rng.randrange(len(seq) - length + 1)
                    side = rng.choice((LEFT, RIGHT))
                    contexts.add(ContextKey(seq.words[p : p + length], side))
        for side in (LEFT, RIGHT):
            groups = group_contexts(contexts, side)
            for seq in seqs:
                expected = brute_force_hits(seq, side, groups)
                assert list(context_hits(seq, side, groups)) == expected
                total += len(expected)
    assert total > 500


# Each scan below reads its input once: a few hundred KB take well under
# a tenth of a second, so a second leaves room for a slow machine, not
# for a scan that re-reads what it has read.

@pytest.mark.parametrize(
    "piece, words",
    [("a-", 1), ("a.", 1), ("'a", 1), ("A. ", 200_000), ("x.Y", 1)],
    ids=["a-", "a.", "'a", "A.", "x.Y"],
)
def test_tokenize_runs_in_linear_time(piece, words):
    # 400-600 KB of pieces that one whitespace split does not read alone.
    text = piece * 200_000
    start = time.perf_counter()
    assert len(tokenize(text).words) == words
    assert time.perf_counter() - start < 1.0


def test_find_instances_runs_in_linear_time():
    # 200 KB where every word starts a surface and the longest one fails
    # only at its last word.
    seq = tokenize("New " * 50_000)
    index = instance_index(
        [LearningExample("New " * 7 + "York", "city"), LearningExample("New", "city")]
    )
    start = time.perf_counter()
    assert len(find_instances(seq, index)) == 50_000
    assert time.perf_counter() - start < 1.0


def test_context_hits_run_in_linear_time():
    # 270 KB of two-word sentences: every word is next to some context,
    # but only `In` before `Rome` does not cross a sentence break.
    seq = tokenize("In Rome. " * 30_000)
    contexts = [
        ContextKey(("In", "Rome"), LEFT), ContextKey(("In",), LEFT), ContextKey(("In",), RIGHT)
    ]
    start = time.perf_counter()
    assert len(list(context_hits(seq, LEFT, group_contexts(contexts, LEFT)))) == 30_000
    assert len(list(context_hits(seq, RIGHT, group_contexts(contexts, RIGHT)))) == 0
    assert time.perf_counter() - start < 1.0
