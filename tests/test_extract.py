import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import capitals, make_corpus
from oracle import oracle_find_instances, oracle_tokenize, random_corpus
from contextner.extract import (
    LEFT,
    RIGHT,
    ContextKey,
    WordSequence,
    context_hits,
    context_window,
    extract_context,
    find_instances,
    group_contexts,
    instance_index,
    split_words,
    tokenize,
)
from contextner.seeds import LearningExample
from contextner.weighting import TableConfig, collect_context_stats


def words_of(text):
    return list(tokenize(text).words)


def breaks_of(tok):
    """Indices i such that a sentence ends between word i and word i+1."""
    return frozenset(i for i in range(len(tok) - 1) if tok.sent[i] != tok.sent[i + 1])


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
    assert tokenize("It ended.").sent == (0, 0)
    assert tokenize("It ended.  ").sent == (0, 0)
    assert tokenize("no terminator").sent == (0, 0)
    assert tokenize("It ended. Then").sent == (0, 0, 1)


def test_abbreviation_period_does_not_break():
    # The period is part of the "W." token, so no sentence ends there.
    tok = tokenize("George W. Bush spoke")
    assert breaks_of(tok) == frozenset()


@given(st.text(max_size=300))
def test_tokenize_round_trip(text):
    tok = tokenize(text)
    assert len(tok.starts) == len(tok.ends) == len(tok.sent) == len(tok)
    previous_end = 0
    for word, start, end in zip(tok.words, tok.starts, tok.ends):
        assert text[start:end] == word
        assert start >= previous_end
        assert start < end
        previous_end = end
    # Sentence ids count up from 0 in steps of one.
    assert all(b - a in (0, 1) for a, b in zip((0,) + tok.sent, tok.sent))


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
    words, spans, breaks = oracle_tokenize(text)
    assert tok.words == tuple(words)
    assert list(zip(tok.starts, tok.ends)) == spans
    # A break after the final word is implicit in sentence ids.
    assert breaks_of(tok) == breaks - {len(words) - 1}


@given(st.text())
def test_tokenize_matches_frozen_tokenizer(text):
    assert_matches_oracle(text)


@given(biased_text)
def test_tokenize_matches_frozen_tokenizer_on_punctuated_text(text):
    assert_matches_oracle(text)


def assert_split_matches_oracle(text):
    split = split_words(text)
    words, _spans, breaks = oracle_tokenize(text)
    assert split.words == tuple(words)
    assert breaks_of(split) == breaks - {len(words) - 1}
    tok = tokenize(text)
    assert (split.words, split.sent) == (tok.words, tok.sent)
    # Sentence ids count up from 0 in steps of one.
    assert all(b - a in (0, 1) for a, b in zip(split.sent, split.sent[1:]))
    assert split.sent[:1] in ((), (0,))


@given(st.text())
def test_split_words_matches_frozen_tokenizer(text):
    assert_split_matches_oracle(text)


@given(biased_text)
def test_split_words_matches_frozen_tokenizer_on_punctuated_text(text):
    assert_split_matches_oracle(text)


def test_split_words_keeps_an_initial_and_breaks_after_a_sentence():
    split = split_words("George W. Bush spoke. Then he left.")
    assert split.words == ("George", "W.", "Bush", "spoke", "Then", "he", "left")
    assert split.sent == (0, 0, 0, 0, 1, 1, 1)


def test_terminator_before_the_first_word_ends_no_sentence():
    assert tokenize("! Go. Now").sent == split_words("! Go. Now").sent == (0, 1)


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
    seq = WordSequence(tuple(words), (0,) * len(words))
    found = find_instances(seq, instance_index(examples))
    assert [(o.first, o.last, o.example) for o in found] == oracle_find_instances(
        words, examples
    )


def test_extract_context_left():
    tok = tokenize("Hotels in Paris")
    occ = find_instances(tok, instance_index(capitals("Paris")))[0]
    assert extract_context(occ, tok, 2, "left") == ContextKey(("Hotels", "in"), "left")


def test_extract_context_insufficient_tokens():
    tok = tokenize("Paris is big")
    occ = find_instances(tok, instance_index(capitals("Paris")))[0]
    assert extract_context(occ, tok, 2, "left") is None


def test_extract_context_comma_does_not_block():
    tok = tokenize("of the unity of our nation, Chirac said")
    chirac = instance_index([LearningExample("Chirac", "president")])
    occ = find_instances(tok, chirac)[0]
    assert extract_context(occ, tok, 2, "left") == ContextKey(("our", "nation"), "left")


def test_extract_context_blocked_by_sentence_break():
    tok = tokenize("It ended. Paris is far")
    occ = find_instances(tok, instance_index(capitals("Paris")))[0]
    assert extract_context(occ, tok, 2, "left") is None


def test_extract_context_right_side():
    tok = tokenize("Paris is big")
    occ = find_instances(tok, instance_index(capitals("Paris")))[0]
    assert extract_context(occ, tok, 2, "right") == ContextKey(("is", "big"), "right")
    assert extract_context(occ, tok, 3, "right") is None


def test_extract_context_rejects_bad_args():
    tok = tokenize("Hotels in Paris")
    occ = find_instances(tok, instance_index(capitals("Paris")))[0]
    with pytest.raises(ValueError):
        extract_context(occ, tok, 0, "left")
    with pytest.raises(ValueError):
        extract_context(occ, tok, 2, "above")


def counts(texts, examples, side=LEFT):
    """(context, with-example count, other count, examples seen, documents)
    for every context weigh's scan counts in a corpus of `texts`."""
    stats, _totals = collect_context_stats(
        make_corpus(*texts), examples, TableConfig(context_len=2, side=side)
    )
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


def test_scan_grouped_contexts_of_both_sides():
    contexts = [
        ContextKey(("is", "big"), "right"),
        ContextKey(("Hotels", "in"), "left"),
        ContextKey(("in",), "left"),
    ]
    groups = group_contexts(contexts)
    assert list(groups) == [("left", 1), ("left", 2), ("right", 2)]
    assert groups[("left", 2)] == {("Hotels", "in"): contexts[1]}
    tok = tokenize("Hotels in Paris. Paris is big.")
    assert list(context_hits(tok, groups)) == [
        ("left", 2, contexts[2]),
        ("left", 2, contexts[1]),
        ("right", 3, contexts[0]),
    ]


def test_extraction_and_scan_apply_one_window_rule():
    """Training's two directions agree: extract_context keeps context K of
    an instance exactly when scanning for K finds it at that instance."""
    rng = random.Random(5)
    checked = {True: 0, False: 0}
    for _ in range(60):
        docs, surfaces = random_corpus(rng)
        index = instance_index(LearningExample(surface, "c") for surface in surfaces)
        for doc in docs:
            tok = tokenize(doc.text)
            for occ in find_instances(tok, index):
                for side in (LEFT, RIGHT):
                    anchor = occ.first if side == LEFT else occ.last
                    for length in (1, 2, 3):
                        lo = anchor - length if side == LEFT else anchor + 1
                        if lo < 0 or lo + length > len(tok):
                            assert extract_context(occ, tok, length, side) is None
                            continue
                        key = ContextKey(tok.words[lo : lo + length], side)
                        kept = extract_context(occ, tok, length, side)
                        assert kept in (key, None)
                        hits = set(context_hits(tok, group_contexts([key])))
                        assert (kept == key) == ((side, anchor, key) in hits)
                        checked[kept == key] += 1
    assert min(checked.values()) >= 100, checked


def brute_force_hits(seq, groups):
    """context_hits by definition: every group, every anchor left to
    right, and context_window's verdict on the words beside it."""
    hits = []
    for (side, length), entries in groups.items():
        for anchor in range(len(seq)):
            window = context_window(seq, anchor, length, side)
            words = None if window is None else seq.words[window[0] : window[1]]
            if words in entries:
                hits.append((side, anchor, entries[words]))
    return hits


def test_context_hits_match_brute_force_scan():
    rng = random.Random(11)
    total = 0
    for _ in range(80):
        docs, _surfaces = random_corpus(rng)
        seqs = [split_words(doc.text) for doc in docs]
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
        groups = group_contexts(contexts)
        for seq in seqs:
            expected = brute_force_hits(seq, groups)
            assert list(context_hits(seq, groups)) == expected
            total += len(expected)
    assert total > 500
