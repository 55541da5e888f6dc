import math
import random

import pytest

from conftest import capitals, make_corpus, make_doc
from contextner import tsv
from contextner.corpus import CorpusManifest
from contextner.errors import EmptyResultError
from contextner.extract import LEFT, RIGHT
from contextner.model import WEIGHT_HEADER, weight_rows
from contextner.weighting import (
    build_weight_table,
    collect_context_stats,
    context_frequency,
    context_weight,
    document_frequency,
    growth_curve,
    inverse_context_frequency,
    learning_example_frequency,
)
from oracle import OracleDoc, oracle_stats, random_corpus


# -- the five ranking factors ------------------------------------------------

def test_context_frequency():
    assert context_frequency(17, 4264) == pytest.approx(0.0039869, abs=1e-6)
    assert context_frequency(12, 4264) == pytest.approx(0.0028143, abs=1e-6)
    assert context_frequency(0, 4264) == 0
    with pytest.raises(ValueError):
        context_frequency(1, 0)
    with pytest.raises(ValueError):
        context_frequency(5, 4)


def test_learning_example_frequency():
    assert learning_example_frequency(7, 13) == pytest.approx(0.5384616, abs=1e-6)
    assert learning_example_frequency(8, 13) == pytest.approx(0.6153847, abs=1e-6)
    assert learning_example_frequency(13, 13) == 1
    with pytest.raises(ValueError):
        learning_example_frequency(1, 0)
    with pytest.raises(ValueError):
        learning_example_frequency(14, 13)


def test_document_frequency():
    assert document_frequency(4, 9) == pytest.approx(0.4444445, abs=1e-6)
    assert document_frequency(3, 5) == 0.6
    assert document_frequency(1, 1) == 1
    with pytest.raises(ValueError):
        document_frequency(0, 1)
    with pytest.raises(ValueError):
        document_frequency(3, 2)


def test_inverse_context_frequency():
    assert inverse_context_frequency(17, 2) == 8.5
    assert inverse_context_frequency(5, 5) == 1
    assert inverse_context_frequency(5, 0) == 5  # smoothing floor
    with pytest.raises(ValueError):
        inverse_context_frequency(0, 3)


def test_context_weight():
    # products of the rounded pinned factors
    assert context_weight(0.0039869, 0.5384616, 0.4444445, 8.5) == pytest.approx(
        0.008110106, abs=1e-8
    )
    assert context_weight(0.0028143, 0.5384616, 0.6, 6) == pytest.approx(
        0.005455413, abs=1e-8
    )
    assert context_weight(0.0, 0.5, 0.5, 2.0) == 0
    with pytest.raises(ValueError):
        context_weight(-0.1, 0.5, 0.5, 1.0)


# -- table construction ------------------------------------------------------

def test_single_context_single_example():
    table = build_weight_table(make_corpus("Hotels in Paris"), capitals("Paris"))
    assert len(table) == 1
    row = table.rows[0]
    assert row.context.phrase() == "Hotels in"
    assert (row.cf, row.lef, row.df) == (1.0, 1.0, 1.0)
    assert row.icf == 1.0  # one example occurrence, zero others, floored
    assert row.weight == 1.0


def test_examples_that_split_into_the_same_words_count_once():
    # "New  York" splits into the words of "New York": one example, so
    # the context beside every match was seen next to all examples.
    text = "Hotels in New York"
    surfaces = ["New York", "New  York"]
    table = build_weight_table(make_corpus(text), capitals(*surfaces))
    assert table.totals.n_examples == 1
    assert [(r.context.phrase(), r.lef) for r in table] == [("Hotels in", 1.0)]
    rows, _total = oracle_stats([OracleDoc("d00", "d00", text)], surfaces)
    assert rows[("Hotels", "in")].lef == 1.0


def test_examples_with_marks_match_the_words_of_the_text():
    text = "He lives in the U.S. now. He lives in Paris now."
    table = build_weight_table(make_corpus(text), capitals("U.S.", "Paris"))
    # The text's word is `U.S`, as the surface `U.S.` is tokenized.
    assert table.totals.n_examples == 2
    assert sorted((r.context.phrase(), r.stats.n_with_examples, r.lef) for r in table) == [
        ("in the", 1, 0.5),
        ("lives in", 1, 0.5),
    ]
    rows, _total = oracle_stats([OracleDoc("d00", "d00", text)], ["U.S.", "Paris"])
    assert {key: row.lef for key, row in rows.items()} == {
        ("in", "the"): 0.5,
        ("lives", "in"): 0.5,
    }


def test_rows_sorted_by_weight_then_count_then_words():
    text = "Map of Paris. Map of Berlin. Hotels in Paris. Visit in Paris."
    table = build_weight_table(make_corpus(text), capitals("Paris", "Berlin"))
    weights = [r.weight for r in table]
    assert weights == sorted(weights, reverse=True)
    keys = [(-r.weight, -r.stats.n_with_examples, r.context.words) for r in table]
    assert keys == sorted(keys)


def test_empty_extraction_raises():
    with pytest.raises(EmptyResultError, match="no contexts"):
        build_weight_table(make_corpus("nothing relevant here"), capitals("Paris"))


def test_min_count_filter_and_empty_result():
    corpus = make_corpus("Hotels in Paris and Map of Berlin and Hotels in Paris")
    examples = capitals("Paris", "Berlin")
    full = build_weight_table(corpus, examples)
    filtered = build_weight_table(corpus, examples, min_count=2)
    assert {r.context.phrase() for r in full} == {"Hotels in", "Map of"}
    assert [r.context.phrase() for r in filtered] == ["Hotels in"]
    # the cf denominator stays the unfiltered total
    assert filtered.totals.total_with_examples == full.totals.total_with_examples
    assert filtered.rows[0].cf == full.rows[0].cf < 1
    with pytest.raises(EmptyResultError, match="at least 3"):
        build_weight_table(corpus, examples, min_count=3)


def test_sum_nc_equals_row_counts():
    corpus = make_corpus(
        "Map of Paris and Map of Berlin.",
        "Hotels in Paris. Map of Paris again.",
    )
    stats, totals = collect_context_stats(corpus, capitals("Paris", "Berlin"))
    assert sum(s.n_with_examples for s in stats) == totals.total_with_examples
    assert totals.n_examples == 2


def test_factors_recomputable_from_counts():
    corpus = make_corpus(
        "Map of Paris. Map of pages. Hotels in Berlin today.",
        "Map of Berlin! Hotels in Paris.",
    )
    table = build_weight_table(corpus, capitals("Paris", "Berlin"))
    for row in table:
        s = row.stats
        assert row.cf == context_frequency(s.n_with_examples, table.totals.total_with_examples)
        assert row.lef == learning_example_frequency(s.n_examples_seen, table.totals.n_examples)
        assert row.df == document_frequency(s.n_sources, s.n_docs)
        assert row.icf == inverse_context_frequency(s.n_with_examples, s.n_with_others)
        assert row.weight == context_weight(row.cf, row.lef, row.df, row.icf)


def test_sum_cf_is_one_at_min_count_one():
    rng = random.Random(7)
    for _ in range(25):
        docs, surfaces = random_corpus(rng)
        corpus = CorpusManifest(
            [make_doc(d.doc_id, d.text, source=d.source) for d in docs]
        )
        try:
            table = build_weight_table(corpus, capitals(*surfaces))
        except EmptyResultError:
            continue
        assert sum(r.cf for r in table) == pytest.approx(1.0, abs=1e-9)


def test_document_order_does_not_change_weights():
    texts = [
        "Map of Paris. Hotels in Paris.",
        "Map of Berlin and Map of lakes.",
        "Hotels in Berlin. Travel to Paris.",
    ]
    examples = capitals("Paris", "Berlin")
    base = build_weight_table(make_corpus(*texts), examples)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        docs = [make_doc(f"d{i:02}", texts[i]) for i in perm]
        table = build_weight_table(CorpusManifest(docs), examples)
        assert [(r.context, r.weight, r.stats) for r in table] == [
            (r.context, r.weight, r.stats) for r in base
        ]


def test_disjoint_source_doubling():
    """Concatenating a copy with fresh sources doubles the raw counts and
    leaves every derived factor unchanged.

    Every context here occurs with a non-example phrase too: for a
    context never seen with other phrases the smoothing floor (C -> 1)
    would stop icf from scaling.
    """
    texts = [
        "Map of Paris. Map of stars. Hotels in Berlin. Hotels in rooms.",
        "Hotels in Paris and Map of Berlin.",
    ]
    examples = capitals("Paris", "Berlin")
    single = build_weight_table(make_corpus(*texts), examples)
    doubled_docs = [make_doc(f"a{i}", t, source=f"s{i}") for i, t in enumerate(texts)]
    doubled_docs += [make_doc(f"b{i}", t, source=f"t{i}") for i, t in enumerate(texts)]
    doubled = build_weight_table(CorpusManifest(doubled_docs), examples)
    assert doubled.totals.total_with_examples == 2 * single.totals.total_with_examples
    by_key = {r.context: r for r in doubled}
    assert set(by_key) == {r.context for r in single}
    for row in single:
        twin = by_key[row.context]
        assert twin.stats.n_with_examples == 2 * row.stats.n_with_examples
        assert twin.stats.n_with_others == 2 * row.stats.n_with_others
        assert twin.stats.n_docs == 2 * row.stats.n_docs
        assert twin.stats.n_sources == 2 * row.stats.n_sources
        assert twin.cf == row.cf
        assert twin.lef == row.lef
        assert twin.df == row.df
        assert twin.icf == pytest.approx(row.icf, rel=1e-12)


def test_matches_brute_force_oracle():
    """build_weight_table against oracle_stats on 30 random corpora for
    each side and each context length from 1 to 3."""
    for side in (LEFT, RIGHT):
        for length in (1, 2, 3):
            rng = random.Random(f"weigh-oracle:{side}:{length}")
            checked = 0
            for _ in range(30):
                docs, surfaces = random_corpus(rng)
                if _agrees_with_oracle(docs, surfaces, length, side):
                    checked += 1
            assert checked >= 10, (side, length)


def _agrees_with_oracle(docs, surfaces, length, side):
    """Assert that one corpus's table equals the oracle's; False when
    both find no context."""
    corpus = CorpusManifest([make_doc(d.doc_id, d.text, source=d.source) for d in docs])
    expected, expected_total = oracle_stats(docs, surfaces, length, side)
    try:
        table = build_weight_table(corpus, capitals(*surfaces), length, side)
    except EmptyResultError:
        assert expected_total == 0, (side, length, docs)
        return False
    assert table.totals.total_with_examples == expected_total
    assert {r.context for r in table} == {(words, side) for words in expected}
    for row in table:
        want = expected[row.context.words]
        s = row.stats
        assert (s.n_with_examples, s.n_with_others) == (want.nc, want.c_other)
        assert (s.n_examples_seen, s.n_sources, s.n_docs) == (want.nle, want.nd, want.d_docs)
        assert abs(row.weight - want.weight) <= 4 * math.ulp(max(abs(row.weight), abs(want.weight)))
    return True


def test_format_weight_table_layout(tmp_path):
    corpus = make_corpus(
        "Hotels in Paris", "Hotels in Rome. Hotels in Oslo", "Map of Paris. Hotels in Berlin"
    )
    table = build_weight_table(corpus, capitals("Paris", "Berlin"))
    path = tmp_path / "table.tsv"
    tsv.write_rows(path, WEIGHT_HEADER, weight_rows(table))
    assert path.read_bytes() == (
        b"context\tcf\tdf\tlef\ticf\tw\n"
        b"Hotels in\t0.6666667\t1\t1\t1\t0.6666667\n"
        b"Map of\t0.3333333\t1\t0.5\t1\t0.1666667\n"
    )


@pytest.mark.parametrize(
    "settings",
    [{"context_len": 0}, {"side": "up"}],
    ids=["context_len", "side"],
)
def test_settings_are_checked_before_any_document_is_read(settings):
    # No example occurs here, so only a check made up front can fail.
    corpus = make_corpus("nothing relevant here")
    examples = capitals("Paris")
    with pytest.raises(ValueError, match=next(iter(settings))):
        collect_context_stats(corpus, examples, **settings)
    with pytest.raises(ValueError, match=next(iter(settings))):
        growth_curve(corpus, examples, [1], **settings)
    with pytest.raises(ValueError, match=next(iter(settings))):
        build_weight_table(corpus, examples, **settings)


def test_min_count_is_checked_before_any_document_is_read():
    with pytest.raises(ValueError, match="min_count must be >= 1, got 0"):
        build_weight_table(make_corpus("nothing relevant here"), capitals("Paris"), min_count=0)
