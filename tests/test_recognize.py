import random

import pytest
from hypothesis import assume, given, strategies as st

from conftest import capitals, make_corpus, make_doc
from contextner import tsv
from contextner.annotations import format_annotations, load_annotations
from contextner.errors import DataFormatError, InputError
from contextner.extract import ContextKey, tokenize
from contextner.seeds import LearningExample
from contextner.recognize import (
    UNKNOWN,
    RecognitionModel,
    classify,
    detect_candidates,
    load_model,
    recognize_document,
    update_model,
)
from contextner.weighting import build_weight_table
from oracle import oracle_recognize, random_recognition_case


def left(*words):
    return ContextKey(tuple(words), "left")


def right(*words):
    return ContextKey(tuple(words), "right")


def model_from(tables, **kwargs):
    return RecognitionModel(tables=tables, **kwargs)


# -- voting and the decision rule -------------------------------------------

def votes_for(text, tables):
    """Each candidate span of `text` with its class votes."""
    return detect_candidates(tokenize(text), model_from(tables))


def test_vote_accumulates():
    tables = {"capital": {left("in"): 0.5, left("Hotels", "in"): 0.25}}
    assert votes_for("Hotels in Paris", tables) == {(2, 2): {"capital": 0.75}}


def test_single_vote_keeps_exact_weight():
    votes = votes_for("Hotels in Paris", {"capital": {left("Hotels", "in"): 0.008110106}})
    assert votes[2, 2]["capital"] == 0.008110106


def test_votes_per_class_are_independent():
    tables = {"capital": {left("in"): 0.3}, "president": {left("Hotels", "in"): 0.2}}
    assert votes_for("Hotels in Paris", tables) == {
        (2, 2): {"capital": 0.3, "president": 0.2}
    }


def test_vote_rejects_non_positive_weight():
    with pytest.raises(ValueError):
        model_from({"capital": {left("in"): 0.0}})
    with pytest.raises(ValueError):
        model_from({"capital": {left("in"): -1.0}})


def test_vote_totals_match_summed_weights():
    # Left contexts by length, then the right one: the order votes add up in.
    weights = (0.1, 0.2, 0.40625, 0.3)
    contexts = (left("in"), left("Hotels", "in"), left("Cheap", "Hotels", "in"), right("now"))
    votes = votes_for("Cheap Hotels in Paris now", {"capital": dict(zip(contexts, weights))})
    assert votes == {(3, 3): {"capital": sum(weights)}}


def test_span_takes_the_votes_at_both_edges():
    # Both contexts grow the one span New York: "in" at its first word,
    # "said" at its last.
    tables = {"capital": {left("in"): 0.5}, "city": {right("said"): 0.25}}
    assert votes_for("Hotels in New York said so", tables) == {
        (2, 3): {"capital": 0.5, "city": 0.25}
    }


def test_ranking_follows_later_votes():
    assert classify({"a": 0.5}) == ("a", 0.5, 0.0)
    assert classify({"a": 0.5, "b": 0.75}) == ("b", 0.75, 0.5)


def test_ranking_follows_votes_changed_directly():
    votes = {"a": 0.5}
    assert classify(votes) == ("a", 0.5, 0.0)
    votes["b"] = 0.9
    assert classify(votes) == ("b", 0.9, 0.5)
    votes["a"] = 0.9
    assert classify(votes) == (UNKNOWN, 0.9, 0.9)


def test_classify_threshold_and_margin():
    votes = {"capital": 0.9, "president": 0.1}
    assert classify(votes, threshold=0.5, margin=0.2)[0] == "capital"
    assert classify({"capital": 0.4}, threshold=0.5)[0] == UNKNOWN
    assert classify({"a": 0.6, "b": 0.6}, threshold=0.5)[0] == UNKNOWN
    assert classify({}) == (UNKNOWN, 0.0, 0.0)


def test_classify_margin_blocks_close_calls():
    votes = {"a": 0.5, "b": 0.45}
    assert classify(votes, margin=0.1)[0] == UNKNOWN
    assert classify(votes, margin=0.01)[0] == "a"


@given(
    votes=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(0.001, 1.0),
        min_size=1,
        max_size=4,
    ),
    threshold=st.floats(0.0, 1.5),
    margin=st.floats(0.0, 1.0),
    scale=st.floats(0.01, 100.0),
)
def test_classify_scale_invariance(votes, threshold, margin, scale):
    """Scaling votes, threshold, and margin together never changes the
    answer — away from exact decision boundaries, where one float
    rounding can legitimately flip a comparison."""
    ranked = sorted(votes.values(), reverse=True)
    best = ranked[0]
    second = ranked[1] if len(ranked) > 1 else 0.0
    assume(abs(best - threshold) > 1e-6 * (1 + best + threshold))
    assume(abs((best - second) - margin) > 1e-6 * (1 + best + margin))
    plain = classify(dict(votes), threshold, margin)[0]
    scaled = classify(
        {k: v * scale for k, v in votes.items()}, threshold * scale, margin * scale
    )[0]
    assert plain == scaled


# -- candidate detection -----------------------------------------------------

def test_detect_after_left_context():
    tok = tokenize("Hotels in Paris are nice")
    model = model_from({"capital": {left("Hotels", "in"): 1.0}})
    assert list(detect_candidates(tok, model)) == [(2, 2)]


def test_detect_multiword_until_lowercase():
    tok = tokenize("president Nicolas Sarkozy with him")
    model = model_from({"president": {left("president"): 1.0}})
    assert list(detect_candidates(tok, model)) == [(1, 2)]


def test_detect_nothing_without_context():
    tok = tokenize("Just some words here")
    model = model_from({"capital": {left("Hotels", "in"): 1.0}})
    assert detect_candidates(tok, model) == {}


def test_detect_stops_at_sentence_break():
    tok = tokenize("Hotels in Paris. Prices are high")
    model = model_from({"capital": {left("Hotels", "in"): 1.0}})
    assert list(detect_candidates(tok, model)) == [(2, 2)]


def test_detect_caps_span_length():
    tok = tokenize("Hotels in Rio De La Plata Grande Norte")
    model = model_from({"capital": {left("Hotels", "in"): 1.0}}, max_entity_tokens=4)
    assert list(detect_candidates(tok, model)) == [(2, 5)]


def test_detect_right_side_extends_backwards():
    tok = tokenize("old George W. Bush arrived in town")
    model = model_from({"president": {right("arrived", "in"): 1.0}})
    assert list(detect_candidates(tok, model)) == [(1, 3)]


def test_detect_deduplicates_spans():
    tok = tokenize("Map of Paris and Map of Paris")
    model = model_from(
        {"capital": {left("Map", "of"): 1.0}, "other": {left("of"): 0.5}}
    )
    spans = list(detect_candidates(tok, model))
    assert spans == sorted(set(spans))
    assert (2, 2) in spans and (6, 6) in spans


def test_model_validation():
    with pytest.raises(ValueError):
        model_from({UNKNOWN: {left("x"): 1.0}})
    with pytest.raises(ValueError):
        model_from({"capital": {left("x"): 0.0}})
    with pytest.raises(ValueError):
        model_from({"capital": {left("x"): 1.0}}, threshold=-0.1)
    with pytest.raises(ValueError):
        model_from({"capital": {left("x"): 1.0}}, margin=float("nan"))
    with pytest.raises(ValueError):
        model_from({"capital": {left("x"): 1.0}}, max_entity_tokens=0)


# -- document recognition ----------------------------------------------------

def test_recognize_simple_document():
    doc = make_doc("t1", "Hotels in Paris")
    model = model_from(
        {"capital": {left("Hotels", "in"): 0.008110106}}, threshold=0.001
    )
    annotations = recognize_document(doc, model)
    assert len(annotations) == 1
    a = annotations[0]
    assert (a.surface, a.class_label) == ("Paris", "capital")
    assert a.score == 0.008110106
    assert a.runner_up == 0.0


def test_recognize_threshold_flips_to_unknown():
    doc = make_doc("t1", "Hotels in Paris")
    model = model_from(
        {"capital": {left("Hotels", "in"): 0.008110106}}, threshold=0.05
    )
    annotations = recognize_document(doc, model)
    assert [a.class_label for a in annotations] == [UNKNOWN]


def test_recognize_empty_model_yields_nothing():
    assert recognize_document(make_doc("t1", "Hotels in Paris"), model_from({})) == []


def test_shared_context_votes_in_both_classes():
    """A context present in two tables pulls both classes, each with its
    own weight; the margin decides. ("Mr." is a two-letter word plus a
    period, which reads as a sentence end, so after it "Mr" is no
    context of "Zidane" and nothing is detected.)"""
    doc = make_doc("t1", "Mr Zidane plays")
    tables = {
        "athlete": {left("Mr"): 0.6},
        "president": {left("Mr"): 0.2},
    }
    decided = recognize_document(doc, model_from(tables, margin=0.3))[0]
    assert (decided.surface, decided.class_label) == ("Zidane", "athlete")
    assert decided.score == 0.6
    assert decided.runner_up == 0.2
    undecided = recognize_document(doc, model_from(tables, margin=0.5))[0]
    assert undecided.class_label == UNKNOWN
    after_break = make_doc("t1", "Mr. Zidane plays")
    assert recognize_document(after_break, model_from(tables, margin=0.3)) == []


@pytest.mark.parametrize(
    "text, context",
    [
        ("Hotels in. Rome is nice.", left("Hotels", "in")),
        ("Visit Rome. Arrived in town", right("Arrived", "in")),
    ],
)
def test_no_context_across_a_sentence_break(text, context):
    """Recognition applies training's window rule: a context whose words
    and the span's next word are not in one sentence neither makes a
    candidate nor votes."""
    model = model_from({"capital": {context: 1.0}})
    assert detect_candidates(tokenize(text), model) == {}
    assert recognize_document(make_doc("t1", text), model) == []


def test_non_unknown_annotations_respect_decision_rule():
    text = "Map of Paris. Map of Berlin and Hotels in Rome. Visit to Lima."
    model = model_from(
        {
            "capital": {left("Map", "of"): 0.4, left("Hotels", "in"): 0.2},
            "place": {left("Map", "of"): 0.3, left("Visit", "to"): 0.1},
        },
        threshold=0.15,
        margin=0.05,
    )
    for a in recognize_document(make_doc("d", text), model):
        if a.class_label != UNKNOWN:
            assert a.score >= model.threshold
            assert a.score - a.runner_up >= model.margin


def test_annotations_sorted_by_span():
    text = "Map of Paris and Map of Berlin and Map of Tunis"
    model = model_from({"capital": {left("Map", "of"): 1.0}})
    starts = [a.first for a in recognize_document(make_doc("d", text), model)]
    assert starts == sorted(starts)


def test_recognition_matches_brute_force_oracle():
    """recognize_document vs. a candidate-by-candidate recount.

    At least 200 random (model, document) pairs with candidates: spans,
    surfaces, classes, scores and runner-ups must agree exactly. The
    cases must between them mix sides in one model, use every context
    length 1-3, share context words across classes, and both decide and
    reject spans.
    """
    rng = random.Random(20110)
    checked = 0
    seen = {"both sides": 0, "shared words": 0, "decided": 0, "unknown": 0}
    lengths = set()
    for _ in range(2000):
        if checked >= 200:
            break
        case = random_recognition_case(rng)
        expected = oracle_recognize(
            case.text, case.tables, case.threshold, case.margin, case.max_entity_tokens
        )
        model = model_from(
            {
                label: {ContextKey(words, side): w for (side, words), w in table.items()}
                for label, table in case.tables.items()
            },
            threshold=case.threshold,
            margin=case.margin,
            max_entity_tokens=case.max_entity_tokens,
        )
        got = recognize_document(make_doc("d", case.text), model)
        assert [
            (a.first, a.last, a.surface, a.class_label, a.score, a.runner_up) for a in got
        ] == [
            (e.first, e.last, e.surface, e.class_label, e.score, e.runner_up)
            for e in expected
        ]
        if not expected:
            continue
        checked += 1
        keys = [key for table in case.tables.values() for key in table]
        seen["both sides"] += len({side for side, _ in keys}) == 2
        seen["shared words"] += len(keys) > len(set(keys))
        seen["decided"] += any(e.class_label != UNKNOWN for e in expected)
        seen["unknown"] += any(e.class_label == UNKNOWN for e in expected)
        lengths.update(len(words) for _, words in keys)
    assert checked >= 200
    assert lengths == {1, 2, 3}
    assert all(count >= 20 for count in seen.values()), seen


# -- model persistence -------------------------------------------------------

@pytest.fixture
def trained_table():
    corpus = make_corpus("Hotels in Paris. Map of Berlin and Map of pages.")
    return build_weight_table(corpus, capitals("Paris", "Berlin"))


def test_save_load_round_trip(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table, threshold=0.2, margin=0.1)
    model = load_model(tmp_path)
    assert model.threshold == 0.2
    assert model.margin == 0.1
    assert model.tables["capital"] == pytest.approx(trained_table.as_mapping())


def test_load_model_flag_overrides(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table, threshold=0.2, margin=0.1)
    model = load_model(tmp_path, threshold=0.7)
    assert (model.threshold, model.margin) == (0.7, 0.1)


@pytest.mark.parametrize(
    "bad", [{"threshold": -1.0}, {"max_entity_tokens": 0}], ids=["threshold", "span"]
)
def test_load_model_bad_argument_is_a_value_error(tmp_path, trained_table, bad):
    update_model(tmp_path, "capital", trained_table)
    with pytest.raises(ValueError):
        load_model(tmp_path, **bad)


def test_load_model_missing_dir(tmp_path):
    with pytest.raises(InputError, match="model.tsv"):
        load_model(tmp_path / "none")


def test_load_model_reports_bad_line(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table)
    index = tmp_path / "model.tsv"
    body = index.read_text(encoding="utf-8").replace("\t0\t0", "\tzero\t0")
    index.write_text(body, encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"model\.tsv:2"):
        load_model(tmp_path)


def test_load_model_rejects_missing_table_file(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table)
    (tmp_path / "table_capital.tsv").unlink()
    with pytest.raises(DataFormatError, match="table_capital.tsv"):
        load_model(tmp_path)


def test_load_model_missing_table_names_its_index_line(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table)
    update_model(tmp_path, "city", trained_table)
    (tmp_path / "table_city.tsv").unlink()
    with pytest.raises(DataFormatError, match=r"model\.tsv:3: table file not found"):
        load_model(tmp_path)


@pytest.mark.parametrize(
    "old,new,where",
    [
        ("\t0.25\n", "\theavy\n", r"table_capital\.tsv:2: bad weight 'heavy'"),
        ("Map of\t", "Hotels  in\t", r"table_capital\.tsv:3: duplicate context 'Hotels  in'"),
    ],
    ids=["bad weight", "duplicate context"],
)
def test_load_model_reports_bad_table_row(tmp_path, trained_table, old, new, where):
    update_model(tmp_path, "capital", trained_table)
    table = tmp_path / "table_capital.tsv"
    table.write_text(table.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
    with pytest.raises(DataFormatError, match=where):
        load_model(tmp_path)


def test_update_model_merges_classes(tmp_path, trained_table):
    update_model(tmp_path, "capital", trained_table)
    other = build_weight_table(
        make_corpus("elected president Chirac. Meet president Bush."),
        [
            LearningExample("Chirac", "president"),
            LearningExample("Bush", "president"),
        ],
    )
    update_model(tmp_path, "president", other, threshold=0.3)
    model = load_model(tmp_path)
    assert set(model.tables) == {"capital", "president"}
    assert model.threshold == 0.3


def test_annotations_file_round_trip(tmp_path):
    doc = make_doc("t1", "Hotels in Paris and Hotels in Lyon")
    model = model_from({"capital": {left("Hotels", "in"): 0.25}})
    annotations = recognize_document(doc, model)
    path = tmp_path / "ann.tsv"
    tsv.write_text(path, format_annotations(annotations))
    assert load_annotations(path) == annotations


def test_load_annotations_reports_bad_ints(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text(
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n"
        "d\tx\t1\tParis\tcapital\t0.5\t0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match=r"ann\.tsv:2"):
        load_annotations(path)


@pytest.mark.parametrize("first, last", [("5", "3"), ("-1", "2")])
def test_load_annotations_rejects_bad_spans(tmp_path, first, last):
    path = tmp_path / "ann.tsv"
    path.write_text(
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n"
        f"d\t{first}\t{last}\tParis\tcapital\tnan\t0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match=rf"ann\.tsv:2: bad span {first}\.\.{last}"):
        load_annotations(path)
