import pytest
from hypothesis import given, strategies as st

from conftest import capitals, make_corpus
from contextner import tsv
from contextner.annotations import Annotation, GoldAnnotation, load_gold
from contextner.errors import DataFormatError, InputError
from contextner.evaluate import EvalReport, evaluate, format_report, write_report
from contextner.extract import (
    RIGHT,
    extract_context,
    find_instances,
    instance_index,
    tokenize,
)
from contextner.seeds import UNKNOWN, LearningExample
from contextner.weighting import TableConfig, format_growth, growth_curve


def ann(doc, first, last, label):
    return Annotation(
        doc=doc,
        first=first,
        last=last,
        surface="x",
        class_label=label,
        score=1.0,
        runner_up=0.0,
    )


def gold(doc, first, last, label="capital"):
    return GoldAnnotation(doc=doc, first=first, last=last, class_label=label)


# -- scoring -----------------------------------------------------------------

def test_evaluate_counts_and_ratios():
    wanted = [gold(f"d{i}", i, i) for i in range(12)]
    system = [ann(f"d{i}", i, i, "capital") for i in range(8)]
    system += [ann("d90", 0, 0, "capital"), ann("d91", 0, 0, "capital")]
    report = evaluate(system, wanted)
    assert (report.tp, report.fp, report.fn) == (8, 2, 4)
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(8 / 12)


def test_evaluate_perfect_run():
    wanted = [gold("d0", 1, 2), gold("d0", 5, 5, "president")]
    system = [ann("d0", 1, 2, "capital"), ann("d0", 5, 5, "president")]
    report = evaluate(system, wanted)
    assert report == EvalReport(tp=2, fp=0, fn=0, precision=1.0, recall=1.0)


def test_evaluate_empty_system_has_undefined_precision():
    report = evaluate([], [gold("d0", 0, 0)])
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert report.precision is None
    assert report.recall == 0.0


def test_evaluate_both_empty():
    report = evaluate([], [])
    assert report.precision is None and report.recall is None


def test_unknown_annotations_are_not_findings():
    wanted = [gold("d0", 0, 0), gold("d0", 3, 3)]
    system = [ann("d0", 0, 0, UNKNOWN), ann("d0", 3, 3, "capital")]
    report = evaluate(system, wanted)
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)


def test_wrong_class_is_both_fp_and_fn():
    report = evaluate([ann("d0", 0, 0, "president")], [gold("d0", 0, 0)])
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_duplicate_rows_count_once():
    system = [ann("d0", 0, 0, "capital"), ann("d0", 0, 0, "capital")]
    report = evaluate(system, [gold("d0", 0, 0)])
    assert (report.tp, report.fp) == (1, 0)


spans = st.tuples(
    st.sampled_from(["d0", "d1"]),
    st.integers(0, 4),
    st.integers(0, 2),
    st.sampled_from(["a", "b", UNKNOWN]),
)


@given(st.lists(spans, max_size=12), st.lists(spans, max_size=12))
def test_evaluate_set_identities(sys_rows, gold_rows):
    system = [ann(d, f, f + n, c) for d, f, n, c in sys_rows]
    wanted = [gold(d, f, f + n, c if c != UNKNOWN else "a") for d, f, n, c in gold_rows]
    report = evaluate(system, wanted)
    found = {(a.doc, a.first, a.last, a.class_label) for a in system if a.class_label != UNKNOWN}
    assert report.tp + report.fp == len(found)
    assert report.tp + report.fn == len({(g.doc, g.first, g.last, g.class_label) for g in wanted})
    if report.precision is not None:
        assert 0.0 <= report.precision <= 1.0
    if report.recall is not None:
        assert 0.0 <= report.recall <= 1.0


# -- gold files --------------------------------------------------------------

def gold_file(tmp_path, *rows):
    path = tmp_path / "gold.tsv"
    lines = ["doc\tstart_token\tend_token\tclass"]
    lines += ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_gold(tmp_path):
    path = gold_file(tmp_path, ("d0", "2", "3", "capital"), ("d1", "0", "0", "president"))
    assert load_gold(path) == [
        gold("d0", 2, 3), gold("d1", 0, 0, "president"),
    ]


def test_load_gold_rejects_bad_numbers(tmp_path):
    path = gold_file(tmp_path, ("d0", "two", "3", "capital"))
    with pytest.raises(DataFormatError, match=r"gold\.tsv:2"):
        load_gold(path)


@pytest.mark.parametrize("row", [
    ("d0", "3", "2", "capital"),
    ("d0", "-1", "2", "capital"),
    ("d0", "1", "2", UNKNOWN),
    ("d0", "1", "2", ""),
])
def test_load_gold_rejects_bad_rows(tmp_path, row):
    with pytest.raises(DataFormatError):
        load_gold(gold_file(tmp_path, row))


# -- report formatting -------------------------------------------------------

def test_format_report_shows_na_for_undefined():
    text = format_report(EvalReport(0, 0, 1, None, 0.0))
    assert "precision        n/a" in text
    assert "recall           0" in text


def test_format_report_values():
    text = format_report(EvalReport(8, 2, 4, 0.8, 8 / 12))
    assert "true positives   8" in text
    assert "precision        0.8" in text
    assert "recall           0.6666667" in text


def test_write_report_single_row(tmp_path):
    path = tmp_path / "report.tsv"
    write_report(EvalReport(0, 0, 1, None, 0.0), path)
    assert path.read_text(encoding="utf-8") == (
        "tp\tfp\tfn\tprecision\trecall\n0\t0\t1\tNA\t0\n"
    )


# -- growth curves -----------------------------------------------------------

TEMPLATE = [
    "Hotels in Paris today.",
    "Map of Berlin pages.",
    "Travel to Paris soon.",
    "Paris is lovely.",
    "Nothing here at all.",
]


def test_growth_saturates_on_repeated_template():
    corpus = make_corpus(*(TEMPLATE * 4))
    points = growth_curve(corpus, capitals("Paris", "Berlin"), [5, 10, 15, 20])
    assert [p.doc_count for p in points] == [5, 10, 15, 20]
    assert [p.example_occurrences for p in points] == [4, 8, 12, 16]
    assert [p.context_count for p in points] == [3, 3, 3, 3]


def test_growth_counts_occurrences_without_context():
    corpus = make_corpus("Paris is lovely.")
    (point,) = growth_curve(corpus, capitals("Paris"), [1])
    assert point.example_occurrences == 1
    assert point.context_count == 0


def test_growth_respects_side_config():
    corpus = make_corpus("Paris is lovely.")
    config = TableConfig(side=RIGHT)
    (point,) = growth_curve(corpus, capitals("Paris"), [1], config)
    assert point.context_count == 1


def test_growth_last_point_matches_direct_extraction():
    corpus = make_corpus(
        "Hotels in Madrid. Hotels in Oslo and more.",
        "Map of Oslo! See the Map of Madrid now.",
        "Madrid again, Oslo again.",
    )
    examples = capitals("Madrid", "Oslo")
    points = growth_curve(corpus, examples, [1, 3])
    index = instance_index(examples)
    occurrences = 0
    contexts = set()
    for doc in corpus:
        tok = tokenize(doc.clean)
        for occ in find_instances(tok, index):
            occurrences += 1
            key = extract_context(occ, tok, 2, "left")
            if key is not None:
                contexts.add(key)
    assert points[-1].example_occurrences == occurrences
    assert points[-1].context_count == len(contexts)
    assert points[0].example_occurrences <= occurrences
    assert points[0].context_count <= len(contexts)


BAD_STEPS = {
    (): "no growth steps given",
    (0,): r"growth steps must be positive and increasing, got \[0\]",
    (2, 2): "positive and increasing",
    (3, 1): "positive and increasing",
    (99,): "exceeds corpus size 5",
}


@pytest.mark.parametrize("steps", [list(s) for s in BAD_STEPS])
def test_growth_rejects_bad_steps(steps):
    corpus = make_corpus(*TEMPLATE)
    with pytest.raises(InputError, match=BAD_STEPS[tuple(steps)]):
        growth_curve(corpus, capitals("Paris"), steps)


@pytest.mark.parametrize("examples, match", [
    ([LearningExample("Paris", "capital"), LearningExample("Chirac", "president")],
     "run once per class"),
    ([], "no learning examples given"),
], ids=["mixed-classes", "no-examples"])
def test_growth_rejects_what_weighing_rejects(examples, match):
    corpus = make_corpus(*TEMPLATE)
    with pytest.raises(InputError, match=match):
        growth_curve(corpus, examples, [1])


def test_growth_file_output(tmp_path):
    corpus = make_corpus(*TEMPLATE)
    points = growth_curve(corpus, capitals("Paris", "Berlin"), [1, 5])
    path = tmp_path / "growth.tsv"
    tsv.write_text(path, format_growth(points))
    assert path.read_text(encoding="utf-8") == format_growth(points)
    assert format_growth(points).splitlines()[0] == "docs\toccurrences\tcontexts"
