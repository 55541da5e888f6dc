"""Acceptance checks for the whole pipeline.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE <n> <label>: PASS`` (or FAIL) line, so running

    pytest tests/test_acceptance.py -v -s

gives one verdict line per criterion. Everything runs offline on
synthetic or generated data.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import capitals, make_corpus, make_doc
from contextner import cli
from contextner.corpus import CorpusManifest, save_corpus
from contextner.errors import EmptyResultError
from contextner.evaluate import GoldAnnotation, evaluate, growth_curve
from contextner.extract import tokenize
from contextner.recognize import (
    RecognitionModel,
    VoteState,
    classify,
    recognize_corpus,
)
from contextner.seeds import LearningExample
from contextner.weighting import (
    build_weight_table,
    context_frequency,
    context_weight,
    document_frequency,
    inverse_context_frequency,
    learning_example_frequency,
)
from oracle import oracle_stats, random_corpus

TOLERANCE = 1e-6  # absolute, for all pinned factor values below

# One fully worked weighting computation, pinned: raw counts in, the
# expected value of every factor and of the composite weight out.
WORKED = dict(
    nc=17, total=4264, nle=7, n_examples=13, nd=4, d_docs=9, c_other=2,
    cf=0.0039869, df=0.4444445, lef=0.5384616, icf=8.5, w=0.008110106,
)

# Further pinned reference rows. Only the factor values are given; the
# raw counts are reconstructed from them (cf and lef scale with the
# totals above, df is a small fraction, icf divides nc).
REFERENCE_ROWS = {
    "Map of": dict(
        cf=0.0028143, df=0.6, lef=0.5384616, icf=6.0, w=0.005455413
    ),
    "hotels in": dict(
        cf=0.0021107, df=0.5714286, lef=0.6153847, icf=3.0, w=0.002226673
    ),
    "travel to": dict(
        cf=0.000469, df=1.0, lef=0.1538462, icf=2.0, w=0.000144308
    ),
}


def criterion(number, label):
    """Emit one ACCEPTANCE verdict line around a test body."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {label}: PASS")

        return wrapper

    return decorate


@criterion(1, "worked-example factor values")
def test_weighting_factors_match_pinned_values():
    cf = context_frequency(WORKED["nc"], WORKED["total"])
    lef = learning_example_frequency(WORKED["nle"], WORKED["n_examples"])
    df = document_frequency(WORKED["nd"], WORKED["d_docs"])
    icf = inverse_context_frequency(WORKED["nc"], WORKED["c_other"])
    assert cf == pytest.approx(WORKED["cf"], abs=TOLERANCE)
    assert lef == pytest.approx(WORKED["lef"], abs=TOLERANCE)
    assert df == pytest.approx(WORKED["df"], abs=TOLERANCE)
    assert icf == pytest.approx(WORKED["icf"], abs=TOLERANCE)
    assert context_weight(cf, lef, df, icf) == pytest.approx(
        WORKED["w"], abs=TOLERANCE
    )


@criterion(2, "reference table rows")
def test_reference_rows_reconstruct():
    """Round-tripping each pinned row through the weighting operations.

    The integer counts behind each row are recovered from the pinned
    factors; feeding them back through the operations must reproduce
    every factor and the composite weight.
    """
    for name, row in REFERENCE_ROWS.items():
        nc = round(row["cf"] * WORKED["total"])
        nle = round(row["lef"] * WORKED["n_examples"])
        ratio = Fraction(row["df"]).limit_denominator(WORKED["d_docs"])
        c_other = round(nc / row["icf"])
        cf = context_frequency(nc, WORKED["total"])
        lef = learning_example_frequency(nle, WORKED["n_examples"])
        df = document_frequency(ratio.numerator, ratio.denominator)
        icf = inverse_context_frequency(nc, c_other)
        assert cf == pytest.approx(row["cf"], abs=TOLERANCE), name
        assert lef == pytest.approx(row["lef"], abs=TOLERANCE), name
        assert df == pytest.approx(row["df"], abs=TOLERANCE), name
        assert icf == pytest.approx(row["icf"], abs=TOLERANCE), name
        assert context_weight(cf, lef, df, icf) == pytest.approx(
            row["w"], abs=TOLERANCE
        ), name


@criterion(3, "oracle equivalence")
def test_weight_tables_match_brute_force_oracle():
    """build_weight_table vs. an independent window-by-window recount.

    At least 200 random corpora (each at most 10 documents and 500
    tokens): counts must agree exactly, weights to within 4 ulps.
    """
    rng = random.Random(31801)
    checked = 0
    for _ in range(2000):
        if checked >= 200:
            break
        docs, surfaces = random_corpus(rng)
        if sum(len(tokenize(d.text)) for d in docs) > 500:
            continue
        corpus = CorpusManifest(
            [make_doc(d.doc_id, d.text, source=d.source) for d in docs]
        )
        expected, expected_total = oracle_stats(docs, surfaces)
        try:
            table = build_weight_table(corpus, capitals(*surfaces))
        except EmptyResultError:
            assert expected_total == 0
            continue
        checked += 1
        assert table.totals.total_with_examples == expected_total
        assert {r.context.words for r in table} == set(expected)
        for result in table:
            want = expected[result.context.words]
            stats = result.stats
            assert (stats.n_with_examples, stats.n_with_others) == (
                want.nc,
                want.c_other,
            )
            assert (stats.n_examples_seen, stats.n_sources, stats.n_docs) == (
                want.nle,
                want.nd,
                want.d_docs,
            )
            assert abs(result.weight - want.weight) <= 4 * math.ulp(
                max(abs(result.weight), abs(want.weight))
            )
    assert checked >= 200


@criterion(4, "context frequencies sum to one")
def test_context_frequencies_sum_to_one():
    rng = random.Random(44)
    checked = 0
    for _ in range(2000):
        if checked >= 200:
            break
        docs, surfaces = random_corpus(rng)
        corpus = CorpusManifest(
            [make_doc(d.doc_id, d.text, source=d.source) for d in docs]
        )
        try:
            table = build_weight_table(corpus, capitals(*surfaces))
        except EmptyResultError:
            continue
        checked += 1
        assert sum(r.cf for r in table) == pytest.approx(1.0, abs=1e-9)
    assert checked >= 200


GROWTH_TEMPLATE = [
    "Hotels in Paris today.",
    "Map of Berlin pages.",
    "Travel to Paris soon.",
    "Paris is lovely.",
    "Nothing here at all.",
]


@criterion(5, "growth monotone and saturating")
def test_growth_is_monotone_and_saturates():
    corpus = make_corpus(*(GROWTH_TEMPLATE * 20))
    steps = list(range(5, 101, 5))
    points = growth_curve(corpus, capitals("Paris", "Berlin"), steps)
    contexts = [p.context_count for p in points]
    occurrences = [p.example_occurrences for p in points]
    assert contexts[0] > 0
    assert all(c == contexts[0] for c in contexts)
    assert all(b >= a for a, b in zip(occurrences, occurrences[1:]))
    assert occurrences[-1] == 20 * occurrences[0]

    rng = random.Random(5)
    for _ in range(20):
        docs, surfaces = random_corpus(rng)
        manifest = CorpusManifest(
            [make_doc(d.doc_id, d.text, source=d.source) for d in docs]
        )
        curve = growth_curve(
            manifest, capitals(*surfaces), list(range(1, len(manifest) + 1))
        )
        for before, after in zip(curve, curve[1:]):
            assert after.example_occurrences >= before.example_occurrences
            assert after.context_count >= before.context_count


# Synthetic two-class world for the end-to-end check: context bigrams
# are unique to their class, entity pools are disjoint between training
# and test, and fillers share no words with either.
CAPITAL_CONTEXTS = [("Hotels", "in"), ("Map", "of"), ("Flights", "to")]
PRESIDENT_CONTEXTS = [
    ("elected", "president"),
    ("deputy", "chief"),
    ("senator", "named"),
]
CAPITAL_TRAIN = ["Paris", "Berlin", "Tunis", "Madrid"]
CAPITAL_TEST = ["Oslo", "Lima", "Quito", "New York"]
PRESIDENT_TRAIN = ["Chirac", "Mitterrand", "Sarkozy", "Pompidou"]
PRESIDENT_TEST = ["Obama", "Lincoln", "Grant", "Truman"]
FILLERS = [
    "quiet", "streets", "seemed", "empty", "during",
    "long", "afternoon", "walks",
]


def labeled_sentences(contexts, entities, label):
    return [(ctx, entity.split(), label) for ctx in contexts for entity in entities]


def compose_document(sentences):
    """Join sentences into one text, tracking gold token spans.

    Every word is purely alphabetic, so token positions are knowable
    without re-tokenizing: two context words, the entity, two fillers.
    """
    filler = itertools.cycle(FILLERS)
    parts = []
    spans = []
    base = 0
    for (first_word, second_word), entity, label in sentences:
        words = [first_word, second_word, *entity, next(filler), next(filler)]
        parts.append(" ".join(words) + ".")
        spans.append((base + 2, base + 2 + len(entity) - 1, label))
        base += len(words)
    return " ".join(parts), spans


def train_table(contexts, entities, label):
    sentences = labeled_sentences(contexts, entities, label)
    docs = []
    for i in range(3):
        text, _ = compose_document(sentences[i::3])
        docs.append(make_doc(f"{label}{i}", text, source=f"src{i}"))
    examples = [LearningExample(entity, label) for entity in entities]
    return build_weight_table(CorpusManifest(docs), examples)


@criterion(6, "end-to-end recognition accuracy")
def test_end_to_end_recognition_meets_accuracy_floor():
    model = RecognitionModel(
        tables={
            "capital": train_table(
                CAPITAL_CONTEXTS, CAPITAL_TRAIN, "capital"
            ).as_mapping(),
            "president": train_table(
                PRESIDENT_CONTEXTS, PRESIDENT_TRAIN, "president"
            ).as_mapping(),
        },
        threshold=0.0,
        margin=0.0,
    )
    mixed = [
        sentence
        for pair in zip(
            labeled_sentences(CAPITAL_CONTEXTS, CAPITAL_TEST, "capital"),
            labeled_sentences(PRESIDENT_CONTEXTS, PRESIDENT_TEST, "president"),
        )
        for sentence in pair
    ]
    docs = []
    gold = []
    for i in range(4):
        doc_id = f"t{i:02}"
        text, spans = compose_document(mixed[6 * i : 6 * (i + 1)])
        docs.append(make_doc(doc_id, text))
        gold += [
            GoldAnnotation(doc_id, first, last, label)
            for first, last, label in spans
        ]
    report = evaluate(recognize_corpus(CorpusManifest(docs), model), gold)
    assert report.precision is not None and report.precision >= 0.95
    assert report.recall is not None and report.recall >= 0.95


DETERMINISM_DOCS = [
    ("Map of Paris. Hotels in Paris.", "s0.example"),
    ("Map of Berlin and maps galore.", "s1.example"),
    ("Hotels in Berlin. Travel to Paris.", "s1.example"),
    ("Travel to Berlin. Map of pages.", "s2.example"),
    ("Hotels in rooms and Hotels in Tunis.", "s3.example"),
    ("Nothing relevant in here.", "s0.example"),
]


def _write_weigh_inputs(tmp_path, name, assignment):
    directory = tmp_path / name
    docs = [
        make_doc(f"d{i:02}", DETERMINISM_DOCS[j][0], source=DETERMINISM_DOCS[j][1])
        for i, j in enumerate(assignment)
    ]
    save_corpus(CorpusManifest(docs), directory)
    return str(directory)


@criterion(7, "byte-deterministic weighing")
def test_weigh_command_is_byte_deterministic(tmp_path, capsys):
    examples = tmp_path / "examples.tsv"
    examples.write_text(
        "surface\tclass\nParis\tcapital\nBerlin\tcapital\nTunis\tcapital\n",
        encoding="utf-8",
    )
    plain = _write_weigh_inputs(tmp_path, "plain", [0, 1, 2, 3, 4, 5])
    permuted = _write_weigh_inputs(tmp_path, "permuted", [5, 2, 0, 4, 1, 3])
    outputs = [tmp_path / f"out{i}.tsv" for i in range(3)]
    runs = [(plain, outputs[0]), (plain, outputs[1]), (permuted, outputs[2])]
    for corpus_dir, output in runs:
        code = cli.main(
            ["weigh", str(examples), corpus_dir, "--output", str(output)]
        )
        assert code == 0
    first = outputs[0].read_bytes()
    assert first
    assert outputs[1].read_bytes() == first
    assert outputs[2].read_bytes() == first


@criterion(8, "classification scale invariance")
def test_classify_is_scale_invariant():
    rng = random.Random(88)
    labels = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        chosen = rng.sample(labels, rng.randint(1, 5))
        votes = {label: rng.uniform(0.01, 10.0) for label in chosen}
        threshold = rng.uniform(0.0, 5.0)
        margin = rng.uniform(0.0, 2.0)
        scale = math.exp(rng.uniform(-4.0, 4.0))
        plain = classify(VoteState(votes=dict(votes)), threshold, margin)
        scaled = classify(
            VoteState(votes={k: v * scale for k, v in votes.items()}),
            threshold * scale,
            margin * scale,
        )
        assert plain == scaled
