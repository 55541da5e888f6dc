"""Records compare, hash, sort and validate as the package's callers expect."""

import copy
import pickle
import re

import pytest

from conftest import make_corpus
from contextner.acquire import AcquireResult, FetchFailure
from contextner.annotations import Annotation, GoldAnnotation
from contextner.corpus import CorpusManifest, Document
from contextner.evaluate import EvalReport
from contextner.extract import (
    ContextKey,
    InstanceOccurrence,
    WordSequence,
    tokenize,
)
from contextner.recognize import RecognitionModel
from contextner.seeds import LearningExample
from contextner.weighting import (
    ContextStats,
    GlobalStats,
    GrowthPoint,
    WeightedContext,
    WeightTable,
    build_weight_table,
)

PARIS = LearningExample("Paris", "capital")
KEY = ContextKey(("Hotels", "in"))
STATS = ContextStats(KEY, 2, 1, 1, 2, 2)
TOTALS = GlobalStats(total_with_examples=2, n_examples=1)
ROW = WeightedContext(STATS, cf=1.0, lef=1.0, df=1.0, icf=2.0, weight=2.0)
DOC = Document(
    id="d1", source="a.example", uri="http://a.example/", kind="plain", clean="x"
)

# (record, its field names in order) for every immutable record.
FROZEN = [
    (PARIS, ("surface", "class_label")),
    (InstanceOccurrence(PARIS, 2, 2), ("example", "first", "last")),
    (KEY, ("words", "side")),
    (WordSequence(("a", "b"), b"\0\1"), ("words", "opens")),
    (DOC, ("id", "source", "uri", "kind", "clean")),
    (
        Annotation("d1", 2, 2, "Paris", "capital", 1.5, 0.0),
        ("doc", "first", "last", "surface", "class_label", "score", "runner_up"),
    ),
    (GoldAnnotation("d1", 2, 2, "capital"), ("doc", "first", "last", "class_label")),
    (EvalReport(1, 0, 0, 1.0, None), ("tp", "fp", "fn", "precision", "recall")),
    (GrowthPoint(1, 2, 3), ("doc_count", "example_occurrences", "context_count")),
    (FetchFailure("http://x/", "fetch", "gone"), ("uri", "stage", "error")),
    (
        STATS,
        ("context", "n_with_examples", "n_with_others", "n_examples_seen", "n_docs",
         "n_sources"),
    ),
    (TOTALS, ("total_with_examples", "n_examples")),
    (ROW, ("stats", "cf", "lef", "df", "icf", "weight")),
    (WeightTable(rows=(ROW,), totals=TOTALS), ("rows", "totals")),
]
IDS = [type(record).__name__ for record, _fields in FROZEN]


def test_context_keys_sort_by_words_then_side():
    keys = [
        ContextKey(("b",), "left"),
        ContextKey(("a", "x"), "right"),
        ContextKey(("a",), "right"),
        ContextKey(("a", "x"), "left"),
        ContextKey(("a",), "left"),
    ]
    assert sorted(keys) == [
        ContextKey(("a",), "left"),
        ContextKey(("a",), "right"),
        ContextKey(("a", "x"), "left"),
        ContextKey(("a", "x"), "right"),
        ContextKey(("b",), "left"),
    ]


@pytest.mark.parametrize("record, fields", FROZEN, ids=IDS)
def test_record_hashes_as_its_field_tuple(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    assert hash(record) == hash(values)


@pytest.mark.parametrize("record, fields", FROZEN, ids=IDS)
def test_record_refuses_assignment(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(getattr(record, name) for name in fields) == values


@pytest.mark.parametrize(
    "record",
    [record for record, _fields in FROZEN]
    + [
        RecognitionModel(tables={"capital": {KEY: 1.0}}, threshold=0.5),
        CorpusManifest([DOC]),
    ],
    ids=IDS + ["RecognitionModel", "CorpusManifest"],
)
def test_record_survives_copy_and_pickle(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_records_with_unhashable_fields_are_unhashable():
    model = RecognitionModel(tables={"capital": {KEY: 1.0}})
    manifest = CorpusManifest([DOC])
    for record in (model, AcquireResult(manifest), manifest):
        with pytest.raises(TypeError):
            hash(record)


def test_unhashable_records_refuse_assignment():
    # A manifest holds a list, so it cannot hash, but it is as fixed as
    # every other record.
    manifest = CorpusManifest([DOC])
    with pytest.raises(AttributeError):
        manifest.documents = []
    with pytest.raises(AttributeError):
        del manifest.documents
    assert list(manifest) == [DOC]


def test_slots_records_compare_by_class_and_fields():
    seq = WordSequence(("a",), b"\0")
    assert seq == WordSequence(("a",), b"\0")
    assert seq != WordSequence(("b",), b"\0")

    class Words(WordSequence):
        __slots__ = ()

    assert seq != Words(("a",), b"\0")
    assert CorpusManifest([DOC]) == CorpusManifest([DOC])
    assert repr(PARIS) == "LearningExample(surface='Paris', class_label='capital')"


def test_sized_records_keep_their_length():
    assert len(tokenize("Hotels in Paris.")) == 3
    assert len(CorpusManifest([DOC])) == 1
    assert len(WeightTable(rows=(ROW,), totals=TOTALS)) == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LearningExample("  ", "capital"), "learning example surface is empty"),
        (
            lambda: LearningExample("Paris", " "),
            "learning example 'Paris' has an empty class label",
        ),
        (
            lambda: build_weight_table(make_corpus("Paris"), [PARIS], context_len=0),
            "context_len must be >= 1, got 0",
        ),
        (
            lambda: build_weight_table(make_corpus("Paris"), [PARIS], side="up"),
            "side must be 'left' or 'right', got 'up'",
        ),
        (
            lambda: build_weight_table(make_corpus("Paris"), [PARIS], min_count=0),
            "min_count must be >= 1, got 0",
        ),
        (
            lambda: RecognitionModel(tables={}, threshold=-1.0),
            "threshold and margin must be non-negative",
        ),
        (
            lambda: RecognitionModel(tables={}, max_entity_tokens=0),
            "max_entity_tokens must be >= 1, got 0",
        ),
        (
            lambda: RecognitionModel(tables={"unknown": {KEY: 1.0}}),
            "invalid class label 'unknown'",
        ),
        (
            lambda: RecognitionModel(tables={"capital": {KEY: 0.0}}),
            "non-positive weight 0.0 for 'Hotels in' in capital",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
