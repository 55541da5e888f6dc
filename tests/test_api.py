"""Each public name imports from the module that defines it, and only there."""

import importlib

import pytest

import contextner

# Every public name, by the module to import it from.
PUBLIC = {
    "acquire": [
        "AcquireResult", "AcquisitionError", "ClientError", "FixtureClient",
        "SearchClient", "acquire", "build_queries", "clean_text",
    ],
    "annotations": ["Annotation", "GoldAnnotation", "load_gold"],
    "corpus": [
        "CorpusManifest", "Document", "load_corpus", "normalize_source", "save_corpus",
    ],
    "errors": ["DataFormatError", "EmptyResultError", "InputError", "PipelineError"],
    "evaluate": ["EvalReport", "evaluate"],
    "extract": [
        "ContextKey", "InstanceOccurrence", "WordSequence", "extract_context",
        "find_instances", "instance_index", "tokenize",
    ],
    "recognize": [
        "UNKNOWN", "RecognitionModel", "classify", "detect_candidates", "load_model",
        "recognize_corpus", "recognize_document",
    ],
    "seeds": ["LearningExample", "load_examples"],
    "weighting": [
        "ContextStats", "GlobalStats", "GrowthPoint", "WeightedContext",
        "WeightTable", "build_weight_table", "collect_context_stats", "context_frequency",
        "context_weight", "document_frequency", "growth_curve",
        "inverse_context_frequency", "learning_example_frequency",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"contextner.{module}"), name)
    if name == "UNKNOWN":
        # The label constant: `contextner.seeds` defines it.
        assert defined is importlib.import_module("contextner.seeds").UNKNOWN
    else:
        # A class or function is defined by its module, not re-exported.
        assert defined.__module__ == f"contextner.{module}"
    # The package binds no public name of its own: `contextner.acquire`
    # and `contextner.evaluate` are the submodules, not the functions.
    assert getattr(contextner, name, None) is not defined
