"""The package's public names resolve lazily to their defining modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contextner

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name of `contextner`, by the module that defines it.
PUBLIC = {
    "acquire": [
        "AcquireResult", "AcquisitionError", "ClientError", "FixtureClient",
        "SearchClient", "acquire", "build_queries",
    ],
    "annotations": ["Annotation", "GoldAnnotation", "load_gold"],
    "corpus": [
        "CorpusManifest", "Document", "clean_text", "load_corpus",
        "normalize_source", "save_corpus",
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
        "inverse_context_frequency", "inverse_document_frequency",
        "learning_example_frequency", "term_frequency", "tf_idf",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"contextner.{module}"), name)
    assert getattr(contextner, name) is defined
    assert name in dir(contextner)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from contextner import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(contextner, name)
    assert sorted(contextner.__all__) == sorted(name for _module, name in NAMES)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'contextner' has no attribute 'nope'"):
        contextner.nope
    with pytest.raises(ImportError):
        exec("from contextner import nope", {})


def test_functions_named_like_their_modules_stay_functions():
    # `acquire` and `evaluate` are both a function and the submodule
    # that defines it. Whichever is loaded first, the package attribute
    # is the function, and the submodule stays importable.
    code = (
        "import contextner.acquire, contextner.evaluate\n"
        "from contextner.acquire import FixtureClient\n"
        "assert contextner.acquire.__module__ == 'contextner.acquire'\n"
        "from contextner import evaluate\n"
        "assert evaluate.__module__ == 'contextner.evaluate'\n"
        "import contextner.evaluate as ev\n"
        "assert ev is evaluate\n"
        "assert sys.modules['contextner.acquire'].FixtureClient is FixtureClient\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for prelude in ("import sys\n", "import sys, contextner\ncontextner.acquire\n"):
        result = subprocess.run(
            [sys.executable, "-c", prelude + code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
