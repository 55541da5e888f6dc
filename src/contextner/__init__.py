"""Context-weighted named entity recognition from seed examples.

Feed the pipeline a handful of example entity surfaces ("Paris",
"London", ...): it gathers documents mentioning them, scores the word
sequences that precede (or follow) the examples, and then recognizes new
entities wherever those high-scoring contexts reappear, by accumulating
per-class weight votes.

`import contextner` loads no submodule: each public name below is
imported from its module on first use (PEP 562), so a program pays only
for the modules it touches.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "acquire": (
            "AcquireResult",
            "AcquisitionError",
            "ClientError",
            "FixtureClient",
            "SearchClient",
            "acquire",
            "build_queries",
        ),
        "annotations": ("Annotation", "GoldAnnotation", "load_gold"),
        "corpus": (
            "CorpusManifest",
            "Document",
            "clean_text",
            "load_corpus",
            "normalize_source",
            "save_corpus",
        ),
        "errors": ("DataFormatError", "EmptyResultError", "InputError", "PipelineError"),
        "evaluate": ("EvalReport", "evaluate"),
        "extract": (
            "ContextKey",
            "InstanceOccurrence",
            "WordSequence",
            "extract_context",
            "find_instances",
            "instance_index",
            "tokenize",
        ),
        "recognize": (
            "UNKNOWN",
            "RecognitionModel",
            "classify",
            "detect_candidates",
            "load_model",
            "recognize_corpus",
            "recognize_document",
        ),
        "seeds": ("LearningExample", "load_examples"),
        "weighting": (
            "ContextStats",
            "GlobalStats",
            "GrowthPoint",
            "WeightedContext",
            "WeightTable",
            "build_weight_table",
            "collect_context_stats",
            "context_frequency",
            "context_weight",
            "document_frequency",
            "growth_curve",
            "inverse_context_frequency",
            "inverse_document_frequency",
            "learning_example_frequency",
            "term_frequency",
            "tf_idf",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading a submodule binds it on its package. Where a function
        # shares the submodule's name (acquire, evaluate), the package
        # attribute stays the function, as it was with eager imports.
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
