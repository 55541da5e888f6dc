"""Context-weighted named entity recognition from seed examples.

Feed the pipeline a handful of example entity surfaces ("Paris",
"London", ...): it gathers documents mentioning them, scores the word
sequences that precede (or follow) the examples, and then recognizes new
entities wherever those high-scoring contexts reappear, by accumulating
per-class weight votes.
"""

from __future__ import annotations

from .acquire import (
    AcquireResult,
    AcquisitionError,
    ClientError,
    FixtureClient,
    SearchClient,
    acquire,
    build_queries,
)
from .corpus import (
    CorpusManifest,
    Document,
    clean_text,
    load_corpus,
    normalize_source,
    save_corpus,
)
from .errors import DataFormatError, EmptyResultError, InputError, PipelineError
from .evaluate import (
    EvalReport,
    GoldAnnotation,
    GrowthPoint,
    evaluate,
    growth_curve,
    load_gold,
)
from .extract import (
    ContextKey,
    ContextOccurrence,
    InstanceOccurrence,
    Tokenization,
    extract_context,
    find_instances,
    instance_index,
    tokenize,
)
from .recognize import (
    UNKNOWN,
    Annotation,
    RecognitionModel,
    VoteState,
    classify,
    detect_candidates,
    load_model,
    recognize_corpus,
    recognize_document,
    vote,
)
from .seeds import LearningExample, load_examples
from .weighting import (
    ContextStats,
    GlobalStats,
    TableConfig,
    WeightedContext,
    WeightTable,
    build_weight_table,
    collect_context_stats,
    context_frequency,
    context_weight,
    document_frequency,
    inverse_context_frequency,
    inverse_document_frequency,
    learning_example_frequency,
    term_frequency,
    tf_idf,
)

__version__ = "0.1.0"
