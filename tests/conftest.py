from __future__ import annotations

from hypothesis import settings

from contextner.corpus import CorpusManifest, Document
from contextner.seeds import LearningExample

# `pytest --hypothesis-profile=thorough` runs each property test on 20
# times the default number of examples.
settings.register_profile("thorough", max_examples=2000)


def make_doc(doc_id: str, text: str, source: str | None = None) -> Document:
    return Document(
        id=doc_id,
        source=source if source is not None else doc_id,
        uri=f"http://{doc_id}.example/page",
        kind="plain",
        clean=text,
    )


def make_corpus(*texts: str) -> CorpusManifest:
    docs = [make_doc(f"d{i:02}", text) for i, text in enumerate(texts)]
    return CorpusManifest(docs)


def capitals(*surfaces: str) -> list[LearningExample]:
    return [LearningExample(s, "capital") for s in surfaces]
