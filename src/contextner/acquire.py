"""Corpus acquisition through a pluggable search-and-fetch client.

Real web search backends plug in by implementing `SearchClient`. The
shipped implementation is `FixtureClient`, which serves canned results
from a directory so the pipeline stays deterministic and offline.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from . import tsv
from .corpus import (
    MARKUP,
    PLAIN,
    CorpusManifest,
    Document,
    clean_text,
    normalize_source,
)
from .errors import DataFormatError, InputError, PipelineError
from .seeds import LearningExample

QUERIES_HEADER = ["query", "uri", "file"]
_MARKUP_SUFFIXES = {".html", ".htm", ".xml"}


class AcquisitionError(PipelineError):
    """Every search query failed; no corpus could be built."""


class ClientError(Exception):
    """A search or fetch call failed for one query or URI."""


class SearchClient(ABC):
    """Search backend interface.

    Implementations must raise ClientError (or OSError) on failure.
    `search` takes the query text and returns the result URIs, best
    first; `acquire` decides how many of them to keep. `fetch` returns
    the raw payload plus its kind ("plain" or "markup").
    """

    @abstractmethod
    def search(self, query: str) -> list[str]: ...

    @abstractmethod
    def fetch(self, uri: str) -> tuple[bytes, str]: ...


class FixtureClient(SearchClient):
    """Deterministic client backed by a fixture directory.

    The directory's queries.tsv maps query strings to URIs and local
    files (columns: query, uri, file). Results keep file order; a URI
    listed with two different files is rejected up front.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._results: dict[str, list[str]] = {}
        # uri -> file name as first written, joined to the directory on fetch.
        self._files: dict[str, str] = {}

        def parse(query, uri, file_name):
            if not query or not uri or not file_name:
                raise ValueError("empty field")
            known = self._files.setdefault(uri, file_name)
            if known != file_name and self.directory / known != self.directory / file_name:
                raise ValueError(f"uri {uri!r} mapped to conflicting files")
            self._results.setdefault(query, []).append(uri)

        tsv.read_rows(self.directory / "queries.tsv", QUERIES_HEADER, parse)

    def search(self, query: str) -> list[str]:
        return self._results.get(query, [])

    def fetch(self, uri: str) -> tuple[bytes, str]:
        file_name = self._files.get(uri)
        if file_name is None:
            raise ClientError(f"unknown uri: {uri}")
        path = self.directory / file_name
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ClientError(f"cannot read {path}: {exc}") from exc
        kind = MARKUP if path.suffix.lower() in _MARKUP_SUFFIXES else PLAIN
        return raw, kind


def build_queries(examples: Iterable[LearningExample], suffix: str = "") -> list[str]:
    """One query per distinct surface form, in first-seen order.

    A non-empty suffix is appended after a space to narrow every query.
    """
    surfaces = dict.fromkeys(ex.surface for ex in examples)
    if not surfaces:
        raise InputError("no learning examples to build queries from")
    return [f"{s} {suffix}" if suffix else s for s in surfaces]


class FetchFailure(NamedTuple):
    """A query or URI that acquire skipped.

    `stage` is "search" (then `uri` holds the query), "fetch" or "clean".
    """

    uri: str
    stage: str
    error: str

    def message(self) -> str:
        """The failure as the acquire command reports it on stderr."""
        if self.stage == "search":
            return f"search failed for {self.uri!r}: {self.error}"
        if self.stage == "fetch":
            return f"fetch failed for {self.uri}: {self.error}"
        return f"discarding {self.uri}: {self.error}"


class AcquireResult(NamedTuple):
    """New manifest plus the per-URI failures that were skipped over."""

    manifest: CorpusManifest
    failures: tuple[FetchFailure, ...] = ()


def _doc_id(uri: str) -> str:
    return hashlib.sha1(uri.encode("utf-8")).hexdigest()[:12]


def acquire(
    client: SearchClient,
    queries: Iterable[str],
    existing: Optional[CorpusManifest] = None,
    workers: int = 1,
    max_results: int = 10,
) -> AcquireResult:
    """Grow a corpus with every new document the queries surface.

    The first `max_results` URIs of each search result are kept and
    deduplicated against the existing manifest and one another. Fetches
    run on up to `workers` threads, but documents land in query order,
    then result order, no matter which fetch finishes first. A failed
    fetch is recorded and skipped; an error from every single search
    raises AcquisitionError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_results < 1:
        raise ValueError(f"max_results must be >= 1, got {max_results}")
    existing = existing if existing is not None else CorpusManifest([])
    queries = list(queries)
    known_uris = {doc.uri for doc in existing}
    failures: list[FetchFailure] = []
    targets: list[str] = []
    search_errors = 0
    for query in queries:
        try:
            links = client.search(query)
        except (ClientError, OSError) as exc:
            search_errors += 1
            failures.append(FetchFailure(uri=query, stage="search", error=str(exc)))
            continue
        for uri in links[:max_results]:
            if uri not in known_uris:
                known_uris.add(uri)
                targets.append(uri)
    if queries and search_errors == len(queries):
        raise AcquisitionError(f"all {len(queries)} search queries failed")

    new_docs: list[Document] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(uri, pool.submit(client.fetch, uri)) for uri in targets]
        for uri, future in futures:
            try:
                raw, kind = future.result()
            except (ClientError, OSError) as exc:
                failures.append(FetchFailure(uri=uri, stage="fetch", error=str(exc)))
                continue
            try:
                clean = clean_text(raw, kind)
            except (DataFormatError, InputError) as exc:
                failures.append(FetchFailure(uri=uri, stage="clean", error=str(exc)))
                continue
            new_docs.append(
                Document(
                    id=_doc_id(uri),
                    source=normalize_source(uri),
                    uri=uri,
                    kind=kind,
                    clean=clean,
                )
            )

    manifest = CorpusManifest(list(existing) + new_docs)
    return AcquireResult(manifest=manifest, failures=tuple(failures))
