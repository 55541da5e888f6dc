"""Corpus acquisition through a pluggable search-and-fetch client.

Real web search backends plug in by implementing `SearchClient`. The
shipped implementation is `FixtureClient`, which serves canned results
from a directory so the pipeline stays deterministic and offline.
`clean_text` turns each fetched payload into the text a corpus stores,
so markup is stripped once, here, and never by the commands that read
a corpus.
"""

from __future__ import annotations

import os
import re
from abc import ABC, abstractmethod
from bisect import bisect_left
from errno import ENOENT
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from . import tsv
from .corpus import MARKUP, PLAIN, CorpusManifest, Document, normalize_source
from .errors import DataFormatError, InputError, PipelineError
from .seeds import LearningExample
from .tsv import check_inside

try:  # the interpreter's own SHA-1; hashlib would load OpenSSL for it
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

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
    the raw payload plus its kind ("plain" or "markup"); `acquire` calls
    it once per new URI, in order, on the calling thread, so a client
    need not be thread-safe.
    """

    @abstractmethod
    def search(self, query: str) -> list[str]: ...

    @abstractmethod
    def fetch(self, uri: str) -> tuple[bytes, str]: ...


class FixtureClient(SearchClient):
    """Deterministic client backed by a fixture directory.

    The directory's queries.tsv maps query strings to URIs and local
    files (columns: query, uri, file). Results keep file order; a URI
    listed with two different files, or with a file outside the
    directory (see tsv.check_inside), is rejected up front, as is a
    queries.tsv that tsv.stored_entry refuses. A file that is missing, or
    that tsv.stored_entry refuses, is a fetch failure.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._results: dict[str, list[str]] = {}
        # uri -> file name as first written, joined to the directory on fetch.
        self._files: dict[str, str] = {}
        checked: set[str] = set()

        def parse(query, uri, file_name):
            if not query or not uri or not file_name:
                raise ValueError("empty field")
            if file_name not in checked:
                check_inside(file_name)
                checked.add(file_name)
            known = self._files.setdefault(uri, file_name)
            if known != file_name and self.directory / known != self.directory / file_name:
                raise ValueError(f"uri {uri!r} mapped to conflicting files")
            self._results.setdefault(query, []).append(uri)

        index, _ = tsv.stored_entry(self.directory, "queries.tsv")
        tsv.read_rows(index, QUERIES_HEADER, parse)

    def search(self, query: str) -> list[str]:
        return self._results.get(query, [])

    def fetch(self, uri: str) -> tuple[bytes, str]:
        file_name = self._files.get(uri)
        if file_name is None:
            raise ClientError(f"unknown uri: {uri}")
        try:
            path, present = tsv.stored_entry(self.directory, file_name)
            raw = tsv.read_bytes(path) if present else None
        except tsv.RefusedEntry as exc:
            raise ClientError(exc.reason) from exc
        except InputError as exc:
            raise ClientError(str(exc)) from exc
        if raw is None:  # worded as open words it
            missing = FileNotFoundError(ENOENT, os.strerror(ENOENT), path)
            raise ClientError(f"cannot read {path}: {missing}")
        kind = MARKUP if os.path.splitext(path)[1].lower() in _MARKUP_SUFFIXES else PLAIN
        return raw, kind


def build_queries(examples: Iterable[LearningExample], suffix: str = "") -> list[str]:
    """One query per distinct surface form, in first-seen order.

    A non-empty suffix is appended after a space to narrow every query.
    """
    surfaces = dict.fromkeys(ex.surface for ex in examples)
    if not surfaces:
        raise InputError("no learning examples to build queries from")
    return [f"{s} {suffix}" if suffix else s for s in surfaces]


# Markup, as one regular expression for `_markup_text`. Every construct
# opens with `<`, which stays outside the alternation so a scan finds the
# next `<` before it tries any alternative; the alternatives are tried in
# order. In a tag, a value in quotes after `=` may hold `>`; a quote that
# never closes is plain text.
_QUOTED = r"""\s*(?:"[^"]*"|'[^']*')"""
_ATTRIBUTES = rf"(?:[\t\n\r\f /][^>=]*(?:=(?:{_QUOTED}|(?!{_QUOTED}))[^>=]*)*)?"


def _raw_text_element(name: str) -> str:
    """A `name` start tag and, unless it ends in `/>`, what follows it up
    to the first `</name>` (any case, spaces allowed around the name) or
    to the end of the text."""
    name = f"(?ai:{name})"
    close = rf"/\s*{name}\s*>"
    return rf"{name}{_ATTRIBUTES}(?:(?<=/)>|>[^<]*(?:<(?!{close})[^<]*)*(?:<{close})?)"


_COMMENT_END = r"--\s*>"
_MARKUP = "<(?:" + "|".join([
    rf"!--[\s\S]*?{_COMMENT_END}",  # comment
    _raw_text_element("script"),
    _raw_text_element("style"),
    # A script or style end tag.
    r"/(?:\s*(?ai:script|style)\s*|(?ai:script|style)[\t\n\r\f /][^>]*)>",
    # Start and end tags: the only group, which matches (empty) exactly
    # for the markup that leaves a space.
    rf"()(?:[a-zA-Z][^\t\n\r\f />]*{_ATTRIBUTES}"
    r"|/(?:[a-zA-Z][^>]*|\s+[a-zA-Z][-.a-zA-Z0-9:_]*\s*))>",
    r"/[^>]*>",  # any other end tag: `</>`, `</ 1>`, `</ a b>`
    r"(?:!(?!--)|\?)[^>]*>",  # declaration, processing instruction
]) + ")"


def _text_opens(raw: str) -> list[int]:
    r"""The positions, in order, of every `<` in `raw` that opens nothing
    `_MARKUP` matches, and that its scan would read on to the end of the
    text to find so:

    - any `<` after the last `>`, since every piece of markup ends in one;
    - a `<!--` that no comment end (`--`, whitespace and `>`) follows;
    - a `<` and a letter whose tag scan ends at the end of the text.

    A tag's name runs to the first of `\t\n\r\f />`, and its scan then to
    the next `>` or `=`. A `>` closes the tag. An `=` resumes the scan
    after its quoted value when whitespace and a quote that closes follow
    it, and just after itself otherwise. So the scan from an `=` ends one
    way whichever `<` reached it, and one pass from the right decides
    each `=` once. A scan that fails before the last `>` skipped it
    inside a quoted value, so that pass runs only when a quote follows
    the last `>`.
    """
    text_from = raw.rfind(">") + 1
    opens = [m.start() for m in re.compile("<").finditer(raw, text_from)]
    comment_end = re.compile(_COMMENT_END)
    last_open = raw.rfind("<!--", 0, text_from)
    if last_open >= 0 and not comment_end.search(raw, last_open + 4):
        last_end = None
        for last_end in comment_end.finditer(raw):
            pass
        comments_from = max(last_end.start() - 3, 0) if last_end else 0
        opens += [m.start() for m in re.compile("<!--").finditer(raw, comments_from, text_from)]
    if raw.find('"', text_from) >= 0 or raw.find("'", text_from) >= 0:
        events = [m.start() for m in re.compile("[>=]").finditer(raw, 0, text_from)]
        closes = [False] * (len(events) + 1)  # and a scan with no event left fails
        quote = re.compile(r"""\s*(["'])""")
        for k in range(len(events) - 1, -1, -1):
            at = events[k] + 1
            if raw[at - 1] == ">":
                closes[k] = True
                continue
            if (value := quote.match(raw, at)) and (end := raw.find(value[1], value.end())) >= 0:
                at = end + 1
            closes[k] = closes[bisect_left(events, at)]
        name_end = -1
        name_stop = re.compile(r"[\t\n\r\f />]")
        for m in re.compile("<[a-zA-Z]").finditer(raw, 0, text_from):
            if name_end < m.start():  # else this name ends where the last one did
                name_end = name_stop.search(raw, m.end()).start()
            if not closes[bisect_left(events, name_end)]:
                opens.append(m.start())
    return sorted(opens)


def _markup_text(raw: str) -> str:
    """The text content of markup, with one space for each tag other than
    script and style, and nothing for the rest of the markup.

    `_MARKUP` splits `raw` into text runs; each run's character
    references are decoded on their own, by html.unescape, which is
    imported only when some run holds a `&`. No run holds one when `raw`
    holds none, and then the runs are not searched. Each `<` that `_text_opens`
    finds is first replaced by a character the text does not hold, which
    nothing in `_MARKUP` reads apart from `<`, and put back in the text
    runs, so that the split never reads on to the end of the text for it.
    """
    opens = _text_opens(raw)
    mark = None
    if opens:
        held = set(raw)
        mark = next(c for c in map(chr, range(0xE000, 0x110000)) if c not in held)
        raw = mark.join(raw[i + 1 : j] for i, j in zip([-1, *opens], [*opens, len(raw)]))
    parts = re.split(_MARKUP, raw)
    texts = parts[::2] if mark is None else [t.replace(mark, "<") for t in parts[::2]]
    if "&" in raw and any("&" in text for text in texts):
        from html import unescape

        texts = [unescape(text) if "&" in text else text for text in texts]
    parts[::2] = texts
    parts[1::2] = ["" if space is None else " " for space in parts[1::2]]
    return "".join(parts)


def clean_text(raw: str | bytes, kind: str) -> str:
    """Produce the analyzable text of a document.

    Bytes are decoded, and line breaks read, by tsv.decode.
    kind="plain": nothing more.
    kind="markup": markup removed as `_markup_text` reads it (README,
    step 1), character references decoded, whitespace runs collapsed to
    single spaces. Never raises on text.
    Deterministic in both cases.
    """
    raw = tsv.decode(raw)
    if kind == PLAIN:
        return raw
    if kind == MARKUP:
        return " ".join(_markup_text(raw).split())
    raise InputError(f"unknown document kind {kind!r}, expected 'plain' or 'markup'")


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
    return sha1(uri.encode("utf-8")).hexdigest()[:12]


def acquire(
    client: SearchClient,
    queries: Iterable[str],
    existing: Optional[CorpusManifest] = None,
    max_results: int = 10,
) -> AcquireResult:
    """Grow a corpus with every new document the queries surface.

    The first `max_results` URIs of each search result are kept and
    deduplicated against the existing manifest and one another. Every
    search runs first; then `client.fetch` is called once per new URI, in
    query order, then result order, on the calling thread, and each page
    is cleaned as its fetch returns, so a client need not be thread-safe.
    A failed fetch is recorded and skipped; an error from every single
    search raises AcquisitionError, and any other error from a client
    ends the run before the next fetch.
    """
    if max_results < 1:
        raise ValueError(f"max_results must be >= 1, got {max_results}")
    # Each stored document's text is read here, once, so one that is not
    # UTF-8 fails the run before anything is fetched.
    kept = list(existing) if existing is not None else []
    queries = list(queries)
    known_uris = {doc.uri for doc in kept}
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
    for uri in targets:
        try:
            raw, kind = client.fetch(uri)
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

    manifest = CorpusManifest(kept + new_docs)
    return AcquireResult(manifest=manifest, failures=tuple(failures))
