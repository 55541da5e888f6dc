"""Document corpus storage: source identity, markup stripping, manifest IO.

A corpus directory holds `manifest.tsv` (columns: id, source, uri, kind,
file) plus one cleaned-text UTF-8 file per document, conventionally under
`docs/`. Cleaned text is stored so statistics runs never re-strip markup.
Documents are immutable after load and safe to share across threads.
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath
from typing import Iterable, NamedTuple
from urllib.parse import urlsplit

from . import tsv
from .errors import DataFormatError, InputError
from .record import Record

PLAIN = "plain"
MARKUP = "markup"

MANIFEST_NAME = "manifest.tsv"
_MANIFEST_HEADER = ["id", "source", "uri", "kind", "file"]

# Suffixes stripped when deriving a source id from a local file path.
# Deliberately excludes host-like suffixes (".com", ".md") so that
# normalization is idempotent on its own output.
_TEXT_SUFFIXES = {".txt", ".text", ".html", ".htm", ".xml"}


def normalize_source(uri: str) -> str:
    """Reduce a locator to its origin identity.

    Web locators map to their lowercased host; local paths map to the
    lowercased file stem. The result is a fixed point of this function.
    """
    if not uri or not uri.strip():
        raise DataFormatError("empty source locator")
    s = uri.strip()
    if "://" in s:
        parts = urlsplit(s)
        if parts.scheme == "file":
            return _path_stem(parts.path, original=s)
        host = parts.hostname
        if not host:
            raise DataFormatError(f"locator has no host: {s!r}")
        return host
    return _path_stem(s, original=s)


def _path_stem(path: str, original: str) -> str:
    name = PurePosixPath(path.rstrip("/")).name.lower()
    if not name:
        raise DataFormatError(f"locator has no file name: {original!r}")
    p = PurePosixPath(name)
    while p.suffix in _TEXT_SUFFIXES:
        p = p.with_suffix("")
    return str(p)


_SKIP_TAGS = {"script", "style"}


def _markup_text(raw: str) -> str:
    """The text content of markup, skipping script/style subtrees.

    html.parser is imported here, on the first markup document, so the
    commands that only read stored corpora never load it.
    """
    from html.parser import HTMLParser

    chunks: list[str] = []
    skip_depth = 0

    def handle_starttag(tag, attrs):
        nonlocal skip_depth
        if tag in _SKIP_TAGS:
            skip_depth += 1
        else:
            chunks.append(" ")

    def handle_endtag(tag):
        nonlocal skip_depth
        if tag in _SKIP_TAGS:
            if skip_depth:
                skip_depth -= 1
        else:
            chunks.append(" ")

    def handle_data(data):
        if not skip_depth:
            chunks.append(data)

    parser = HTMLParser(convert_charrefs=True)
    parser.handle_starttag = handle_starttag
    parser.handle_endtag = handle_endtag
    parser.handle_data = handle_data
    parser.feed(raw)
    parser.close()
    return "".join(chunks)


def clean_text(raw: str | bytes, kind: str) -> str:
    """Produce the analyzable text of a document.

    kind="plain": newline normalization only, so offsets are stable.
    kind="markup": tags and script/style blocks removed, character
    references decoded, whitespace runs collapsed to single spaces.
    Deterministic in both cases.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise tsv.not_utf8(exc)
    if kind == PLAIN:
        return raw.replace("\r\n", "\n").replace("\r", "\n")
    if kind == MARKUP:
        return " ".join(_markup_text(raw).split())
    raise InputError(f"unknown document kind {kind!r}, expected 'plain' or 'markup'")


class Document(NamedTuple):
    """One stored document: its identity and its cleaned text."""

    id: str
    source: str
    uri: str
    kind: str
    clean: str


class CorpusManifest(Record):
    """An id-ordered document collection gathered for one entity class."""

    __slots__ = ("documents",)

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._assign(documents=sorted(documents, key=lambda d: d.id))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def save_corpus(manifest: CorpusManifest, directory: str | Path) -> None:
    """Write manifest.tsv plus one cleaned-text file per document."""
    directory = Path(directory)
    (directory / "docs").mkdir(parents=True, exist_ok=True)
    rows = []
    for doc in manifest:
        rel = f"docs/{doc.id}.txt"
        tsv.write_text(directory / rel, doc.clean)
        rows.append([doc.id, doc.source, doc.uri, doc.kind, rel])
    tsv.write_rows(directory / MANIFEST_NAME, _MANIFEST_HEADER, rows)


def load_corpus(directory: str | Path) -> CorpusManifest:
    """Load a corpus directory written by save_corpus.

    Raises InputError when the manifest file cannot be read,
    DataFormatError on a repeated id or uri, a bad kind, a missing
    document file, or a document that is not UTF-8.
    """
    directory = Path(directory)
    seen_ids: set[str] = set()
    seen_uris: set[str] = set()

    def parse(doc_id, source, uri, kind, rel):
        if not doc_id or not source or not uri or not rel:
            raise ValueError("empty required field")
        if doc_id in seen_ids:
            raise ValueError(f"duplicate document id {doc_id!r}")
        if uri in seen_uris:
            raise ValueError(f"duplicate document uri {uri!r}")
        seen_ids.add(doc_id)
        seen_uris.add(uri)
        if kind not in (PLAIN, MARKUP):
            raise ValueError(f"unknown kind {kind!r}")
        doc_path = directory / rel
        if not doc_path.is_file():
            raise ValueError(f"missing document file {rel!r}")
        text = tsv.read_text(doc_path)
        return Document(id=doc_id, source=source, uri=uri, kind=kind, clean=text)

    return CorpusManifest(tsv.read_rows(directory / MANIFEST_NAME, _MANIFEST_HEADER, parse))
