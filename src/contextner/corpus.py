"""Corpus directories (README "File formats"): each document's source
identity, and the manifest that lists its cleaned-text file."""

from __future__ import annotations

import os
from pathlib import Path, PurePosixPath
from typing import Callable, Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

from . import tsv
from .errors import DataFormatError
from .record import Record

PLAIN = "plain"
MARKUP = "markup"

MANIFEST_NAME = "manifest.tsv"
DOCS_DIR = "docs"  # where save_corpus writes each document's text
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


class Document(NamedTuple):
    """One stored document: its identity and its cleaned text."""

    id: str
    source: str
    uri: str
    kind: str
    clean: str

    def read(self) -> Document:
        """The document itself, as StoredDocument.read gives one."""
        return self


class StoredDocument(NamedTuple):
    """One manifest row: a document's identity and the file that holds
    its cleaned text, which `read` reads."""

    id: str
    source: str
    uri: str
    kind: str
    path: str

    def read(self) -> Document:
        """The document, with its text read from `path` now."""
        return Document(self.id, self.source, self.uri, self.kind, tsv.read_text(self.path))


class CorpusManifest(Record):
    """An id-ordered document collection gathered for one entity class.

    `documents` holds Documents, or the StoredDocuments of a manifest
    file (see load_corpus). Iterating yields every one as a Document, in
    id order; a stored one's text is read only when iteration reaches
    it, and the iterator keeps none of it, so iterating twice reads
    every file twice.
    """

    __slots__ = ("documents",)

    def __init__(self, documents: Iterable[Document | StoredDocument] = ()) -> None:
        self._assign(documents=sorted(documents, key=lambda d: d.id))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        for doc in self.documents:
            yield doc.read()

    def with_repeats(self) -> Iterator[tuple[Document, int | None]]:
        """Every document as iteration yields it, with None when its text
        is new and k when it repeats the k-th new text (from 0).

        A candidate is found by the text's length and hash, and confirmed
        by == against the earlier text, read again from its file when it
        is stored; so different texts are never taken for one. Beyond
        what iteration holds, only the first entry of each distinct text
        is kept.
        """
        firsts: list[Document | StoredDocument] = []
        numbers: dict[tuple[int, int], list[int]] = {}  # (length, hash) -> each k

        def tag(entry: Document | StoredDocument) -> tuple[Document, int | None]:
            doc = entry.read()
            text = doc.clean
            candidates = numbers.setdefault((len(text), hash(text)), [])
            for k in candidates:
                if firsts[k].read().clean == text:
                    return doc, k
            candidates.append(len(firsts))
            firsts.append(entry)
            return doc, None

        return map(tag, self.documents)


def _manifest_row_check() -> Callable[[str, str, str, str, str], None]:
    """A check for manifest rows in order, raising ValueError on a bad
    row; the file is checked by tsv.stored_entry."""
    seen_ids: set[str] = set()
    seen_uris: set[str] = set()

    def check(doc_id: str, source: str, uri: str, kind: str, rel: str) -> None:
        if not doc_id or not source or not uri or not rel:
            raise ValueError("empty required field")
        if "/" in doc_id or "\\" in doc_id:
            raise ValueError(f"document id {doc_id!r} holds a path separator")
        if doc_id in seen_ids:
            raise ValueError(f"duplicate document id {doc_id!r}")
        if uri in seen_uris:
            raise ValueError(f"duplicate document uri {uri!r}")
        seen_ids.add(doc_id)
        seen_uris.add(uri)
        if kind not in (PLAIN, MARKUP):
            raise ValueError(f"unknown kind {kind!r}")

    return check


def save_corpus(manifest: CorpusManifest, directory: str | Path) -> None:
    """Write manifest.tsv plus one cleaned-text file per document. Every
    row, and every entry written, is checked before the first write. Each
    stored document's text is read once, just before it is written."""
    directory = Path(directory)
    rows = [
        [doc.id, doc.source, doc.uri, doc.kind, f"{DOCS_DIR}/{doc.id}.txt"]
        for doc in manifest.documents
    ]
    check = _manifest_row_check()
    for lineno, row in enumerate(rows, start=2):
        try:
            check(*row)
        except ValueError as exc:
            raise DataFormatError(f"{directory / MANIFEST_NAME}:{lineno}: {exc}") from exc
    text = tsv.table_text(_MANIFEST_HEADER, rows)
    names = [*(rel for *_, rel in rows), MANIFEST_NAME]
    *doc_paths, index = [tsv.stored_entry(directory, name)[0] for name in names]
    os.makedirs(directory / DOCS_DIR if rows else directory, exist_ok=True)
    for doc, path in zip(manifest, doc_paths):
        tsv.write_text(path, doc.clean)
    tsv.write_text(index, text)


def load_corpus(directory: str | Path) -> CorpusManifest:
    """Load a corpus directory written by save_corpus. Every manifest row
    and document entry is checked now (README "File formats"), but no
    text is read: the manifest holds StoredDocuments, whose text is read,
    and checked to be UTF-8, when iteration reaches it. A manifest that
    cannot be read is an InputError, a bad row or entry a DataFormatError."""
    directory = Path(directory)
    root = str(directory)
    check = _manifest_row_check()

    def parse(doc_id, source, uri, kind, rel):
        check(doc_id, source, uri, kind, rel)
        doc_path, present = tsv.stored_entry(root, rel)
        if not present:
            raise ValueError(f"missing document file {rel!r}")
        return StoredDocument(id=doc_id, source=source, uri=uri, kind=kind, path=doc_path)

    index, _ = tsv.stored_entry(root, MANIFEST_NAME)
    return CorpusManifest(tsv.read_rows(index, _MANIFEST_HEADER, parse))
