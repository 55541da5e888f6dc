"""Document corpus storage: source identity, markup stripping, manifest IO.

A corpus directory holds `manifest.tsv` (columns: id, source, uri, kind,
file) plus one cleaned-text UTF-8 file per document, conventionally under
`docs/`. Cleaned text is stored so statistics runs never re-strip markup.
Documents are immutable after load and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path, PurePosixPath
from urllib.parse import urlsplit

from . import tsv
from .errors import DataFormatError, InputError

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


class _TextExtractor(HTMLParser):
    """Collects text content, skipping script/style subtrees."""

    _SKIP = {"script", "style"}

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.chunks: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        else:
            self.chunks.append(" ")

    def handle_endtag(self, tag):
        if tag in self._SKIP:
            if self._skip_depth:
                self._skip_depth -= 1
        else:
            self.chunks.append(" ")

    def handle_data(self, data):
        if not self._skip_depth:
            self.chunks.append(data)


def decode_text(raw: bytes) -> str:
    """Decode UTF-8 bytes, reporting the offending byte offset on failure."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"undecodable input: {exc.reason} at byte offset {exc.start}")


def clean_text(raw: str | bytes, kind: str) -> str:
    """Produce the analyzable text of a document.

    kind="plain": newline normalization only, so offsets are stable.
    kind="markup": tags and script/style blocks removed, character
    references decoded, whitespace runs collapsed to single spaces.
    Deterministic in both cases.
    """
    if isinstance(raw, bytes):
        raw = decode_text(raw)
    if kind == PLAIN:
        return raw.replace("\r\n", "\n").replace("\r", "\n")
    if kind == MARKUP:
        parser = _TextExtractor()
        parser.feed(raw)
        parser.close()
        return " ".join("".join(parser.chunks).split())
    raise InputError(f"unknown document kind {kind!r}, expected 'plain' or 'markup'")


@dataclass(frozen=True)
class Document:
    """One stored document: its identity and its cleaned text."""

    id: str
    source: str
    uri: str
    kind: str
    clean: str


@dataclass
class CorpusManifest:
    """An id-ordered document collection gathered for one entity class."""

    documents: list[Document] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.documents = sorted(self.documents, key=lambda d: d.id)
        seen_ids: set[str] = set()
        seen_uris: set[str] = set()
        for doc in self.documents:
            if doc.id in seen_ids:
                raise DataFormatError(f"duplicate document id {doc.id!r}")
            if doc.uri in seen_uris:
                raise DataFormatError(f"duplicate document uri {doc.uri!r}")
            seen_ids.add(doc.id)
            seen_uris.add(doc.uri)

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

    Raises InputError when the manifest file is missing, DataFormatError
    on duplicate uris, bad kinds, or missing document files.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise InputError(f"no {MANIFEST_NAME} in {directory}")
    docs = []
    for lineno, (doc_id, source, uri, kind, rel) in _manifest_rows(manifest_path):
        if kind not in (PLAIN, MARKUP):
            raise DataFormatError(f"{manifest_path}:{lineno}: unknown kind {kind!r}")
        doc_path = directory / rel
        if not doc_path.is_file():
            raise DataFormatError(f"{manifest_path}:{lineno}: missing document file {rel!r}")
        text = doc_path.read_text(encoding="utf-8")
        docs.append(Document(id=doc_id, source=source, uri=uri, kind=kind, clean=text))
    return CorpusManifest(documents=docs)


def _manifest_rows(path: Path):
    for lineno, fields in tsv.read_rows(path, _MANIFEST_HEADER):
        doc_id, source, uri, kind, rel = fields
        if not doc_id or not source or not uri or not rel:
            raise DataFormatError(f"{path}:{lineno}: empty required field")
        yield lineno, (doc_id, source, uri, kind, rel)
