"""Every file the package reads or writes is opened here: strict,
byte-deterministic TSV in the one dialect of README "File formats", and
the one guard on what an entry of a corpus, model or fixture directory
may be."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from stat import S_ISDIR, S_ISREG
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import DataFormatError, InputError

_FORBIDDEN = ("\t", "\n", "\r")

T = TypeVar("T")
Field = str | int | float | None  # a field as write_rows takes it


def _text(field: Field) -> str:
    """A field as the dialect writes it: an int in decimal, a float with
    %.7g, and None, a missing value, as NA."""
    if isinstance(field, str):
        return field
    if isinstance(field, float):
        return f"{field:.7g}"
    return "NA" if field is None else f"{field:d}"


# The `%` conversion that writes a field of exactly this type as _text
# does. A row holding any other type (None, a bool, a subclass, whose
# __str__ or __format__ may differ) is written field by field by _text.
_CONVERSIONS = {str: "%s", int: "%d", float: "%.7g"}


def _row_format(types: tuple[type, ...]) -> str | None:
    """The one `%` format that writes a row of fields of these exact
    types as a line, or None where _text must write some field."""
    if not all(t in _CONVERSIONS for t in types):
        return None
    return "\t".join(_CONVERSIONS[t] for t in types) + "\n"


def _lines(header: list[str], rows: Iterable[Sequence[Field]]) -> Iterator[str]:
    """Header + rows as TSV lines, each ending in "\n", checking each row
    as it is reached: a wrong field count, or a text field holding a tab
    or a line break, raises DataFormatError."""
    yield "\t".join(header) + "\n"
    width, tabs = len(header), len(header) - 1
    formats: dict[tuple[type, ...], str | None] = {}
    for row in rows:
        if len(row) != width:
            raise DataFormatError(f"row has {len(row)} fields, header has {width}: {row!r}")
        # Built at its size: tuple(map(...)) shrinks a larger tuple, so each
        # row would leave one more tuple on the interpreter's free list.
        types = (*map(type, row),)
        try:
            fmt = formats[types]
        except KeyError:
            fmt = formats[types] = _row_format(types)
        line = fmt % tuple(row) if fmt else "\t".join(map(_text, row)) + "\n"
        # With the field count right, a line with exactly `tabs` tabs and
        # one line break has no forbidden character in any (text) field.
        if line.count("\t") != tabs or line.count("\n") != 1 or "\r" in line:
            for field in row:
                if isinstance(field, str) and any(ch in field for ch in _FORBIDDEN):
                    raise DataFormatError(f"field contains tab or newline: {field!r}")
        yield line


def _replace(path: str | Path, write: Callable[[TextIO], None]) -> None:
    """Replace the file `path` names (a symbolic link's target, as a
    user's --output may be) whole with what `write` writes to a UTF-8
    text stream with "\n" line endings, as README "File formats" says:
    through a temporary file beside it, or directly to a device or a
    pipe. An OSError, a BrokenPipeError from a pipe included, names
    `path` as given, never the temporary file.
    """
    given = path
    path = Path(path)
    if path.exists() and not path.is_file():
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as out:
                write(out)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(given)) from exc
        return
    path = path.resolve() if path.is_symlink() else path
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as out:
            write(out)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, str(given)) from exc
        raise


def write_text(path: str | Path | None, text: str) -> None:
    """Write text, UTF-8 with "\n" line endings: to standard output when
    `path` is None or empty, else replacing `path` whole (see _replace)."""
    if path:
        _replace(path, lambda out: out.write(text))
    else:
        sys.stdout.write(text)


class RefusedEntry(DataFormatError):
    """An entry stored_entry refuses. The message names the directory, as
    for an index or an entry about to be written; `reason` names only the
    entry, as read_rows reports it at the index line that lists it."""

    def __init__(self, directory: str | Path, reason: str) -> None:
        super().__init__(f"{directory}: {reason}")
        self.reason = reason


def check_inside(name: str) -> None:
    """Raise ValueError unless `name`, joined to a directory, names an
    entry inside it: it may be neither absolute nor hold a `..` part."""
    if name.startswith("/") or (".." in name and ".." in name.split("/")):
        raise ValueError(f"file {name!r} is outside its directory")


def stored_entry(directory: str | Path, name: str) -> tuple[str, bool]:
    """The one guard on an entry of a corpus, model or fixture directory,
    before it is read, probed or written: `directory` joined to `name`,
    and whether the entry is there. The name's parts are walked from the
    top, one os.lstat a part, and what README "File formats" rules out is
    refused with a RefusedEntry; a name ending in '/' names a directory.
    A missing part ends the walk: the entry is absent. A part that cannot
    be looked at, as under a regular file, is an InputError naming the
    path."""
    path = os.path.join(directory, name)
    top = len(path) - len(name)
    try:
        check_inside(name)
        end = path.find("/", top)
        while end >= 0:
            if not S_ISDIR(os.lstat(path[:end]).st_mode):
                part = f"{path[top:end]!r}"
                if name.endswith("/"):
                    raise ValueError(f"{part} is not a directory")
                raise ValueError(f"file {name!r} is under {part}, which is not a directory")
            end = path.find("/", end + 1)
        if not name.endswith("/") and not S_ISREG(os.lstat(path).st_mode):
            raise ValueError(f"file {name!r} is not a regular file")
    except FileNotFoundError:
        return path, False
    except ValueError as exc:
        raise RefusedEntry(directory, str(exc)) from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    return path, True


def table_text(header: list[str], rows: Iterable[Sequence[Field]]) -> str:
    """The text write_rows writes for header + rows, checked as it does:
    for a table that must be checked before other files are written, or
    that is written to more than one place, by write_text."""
    return "".join(_lines(header, rows))


def write_rows(path: str | Path | None, header: list[str], rows: Iterable[Sequence[Field]]) -> None:
    """The one TSV writer: header + rows to standard output when `path` is
    None or empty, else replacing `path` whole (see _replace). Each row is
    checked and written as it arrives, so `rows` may be a stream never held
    in memory; a bad row or an error from `rows` leaves the old file in
    place, while standard output keeps the rows before it."""
    lines = _lines(header, rows)
    if path:
        _replace(path, lambda out: out.writelines(lines))
    else:
        sys.stdout.writelines(lines)


def not_utf8(exc: UnicodeDecodeError, source: str | Path | None = None) -> DataFormatError:
    """The one report of text that is not UTF-8: the file, when there is
    one, and the offset of the first bad byte."""
    where = "" if source is None else f"{source}: "
    return DataFormatError(f"{where}not valid UTF-8 ({exc.reason} at byte {exc.start})")


def read_bytes(path: str | Path) -> bytes:
    """The bytes of a file. One that cannot be read (missing, a
    directory, unreadable) is an InputError naming it."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc


def decode(raw: bytes | str, source: str | Path | None = None) -> str:
    """Text as every reader reads it: bytes decoded as UTF-8, and "\r\n"
    and "\r" read as "\n". Bytes that are not UTF-8 are reported by
    not_utf8, naming `source` when there is one."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise not_utf8(exc, source)
    # One replacement at a time, so that at most two copies of the text
    # are held at once, as text mode holds the bytes and the text.
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n")
        raw = raw.replace("\r", "\n")
    return raw


def read_text(path: str | Path) -> str:
    """Read a UTF-8 file as decode reads it. One that cannot be read is
    reported by read_bytes."""
    return decode(read_bytes(path), path)


def read_rows(path: str | Path, header: list[str], parse: Callable[..., T]) -> list[T]:
    """Read a TSV file, checking the header and per-row column counts.

    Returns parse(*fields) for each data row. A ValueError from parse, or
    the reason of a RefusedEntry for an entry the row lists, is reported,
    like a wrong column count, as a DataFormatError naming the file and
    the 1-based line (the first data row is line 2).
    """
    path = Path(path)
    lines = read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected header {header!r}")
    first = lines[0].lstrip("﻿")
    if first.split("\t") != header:
        raise DataFormatError(
            f"{path}:1: bad header {first!r}, expected {chr(9).join(header)!r}"
        )
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        try:
            out.append(parse(*fields))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
        except RefusedEntry as exc:  # an entry the line lists
            raise DataFormatError(f"{path}:{lineno}: {exc.reason}") from exc
    return out
