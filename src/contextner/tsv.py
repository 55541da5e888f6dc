"""Strict, byte-deterministic TSV reading and writing, and the one
guard on what an entry of a corpus, model or fixture directory may be.

All on-disk tables in this package share one dialect: UTF-8, a required
header row, tab-separated columns, "\n" line endings, and no escaping
(text fields must not contain tabs or newlines). The writer prints an
int in decimal, a float with %.7g, and None, a missing value, as NA.
Every file the package reads or writes is opened here.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from stat import S_ISDIR, S_ISREG
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

from .errors import DataFormatError, InputError

_FORBIDDEN = ("\t", "\n", "\r")

T = TypeVar("T")
Field = str | int | float | None  # a field as write_rows takes it


def _text(field: Field) -> str:
    """A field as the dialect writes it (see the module docstring)."""
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
    """Replace the file `path` names whole with what `write` writes to it.

    `write` gets a UTF-8 text stream with "\n" line endings on a
    temporary file next to the file `path` names (a symbolic link's
    target, as a user's --output may be), which then takes its place in
    one rename, so a failed or interrupted run leaves the old file or
    none, never a half-written one. The temporary file is created
    exclusively: anything already at its name, such as a link, fails the
    write, is removed, and is never written through. A device or a pipe,
    such as /dev/null, is written directly: there is no file to replace.
    An OSError names `path` as given, never the temporary file, and one
    from writing to a device or a pipe, such as a BrokenPipeError once a
    pipe's reader has gone, names it too.
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


def check_inside(name: str) -> None:
    """Raise ValueError unless `name`, joined to a directory, names an
    entry inside it: it may be neither absolute nor hold a `..` part."""
    if name.startswith("/") or (".." in name and ".." in name.split("/")):
        raise ValueError(f"file {name!r} is outside its directory")


def _non_directory(path: str, top: int) -> Optional[str]:
    """The first part of `path` after offset `top` that ends in a '/'
    and is there but is not a directory (a link to one included), walked
    from the top with one os.lstat a part; None when there is none. A
    missing part ends the walk: nothing under it is there either."""
    end = path.find("/", top)
    while end >= 0:
        try:
            mode = os.lstat(path[:end]).st_mode
        except FileNotFoundError:
            return None
        if not S_ISDIR(mode):
            return path[top:end]
        end = path.find("/", end + 1)
    return None


def stored_file(directory: str | Path, name: str) -> str:
    """`directory` joined to `name`, an entry of a corpus, model or
    fixture directory: the one guard before such an entry is read,
    probed or written. The name must stay inside the directory (see
    check_inside); each directory part of it, walked from the top, must
    be a directory, never a link to one; and the entry must be a regular
    file, never a symbolic link, a FIFO or a directory. One os.lstat a
    part. Raises ValueError on a refusal, and os.lstat's OSError, such
    as a FileNotFoundError naming the entry when nothing is there."""
    check_inside(name)
    path = os.path.join(directory, name)
    part = _non_directory(path, len(path) - len(name))
    if part is not None:
        raise ValueError(f"file {name!r} is under {part!r}, which is not a directory")
    if not S_ISREG(os.lstat(path).st_mode):
        raise ValueError(f"file {name!r} is not a regular file")
    return path


def stored_entry(directory: str | Path, name: str) -> tuple[str, bool]:
    """stored_file's answer for an entry that may be absent, an index or
    an entry about to be written: its path, and whether a file is there.
    A refusal is a DataFormatError naming the directory."""
    try:
        return stored_file(directory, name), True
    except FileNotFoundError:
        return os.path.join(directory, name), False
    except ValueError as exc:
        raise DataFormatError(f"{directory}: {exc}") from None


def check_directory(directory: str | Path, name: str) -> None:
    """Refuse, before the work that makes them, the entries writable
    would refuse for lying under `name`, a directory of `directory`
    that the package names: `name`, or a part of it, is there but is
    not a directory (a link to one included). A refusal is a
    DataFormatError naming the directory. What is absent is fine, and
    nothing is made."""
    path = os.path.join(directory, name, "")
    part = _non_directory(path, len(path) - len(name) - 1)
    if part is not None:
        raise DataFormatError(f"{directory}: {part!r} is not a directory")


def writable(directory: str | Path, names: Iterable[str]) -> list[str]:
    """The paths to write the entries `names` of `directory` to. Every
    name is checked by stored_entry before any path is returned, so a
    caller that writes only to these refuses a bad entry before its first
    write; then each directory a name leads through is made, where it is
    not there yet."""
    paths = [stored_entry(directory, name)[0] for name in names]
    for parent in dict.fromkeys(map(os.path.dirname, paths)):
        os.makedirs(parent, exist_ok=True)
    return paths


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

    Returns parse(*fields) for each data row. A ValueError from parse is
    reported, like a wrong column count, as a DataFormatError naming the
    file and the 1-based line (the first data row is line 2).
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
    return out
