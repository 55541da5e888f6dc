import contextlib
import io
import os
import stat
import tempfile
import tracemalloc
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from contextner import tsv
from contextner.errors import DataFormatError

HDR = ["a", "b"]


def fields(*row):
    return list(row)


def test_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, HDR, [["1", "2"], ["x", "y"]])
    assert tsv.read_rows(path, HDR, fields) == [["1", "2"], ["x", "y"]]


def test_format_ends_with_newline(tmp_path):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, HDR, [])
    assert path.read_bytes() == b"a\tb\n"
    tsv.write_rows(path, HDR, [["1", "2"]])
    assert path.read_bytes().endswith(b"2\n")


def test_rejects_tab_and_newline_in_fields(tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(DataFormatError):
        tsv.write_rows(path, HDR, [["x\ty", "z"]])
    with pytest.raises(DataFormatError):
        tsv.write_rows(path, HDR, [["x", "y\nz"]])
    with pytest.raises(DataFormatError, match="tab or newline"):
        tsv.write_rows(path, HDR, [["x\ry", "z"]])
    assert not path.exists()


def test_rejects_wrong_arity(tmp_path):
    with pytest.raises(DataFormatError):
        tsv.write_rows(tmp_path / "t.tsv", HDR, [["only one"]])


def test_read_checks_header(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("wrong\theader\n1\t2\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad header"):
        tsv.read_rows(path, HDR, fields)


def test_read_reports_line_number(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1\t2\nbroken\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"t\.tsv:3"):
        tsv.read_rows(path, HDR, fields)


def test_read_reports_parse_error_with_line_number(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1\t2\nx\t2\n", encoding="utf-8")

    def numbers(a, b):
        return int(a), int(b)

    with pytest.raises(DataFormatError) as info:
        tsv.read_rows(path, HDR, numbers)
    assert str(info.value) == f"{path}:3: invalid literal for int() with base 10: 'x'"


def test_read_tolerates_bom(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("﻿a\tb\n1\t2\n".encode("utf-8"))
    assert tsv.read_rows(path, HDR, fields) == [["1", "2"]]


def test_read_rejects_non_utf8(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\tb\n\xff\t2\n")
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        tsv.read_rows(path, HDR, fields)


def test_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, HDR, [["old", "row"]])
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(tsv.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        tsv.write_rows(path, HDR, [["new", "row"]])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]


def test_write_text_goes_through_a_pipe(tmp_path):
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        tsv.write_text(fifo, "a\tb\n")
        assert os.read(reader, 100) == b"a\tb\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_write_text_replaces_a_linked_file_not_the_link(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    tsv.write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == "new\n"


class Tagged(str):
    """Text whose str() is not its text: a field is written as its text."""

    def __str__(self):
        return "<tagged>"


class Level(IntEnum):
    LOW = 1
    HIGH = 12


# Fields drawn from text (mostly plain, now and then with a tab or line
# break), ints, floats (non-finite ones included) and None, and from
# values of other types that the writer takes as text or ints: bools,
# a str subclass and an IntEnum.
_text_field = st.text(alphabet=st.sampled_from("ab é\t\n\r"), max_size=6)
_field = st.one_of(
    _text_field,
    st.integers(),
    st.floats(),
    st.none(),
    st.booleans(),
    _text_field.map(Tagged),
    st.sampled_from(Level),
)


def as_written(field):
    """A field as the dialect writes it."""
    if field is None:
        return "NA"
    if isinstance(field, float):
        return "%.7g" % field
    if isinstance(field, int):
        return "%d" % field
    return field


def expected_tsv(header, rows):
    """The text write_rows writes for header + rows, up to the first bad
    row, and the message of the error that row raises (None if none)."""
    lines = ["\t".join(header) + "\n"]
    for row in rows:
        if len(row) != len(header):
            return "".join(lines), f"row has {len(row)} fields, header has {len(header)}: {row!r}"
        for field in row:
            if isinstance(field, str) and any(ch in field for ch in "\t\n\r"):
                return "".join(lines), f"field contains tab or newline: {field!r}"
        lines.append("\t".join(map(as_written, row)) + "\n")
    return "".join(lines), None


# Byte pieces that mix the line endings, a BOM, valid UTF-8 and
# invalid UTF-8 (a stray byte, cut sequences, an encoded surrogate).
_piece = st.one_of(
    st.sampled_from(
        [b"a", b"\xc3\xa9", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\xff",
         b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]
    ),
    st.binary(max_size=3),
)


@given(st.lists(_piece, max_size=12).map(b"".join))
def test_read_text_reads_what_text_mode_reads(data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.txt"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as file:
                expected = file.read()
        except UnicodeDecodeError as exc:
            with pytest.raises(DataFormatError) as info:
                tsv.read_text(path)
            assert str(info.value) == str(tsv.not_utf8(exc, path))
        else:
            assert tsv.read_text(path) == expected


@pytest.mark.parametrize(
    "value, text",
    [(12345678, "12345678"), (12345678.0, "1.234568e+07"), (0.5, "0.5"), (1.0, "1"),
     (float("nan"), "nan"), (float("-inf"), "-inf"), (None, "NA"), ("x", "x")],
)
def test_write_rows_formats_values(tmp_path, value, text):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, ["v"], [(value,)])
    assert path.read_text(encoding="utf-8") == f"v\n{text}\n"


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda width: st.tuples(
            st.lists(st.text(alphabet="hx", min_size=1, max_size=3), min_size=width, max_size=width),
            st.lists(st.lists(_field, min_size=width - 1, max_size=width + 1), max_size=6),
        )
    )
)
def test_write_rows_gives_a_file_and_stdout_the_same_bytes(header_rows):
    header, rows = header_rows
    text, error = expected_tsv(header, rows)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.tsv"
        for output in (str(path), None, ""):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                if error is None:
                    tsv.write_rows(output, header, iter(rows))
                else:
                    with pytest.raises(DataFormatError) as info:
                        tsv.write_rows(output, header, iter(rows))
                    assert str(info.value) == error
            if not output:
                # Standard output keeps the rows before a bad one.
                assert stdout.getvalue() == text
            else:
                assert stdout.getvalue() == ""
                if error is None:
                    assert path.read_bytes() == text.encode("utf-8")
                else:
                    assert list(Path(scratch).iterdir()) == []


@pytest.mark.parametrize("k", [0, 1, 3])
def test_failed_row_stream_keeps_old_file(tmp_path, k):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, HDR, [["old", "row"]])
    before = path.read_bytes()

    def rows():
        for i in range(k):
            yield ["new", str(i)]
        raise RuntimeError("stream broke")

    with pytest.raises(RuntimeError, match="stream broke"):
        tsv.write_rows(path, HDR, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]


def test_write_rows_holds_one_row_at_a_time(tmp_path):
    path = tmp_path / "t.tsv"
    n = 100_000
    rows = (["x" * 100, str(i)] for i in range(n))
    tracemalloc.start()
    try:
        tsv.write_rows(path, HDR, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 10_000_000
    assert peak < 1_000_000
