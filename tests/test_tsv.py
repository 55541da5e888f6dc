import os
import stat
import tempfile
import tracemalloc
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


def test_format_ends_with_newline():
    assert tsv.format_rows(HDR, []) == "a\tb\n"
    assert tsv.format_rows(HDR, [["1", "2"]]).endswith("2\n")


def test_rejects_tab_and_newline_in_fields():
    with pytest.raises(DataFormatError):
        tsv.format_rows(HDR, [["x\ty", "z"]])
    with pytest.raises(DataFormatError):
        tsv.format_rows(HDR, [["x", "y\nz"]])
    with pytest.raises(DataFormatError, match="tab or newline"):
        tsv.format_rows(HDR, [["x\ry", "z"]])


def test_rejects_wrong_arity():
    with pytest.raises(DataFormatError):
        tsv.format_rows(HDR, [["only one"]])


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


# Fields drawn mostly from plain text, with now and then a tab or line break.
_field = st.text(alphabet=st.sampled_from("ab é\t\n\r"), max_size=6)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda width: st.tuples(
            st.lists(st.text(alphabet="hx", min_size=1, max_size=3), min_size=width, max_size=width),
            st.lists(st.lists(_field, min_size=width - 1, max_size=width + 1), max_size=6),
        )
    )
)
def test_write_rows_streams_the_bytes_of_format_rows(header_rows):
    header, rows = header_rows
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "t.tsv"
        try:
            expected = tsv.format_rows(header, rows)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as info:
                tsv.write_rows(path, header, iter(rows))
            assert str(info.value) == str(exc)
            assert list(Path(scratch).iterdir()) == []
        else:
            tsv.write_rows(path, header, iter(rows))
            assert path.read_bytes() == expected.encode("utf-8")


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
