import pytest

from contextner import tsv
from contextner.errors import DataFormatError

HDR = ["a", "b"]


def test_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    tsv.write_rows(path, HDR, [["1", "2"], ["x", "y"]])
    assert tsv.read_rows(path, HDR) == [(2, ["1", "2"]), (3, ["x", "y"])]


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
        tsv.read_rows(path, HDR)


def test_read_reports_line_number(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1\t2\nbroken\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"t\.tsv:3"):
        tsv.read_rows(path, HDR)


def test_read_tolerates_bom(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes("﻿a\tb\n1\t2\n".encode("utf-8"))
    assert tsv.read_rows(path, HDR) == [(2, ["1", "2"])]


def test_read_rejects_non_utf8(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\tb\n\xff\t2\n")
    with pytest.raises(DataFormatError, match="not valid UTF-8"):
        tsv.read_rows(path, HDR)
