import os
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from conftest import make_corpus, make_doc
from oracle import oracle_markup_text, oracle_split_markup_text
from contextner.acquire import clean_text
from contextner.corpus import CorpusManifest, load_corpus, normalize_source, save_corpus
from contextner.errors import DataFormatError, InputError


@pytest.mark.parametrize(
    "uri,expected",
    [
        ("http://www.lemonde.fr/page/123.html", "www.lemonde.fr"),
        ("https://News.Example.COM:8080/x?q=1", "news.example.com"),
        ("docs/paris_01.txt", "paris_01"),
        ("fixtures/Page.HTML", "page"),
        ("a/b/report.html.txt", "report"),
        ("file:///var/data/guide.txt", "guide"),
    ],
)
def test_normalize_source(uri, expected):
    assert normalize_source(uri) == expected


def test_normalize_source_is_idempotent():
    for uri in ["http://www.example.com/a.html", "docs/x.txt", "weird.name.here"]:
        once = normalize_source(uri)
        assert normalize_source(once) == once


def test_normalize_source_rejects_empty():
    with pytest.raises(DataFormatError):
        normalize_source("   ")
    with pytest.raises(DataFormatError):
        normalize_source("http:///nohost")


def test_clean_text_plain_only_normalizes_newlines():
    assert clean_text("a\r\nb\rc\n", "plain") == "a\nb\nc\n"


def test_clean_text_markup_strips_tags():
    html = "<html><head><script>var x=1;</script></head><body><p>Hotels in <b>Paris</b></p></body></html>"
    assert clean_text(html, "markup") == "Hotels in Paris"


def test_clean_text_markup_decodes_entities():
    assert clean_text("Bush &amp; Blair", "markup") == "Bush & Blair"


def test_clean_text_bad_kind():
    with pytest.raises(InputError):
        clean_text("x", "pdf")


def test_clean_text_bad_bytes():
    with pytest.raises(DataFormatError) as info:
        clean_text(b"a\xff", "plain")
    assert str(info.value) == "not valid UTF-8 (invalid start byte at byte 1)"


@given(st.text(max_size=200))
def test_clean_text_plain_is_idempotent(text):
    once = clean_text(text, "plain")
    assert clean_text(once, "plain") == once


@given(
    st.lists(
        st.sampled_from(
            ["<p>", "</p>", "<br/>", "<b>", "</b>", "hotel", "in", "Paris", " ", "\n"]
        ),
        max_size=40,
    )
)
def test_clean_text_markup_strips_well_formed_tags(pieces):
    cleaned = clean_text("".join(pieces), "markup")
    assert "<" not in cleaned and ">" not in cleaned
    assert "  " not in cleaned
    assert cleaned == cleaned.strip()


# Markup that `html.parser` reads one way on Python 3.10-3.13, in the
# first releases and in later patch releases alike (3.13.13 was checked),
# which read some markup anew. So: no `--!>` or `<!--->`, no space
# between a comment's `--` and `>`, no `</script` followed by a space, no
# `title` or `textarea` element holding `<`, and only space, tab and
# newline for whitespace.
MARKUP_PIECES = [
    "<p>", "</p>", "<b>", "</b>", "<div >", "</div >", "</span>",
    "<img src=a.png>", '<a href="x>y">', "<a href='q>r' title=t>", "<input disabled>",
    '<span class="s">', "<p\nclass=x>", "<td\tnowrap>", "<p id=b/c>",
    "<br/>", "<br />", "<script/>",
    "<!-- c -->", "<!-- <p> -->", "<!---->", "<!DOCTYPE html>", "<!doctype html>", "<?xml v?>",
    "<script>var a = '<p>';</script>", "<SCRIPT>x</SCRIPT>", '<script src="a">if (a<b) {}</script>',
    "<style>p{}</style>", "<Style type=t>a<b>c</STYLE>", "</script>", "</style>",
    "&amp;", "&amp", "&lt;", "&gt", "&#65;", "&#x41;", "&#65", "&eacute;", "&nbsp;", "&notit;",
    "&copy", "<", ">", "&", ";", "hotel", "in", "Paris", "é", " ", "\n", "\t",
]


# Each string ends in `</p>`, so a stray `<` before a word always opens a
# tag that closes: later patch releases of html.parser drop a tag left
# open at the end of the text, where earlier ones keep it as text.
@given(st.lists(st.sampled_from(MARKUP_PIECES), max_size=40).map("".join))
def test_clean_text_markup_matches_oracle(text):
    text += "</p>"
    assert clean_text(text, "markup") == " ".join(oracle_markup_text(text).split())


# Pieces of constructs that may never close, so that many a `<` is text
# and many a `>` or `--` comes after it, tags whose `>` sits in a quoted
# value, carriage returns, and private-use characters, which the text may
# hold.
UNCLOSED_PIECES = [
    "<", "<a ", "<b", "</", "</ a", "<!", "<!--", "<!-- ", "<!---->", "<!x", "<?",
    "<p>", "/>", "<script>", "<script ", "</script>", "<style>", "</STYLE >", ">", "-->", "--",
    "-- >", "-", "=", " =", '"', "'", '="', "= '", '= "', '<a x=">"', "<a x='>' ",
    "&amp", "&lt;", "x", " ", "\n", "\r", "\r\n", "\ue000", "\ue001",
]


@given(st.lists(st.sampled_from(UNCLOSED_PIECES), max_size=40).map("".join))
@example("<!----> <!-- >")  # the last comment ends 4 characters after it opens
def test_markup_matches_oracle_on_unclosed_constructs(text):
    assert clean_text(text, "markup") == " ".join(oracle_split_markup_text(text).split())


@pytest.mark.parametrize(
    "raw, text",
    [
        ("<a " * 10_000, "<a " * 9_999 + "<a"),
        ("<!--" * 7_500, "<!--" * 7_500),
        ("<a x" + " =" * 15_000 + ">", ""),
        ('<a x=">"' * 4_000, '<a x=">"' * 4_000),
        ("<a x='>' " * 3_600, ("<a x='>' " * 3_600).rstrip()),
    ],
    ids=["<a ", "<!--", " =", '<a x=">"', "<a x='>' "],
)
def test_unclosed_constructs_clean_in_linear_time(raw, text):
    # Each `<` once scanned on to the end of the text, and in a tag each
    # `=` of a run once re-read the rest of the run: 30 KB of these took
    # seconds, and four times as long for twice as many. In the last two,
    # every later `>` of each tag is inside a quoted value.
    start = time.perf_counter()
    assert clean_text(raw, "markup") == text
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("a <!-- x", "a <!-- x"),
        ("a <p", "a <p"),
        ("a<script>b<p>c", "a"),
        ("a</>b", "ab"),
        ("a</ p>b", "a b"),
        ('<a href="x>y">b', "b"),
        ("<![CDATA[a<b]]>c", "c"),
        ("&amp<!---->;", "&;"),
        ("a<![foo[ x ]]>b", "ab"),
        ("a <![ x", "a <![ x"),
        ('a <a x=">"', 'a <a x=">"'),
        ('<a x=">" b>c', "c"),
    ],
    ids=[
        "open comment", "open tag", "open script", "empty end tag", "end tag after space",
        "quoted >", "cdata", "runs unescaped apart", "marked section", "open marked section",
        "open tag with quoted >", "tag with quoted >",
    ],
)
def test_clean_text_markup_edge_cases(raw, expected):
    assert clean_text(raw, "markup") == expected


def saved_manifest(directory, *docs):
    save_corpus(CorpusManifest(docs), directory)
    return directory / "manifest.tsv"


def test_manifest_sorts_and_rejects_duplicates(tmp_path):
    a, b = make_doc("b", "x"), make_doc("a", "y")
    m = CorpusManifest([a, b])
    assert [d.id for d in m] == ["a", "b"]
    manifest = saved_manifest(tmp_path, make_doc("a", "x"), make_doc("b", "y"))
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("b\tb\t", "a\tb\t"),
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == f"{manifest}:3: duplicate document id 'a'"


def test_manifest_rejects_duplicate_uri(tmp_path):
    manifest = saved_manifest(tmp_path, make_doc("a", "x"), make_doc("b", "y"))
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("//b.example", "//a.example"),
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == (
        f"{manifest}:3: duplicate document uri 'http://a.example/page'"
    )


@pytest.mark.parametrize(
    "docs, fault",
    [
        ([make_doc("a", "x"), make_doc("a", "y")], "{manifest}:3: duplicate document id 'a'"),
        (
            [make_doc("a", "x"), make_doc("b", "y")._replace(uri="http://a.example/page")],
            "{manifest}:3: duplicate document uri 'http://a.example/page'",
        ),
        ([make_doc("a", "x")._replace(kind="parchment")], "{manifest}:2: unknown kind 'parchment'"),
        ([make_doc("a", "x", source="")], "{manifest}:2: empty required field"),
        ([make_doc("a", "x", source="a\tb")], "field contains tab or newline: 'a\\tb'"),
        (
            [make_doc("a", "x"), make_doc("../up", "y")],
            "{manifest}:2: document id '../up' holds a path separator",
        ),
        (
            [make_doc("a", "x"), make_doc("b/c", "y")],
            "{manifest}:3: document id 'b/c' holds a path separator",
        ),
        (
            [make_doc("b\\c", "y")],
            "{manifest}:2: document id 'b\\\\c' holds a path separator",
        ),
    ],
    ids=["id", "uri", "kind", "empty", "tab", "id-up", "id-slash", "id-backslash"],
)
def test_save_rejects_what_load_rejects_and_writes_nothing(tmp_path, docs, fault):
    directory = tmp_path / "corpus"
    with pytest.raises(DataFormatError) as info:
        save_corpus(CorpusManifest(docs), directory)
    assert str(info.value) == fault.format(manifest=directory / "manifest.tsv")
    assert not any(tmp_path.iterdir())  # nor anything beside the corpus directory


@pytest.mark.parametrize("doc_id", ["../up", "b/c", "b\\c"])
def test_load_rejects_an_id_holding_a_path_separator(tmp_path, doc_id):
    manifest = saved_manifest(tmp_path, make_doc("a", "x"), make_doc("b", "y"))
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("\nb\t", f"\n{doc_id}\t"),
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == f"{manifest}:3: document id {doc_id!r} holds a path separator"


@pytest.mark.parametrize(
    "rel",
    ["../outside.txt", "docs/../../outside.txt", "{outside}"],
    ids=["up", "down-up", "absolute"],
)
def test_load_rejects_a_file_outside_the_corpus(tmp_path, rel):
    outside = tmp_path / "outside.txt"
    outside.write_text("Hotels in Lima.", encoding="utf-8")
    manifest = saved_manifest(tmp_path / "corpus", make_doc("a", "x"))
    rel = rel.format(outside=outside)
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("docs/a.txt", rel), encoding="utf-8"
    )
    with pytest.raises(DataFormatError) as info:
        load_corpus(tmp_path / "corpus")
    assert str(info.value) == f"{manifest}:2: file {rel!r} is outside its directory"


def test_load_reads_crlf_files_as_before(tmp_path):
    manifest = saved_manifest(tmp_path, make_doc("a", "Hotels in Paris.\nMap of Rome.\n"))
    for path in (manifest, tmp_path / "docs" / "a.txt"):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    [doc] = load_corpus(tmp_path)
    assert doc == make_doc("a", "Hotels in Paris.\nMap of Rome.\n")


def test_save_load_round_trip(tmp_path):
    m = CorpusManifest([make_doc("d1", "Hotels in Paris.\n"), make_doc("d2", "Map of Tunis.")])
    save_corpus(m, tmp_path)
    loaded = load_corpus(tmp_path)
    assert [d.id for d in loaded] == ["d1", "d2"]
    assert [d.clean for d in loaded] == ["Hotels in Paris.\n", "Map of Tunis."]
    assert [d.uri for d in loaded] == [d.uri for d in m]


def test_load_missing_manifest(tmp_path):
    with pytest.raises(InputError, match="manifest.tsv"):
        load_corpus(tmp_path / "nowhere")


def test_load_missing_document_file(tmp_path):
    save_corpus(CorpusManifest([make_doc("d1", "text")]), tmp_path)
    (tmp_path / "docs" / "d1.txt").unlink()
    with pytest.raises(DataFormatError, match=r"manifest\.tsv:2"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("replace", [os.mkdir, os.mkfifo], ids=["directory", "fifo"])
def test_load_rejects_a_document_that_is_not_a_regular_file(tmp_path, replace):
    # A FIFO is rejected before it is opened, where reading it would block.
    save_corpus(CorpusManifest([make_doc("d1", "text")]), tmp_path)
    doc_path = tmp_path / "docs" / "d1.txt"
    doc_path.unlink()
    replace(doc_path)
    with pytest.raises(DataFormatError) as info:
        load_corpus(tmp_path)
    assert str(info.value) == (
        f"{tmp_path / 'manifest.tsv'}:2: file 'docs/d1.txt' is not a regular file"
    )


def test_load_rejects_unknown_kind(tmp_path):
    save_corpus(CorpusManifest([make_doc("d1", "text")]), tmp_path)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("plain", "parchment"),
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="parchment"):
        load_corpus(tmp_path)


def test_load_holds_no_document_text(tmp_path):
    texts = [f"Hotels in Paris {i}. " * 1000 for i in range(50)]  # about 20 KB each
    save_corpus(make_corpus(*texts), tmp_path)
    tracemalloc.start()
    try:
        corpus = load_corpus(tmp_path)
        held, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for doc, text in zip(corpus, texts):
            assert doc.clean == text
            del doc
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 50
    assert held < sum(map(len, texts)) / 10
    # Iterating reads one document at a time and keeps none of them.
    assert peak < 5 * len(texts[0])


def test_load_names_a_document_that_is_not_utf8(tmp_path):
    save_corpus(CorpusManifest([make_doc("d1", "text")]), tmp_path)
    (tmp_path / "docs" / "d1.txt").write_bytes(b"ab\xff")
    corpus = load_corpus(tmp_path)  # the text is read, and checked, when reached
    with pytest.raises(DataFormatError) as info:
        list(corpus)
    doc_path = tmp_path / "docs" / "d1.txt"
    assert str(info.value) == f"{doc_path}: not valid UTF-8 (invalid start byte at byte 2)"
