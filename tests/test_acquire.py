import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from contextner import cli
from contextner.acquire import (
    AcquireResult,
    AcquisitionError,
    ClientError,
    FetchFailure,
    FixtureClient,
    SearchClient,
    acquire,
    build_queries,
)
from contextner.corpus import load_corpus
from contextner.errors import DataFormatError, InputError
from contextner.seeds import LearningExample


def write_fixture(directory, rows, files):
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["query\turi\tfile"] + ["\t".join(r) for r in rows]
    (directory / "queries.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, content in files.items():
        (directory / name).write_bytes(content)


@pytest.fixture
def fixture_dir(tmp_path):
    root = tmp_path / "fix"
    write_fixture(
        root,
        [
            ["Paris", "http://a.example/p1", "p1.txt"],
            ["Paris", "http://b.example/p2", "p2.html"],
            ["Tunis", "http://c.example/t1", "t1.txt"],
        ],
        {
            "p1.txt": b"Hotels in Paris are nice.",
            "p2.html": b"<html><body>Map of <b>Paris</b></body></html>",
            "t1.txt": b"Travel to Tunis today.",
        },
    )
    return root


def queries_for(*surfaces):
    return build_queries([LearningExample(s, "capital") for s in surfaces])


def test_build_queries_appends_suffix():
    assert queries_for("Paris") == ["Paris"]
    examples = [LearningExample("Paris", "capital")]
    assert build_queries(examples, suffix="hotel") == ["Paris hotel"]


def test_build_queries_one_per_distinct_surface():
    examples = [
        LearningExample("Paris", "capital"),
        LearningExample("Tunis", "capital"),
        LearningExample("Paris", "capital"),
    ]
    assert build_queries(examples) == ["Paris", "Tunis"]
    assert build_queries([LearningExample(f"C{i}", "x") for i in range(13)]) != []
    assert len(build_queries([LearningExample(f"C{i}", "x") for i in range(13)])) == 13
    with pytest.raises(InputError):
        build_queries([])


def test_fixture_client_search_keeps_file_order(fixture_dir):
    client = FixtureClient(fixture_dir)
    assert client.search("Paris") == ["http://a.example/p1", "http://b.example/p2"]
    assert client.search("Nowhere") == []


def test_fixture_client_fetch_kinds(fixture_dir):
    client = FixtureClient(fixture_dir)
    raw, kind = client.fetch("http://a.example/p1")
    assert kind == "plain" and raw.startswith(b"Hotels")
    _, kind = client.fetch("http://b.example/p2")
    assert kind == "markup"
    with pytest.raises(ClientError):
        client.fetch("http://nowhere.example/")


def test_fixture_client_rejects_conflicting_uri(tmp_path):
    write_fixture(
        tmp_path / "bad",
        [
            ["Paris", "http://a.example/p", "one.txt"],
            ["Tunis", "http://a.example/p", "two.txt"],
        ],
        {"one.txt": b"x", "two.txt": b"y"},
    )
    with pytest.raises(DataFormatError, match=r"queries\.tsv:3: .*conflicting"):
        FixtureClient(tmp_path / "bad")


def test_fixture_client_accepts_one_file_written_two_ways(tmp_path):
    write_fixture(
        tmp_path,
        [
            ["Paris", "http://a.example/p", "p.txt"],
            ["Tunis", "http://a.example/p", "./p.txt"],
        ],
        {"p.txt": b"Hotels in Paris."},
    )
    client = FixtureClient(tmp_path)
    assert client.search("Tunis") == ["http://a.example/p"]
    assert client.fetch("http://a.example/p") == (b"Hotels in Paris.", "plain")


@pytest.mark.parametrize("file_name", ["../outside.txt", "{outside}"], ids=["up", "absolute"])
def test_fixture_client_rejects_a_file_outside_its_directory(tmp_path, file_name):
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"Hotels in Paris.")
    file_name = file_name.format(outside=outside)
    write_fixture(
        tmp_path / "fix",
        [
            ["Paris", "http://a.example/p", "p.txt"],
            ["Paris", "http://b.example/o", file_name],
        ],
        {"p.txt": b"x"},
    )
    with pytest.raises(DataFormatError) as info:
        FixtureClient(tmp_path / "fix")
    assert str(info.value) == (
        f"{tmp_path / 'fix' / 'queries.tsv'}:3: file {file_name!r} is outside its directory"
    )


def test_fixture_client_reports_empty_field_line(tmp_path):
    write_fixture(
        tmp_path,
        [["Paris", "http://a.example/p", "p.txt"], ["Tunis", "", "t.txt"]],
        {"p.txt": b"x"},
    )
    with pytest.raises(DataFormatError, match=r"queries\.tsv:3: empty field"):
        FixtureClient(tmp_path)


def test_fixture_client_requires_index(tmp_path):
    with pytest.raises(InputError, match="queries.tsv"):
        FixtureClient(tmp_path / "empty")


def test_acquire_builds_documents(fixture_dir):
    result = acquire(FixtureClient(fixture_dir), queries_for("Paris", "Tunis"))
    assert isinstance(result, AcquireResult)
    assert len(result.manifest) == 3
    assert result.failures == ()
    by_uri = {d.uri: d for d in result.manifest}
    assert by_uri["http://b.example/p2"].clean == "Map of Paris"
    assert by_uri["http://b.example/p2"].kind == "markup"
    assert by_uri["http://a.example/p1"].source == "a.example"


def test_acquire_is_idempotent(fixture_dir):
    client = FixtureClient(fixture_dir)
    queries = queries_for("Paris", "Tunis")
    first = acquire(client, queries)
    second = acquire(client, queries, existing=first.manifest)
    assert len(second.manifest) == len(first.manifest)
    assert [d.id for d in second.manifest] == [d.id for d in first.manifest]
    assert [d.clean for d in second.manifest] == [d.clean for d in first.manifest]


def test_acquire_records_dead_links(tmp_path, capsys):
    root = tmp_path / "fix"
    write_fixture(
        root,
        [
            ["Paris", "http://a.example/p1", "p1.txt"],
            ["Paris", "http://gone.example/x", "missing.txt"],
            ["Tunis", "http://c.example/t1", "t1.txt"],
        ],
        {"p1.txt": b"Hotels in Paris.", "t1.txt": b"Travel to Tunis."},
    )
    result = acquire(FixtureClient(root), queries_for("Paris", "Tunis"))
    assert len(result.manifest) == 2
    [failure] = result.failures
    assert (failure.uri, failure.stage) == ("http://gone.example/x", "fetch")
    assert failure.error.startswith(f"cannot read {root / 'missing.txt'}: ")
    examples = tmp_path / "examples.tsv"
    examples.write_text("surface\tclass\nParis\tcapital\nTunis\tcapital\n", encoding="utf-8")
    argv = ["acquire", str(examples), str(tmp_path / "corpus"), "--fixtures", str(root)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (
        f"fetch failed for http://gone.example/x: {failure.error}\n1 fetches failed\n"
    )


@pytest.mark.parametrize("make", ["fifo", "link"])
def test_a_fixture_page_that_is_not_a_regular_file_is_a_fetch_failure(tmp_path, make):
    # Run as a child under a timeout: opening a FIFO for reading would
    # block until a writer comes, so a regression fails instead of stalling.
    root = tmp_path / "fix"
    write_fixture(
        root,
        [
            ["Paris", "http://a.example/p1", "p1.txt"],
            ["Paris", "http://b.example/x", "x.html"],
        ],
        {"p1.txt": b"Hotels in Paris."},
    )
    if make == "fifo":
        os.mkfifo(root / "x.html")
    else:
        (tmp_path / "outside.html").write_bytes(b"Map of Paris.")
        (root / "x.html").symlink_to(tmp_path / "outside.html")
    examples = tmp_path / "examples.tsv"
    examples.write_text("surface\tclass\nParis\tcapital\n", encoding="utf-8")
    corpus_dir = tmp_path / "corpus"
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "contextner", "acquire", str(examples), str(corpus_dir),
         "--fixtures", str(root)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (
        0,
        "fetch failed for http://b.example/x: file 'x.html' is not a regular file\n"
        "1 fetches failed\n",
    )
    assert [doc.uri for doc in load_corpus(corpus_dir)] == ["http://a.example/p1"]


def test_fixture_client_checks_each_file_name_once(tmp_path, monkeypatch):
    checked = []
    monkeypatch.setattr("contextner.acquire.check_inside", checked.append)
    write_fixture(
        tmp_path,
        [
            ["Paris", "http://a.example/p", "p.txt"],
            ["Paris", "http://b.example/p", "p.txt"],
            ["Tunis", "http://a.example/p", "p.txt"],
            ["Tunis", "http://c.example/t", "t.txt"],
            ["Rome", "http://c.example/t", "t.txt"],
        ],
        {"p.txt": b"x", "t.txt": b"y"},
    )
    FixtureClient(tmp_path)
    assert checked == ["p.txt", "t.txt"]


@pytest.mark.parametrize(
    "failure, message",
    [
        (FetchFailure("Paris", "search", "down"), "search failed for 'Paris': down"),
        (FetchFailure("http://x/", "fetch", "gone"), "fetch failed for http://x/: gone"),
        (FetchFailure("http://x/", "clean", "bad"), "discarding http://x/: bad"),
    ],
    ids=["search", "fetch", "clean"],
)
def test_fetch_failure_message(failure, message):
    assert failure.message() == message


class DownClient(SearchClient):
    def search(self, query):
        raise ClientError("backend unreachable")

    def fetch(self, uri):
        raise ClientError("backend unreachable")


def test_acquire_total_search_failure():
    with pytest.raises(AcquisitionError, match="all 2"):
        acquire(DownClient(), queries_for("Paris", "Tunis"))


def test_acquire_deduplicates_across_queries(tmp_path):
    root = tmp_path / "fix"
    write_fixture(
        root,
        [
            ["Paris", "http://shared.example/page", "s.txt"],
            ["Tunis", "http://shared.example/page", "s.txt"],
        ],
        {"s.txt": b"Paris and Tunis."},
    )
    result = acquire(FixtureClient(root), queries_for("Paris", "Tunis"))
    assert len(result.manifest) == 1


def test_acquire_narrower_queries_keep_existing(fixture_dir):
    """Document count never decreases across an acquire call."""
    client = FixtureClient(fixture_dir)
    full = acquire(client, queries_for("Paris", "Tunis")).manifest
    after = acquire(client, queries_for("Paris"), existing=full).manifest
    assert len(after) == len(full)


class ListClient(SearchClient):
    """Serves fixed result lists and records every fetched URI."""

    def __init__(self, results):
        self.results = results
        self.fetched = []

    def search(self, query):
        return self.results.get(query, [])

    def fetch(self, uri):
        self.fetched.append(uri)
        return uri.encode("utf-8"), "plain"


def test_acquire_keeps_first_max_results_in_result_order():
    links = ["http://z.example/", "http://a.example/", "http://m.example/"]
    client = ListClient({"Paris": links})
    result = acquire(client, ["Paris", "Nowhere"], max_results=2)
    assert client.fetched == links[:2]
    assert sorted(d.uri for d in result.manifest) == sorted(links[:2])
    with pytest.raises(ValueError, match="max_results"):
        acquire(client, ["Paris"], max_results=0)


class BrokenClient(ListClient):
    """Raises an error that is not a ClientError on one URI's fetch."""

    def __init__(self, results, broken):
        super().__init__(results)
        self.broken = broken

    def fetch(self, uri):
        payload = super().fetch(uri)
        if uri == self.broken:
            raise RuntimeError(f"client bug on {uri}")
        return payload


def test_acquire_stops_at_a_client_bug_before_the_next_fetch():
    links = ["http://a.example/", "http://b.example/", "http://c.example/"]
    client = BrokenClient({"Paris": links}, broken=links[1])
    with pytest.raises(RuntimeError, match="client bug"):
        acquire(client, ["Paris"])
    assert client.fetched == links[:2]


class OnePageClient(SearchClient):
    """Finds one page, at `uri`, for every query."""

    def __init__(self, uri):
        self.uri = uri

    def search(self, query):
        return [self.uri]

    def fetch(self, uri):
        return b"Hotels in Paris.", "plain"


@given(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20).map(
        lambda path: f"http://a.example/{path}"
    )
)
def test_document_id_is_the_sha1_prefix_of_its_uri(uri):
    [doc] = acquire(OnePageClient(uri), ["Paris"]).manifest
    assert doc.id == hashlib.sha1(uri.encode("utf-8")).hexdigest()[:12]


def test_document_ids_fall_back_to_hashlib_without_sha1():
    # A build without the built-in `_sha1` module hashes through hashlib,
    # with the same ids.
    probe = (
        "import sys; sys.modules['_sha1'] = None\n"
        "import hashlib\n"
        "from contextner import acquire\n"
        "assert acquire.sha1 is hashlib.sha1\n"
        "print(acquire._doc_id('http://a.example/Café'))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    uri = "http://a.example/Café"
    assert result.stdout == hashlib.sha1(uri.encode("utf-8")).hexdigest()[:12] + "\n"
