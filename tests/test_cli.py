import errno
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_corpus
from contextner import cli, tsv
from contextner.corpus import load_corpus, save_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment for a `python -m contextner` child of this test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def write_examples(path, *rows):
    lines = ["surface\tclass"] + ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_fixture(directory, queries, files):
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["query\turi\tfile"] + ["\t".join(q) for q in queries]
    (directory / "queries.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")
    return str(directory)


@pytest.fixture
def capital_examples(tmp_path):
    return write_examples(
        tmp_path / "examples.tsv", ("Paris", "capital"), ("Berlin", "capital")
    )


@pytest.fixture
def fixture_dir(tmp_path):
    return write_fixture(
        tmp_path / "fixtures",
        [
            ("Paris", "http://a.example/p1", "p1.txt"),
            ("Paris", "http://a.example/p2", "p2.html"),
            ("Berlin", "http://b.example/b1", "b1.txt"),
        ],
        {
            "p1.txt": "Hotels in Paris. Map of Paris here.",
            "p2.html": "<html><body>Map of <b>Paris</b></body></html>",
            "b1.txt": "Hotels in Berlin today.",
        },
    )


def saved_corpus(tmp_path, name, *texts):
    directory = tmp_path / name
    save_corpus(make_corpus(*texts), directory)
    return str(directory)


# -- acquire -----------------------------------------------------------------

def test_acquire_builds_corpus(tmp_path, capsys, capital_examples, fixture_dir):
    corpus_dir = tmp_path / "corpus"
    code = cli.main(
        ["acquire", capital_examples, str(corpus_dir), "--fixtures", fixture_dir]
    )
    assert code == 0
    assert "3 new documents, 3 documents total" in capsys.readouterr().out
    assert (corpus_dir / "manifest.tsv").is_file()
    assert len(list((corpus_dir / "docs").iterdir())) == 3


def test_acquire_is_idempotent(tmp_path, capsys, capital_examples, fixture_dir):
    corpus_dir = str(tmp_path / "corpus")
    cli.main(["acquire", capital_examples, corpus_dir, "--fixtures", fixture_dir])
    capsys.readouterr()
    code = cli.main(
        ["acquire", capital_examples, corpus_dir, "--fixtures", fixture_dir]
    )
    assert code == 0
    assert "0 new documents, 3 documents total" in capsys.readouterr().out


def test_acquire_reports_failed_fetches(tmp_path, capsys, capital_examples):
    fixtures = write_fixture(
        tmp_path / "fixtures",
        [
            ("Paris", "http://a.example/p1", "p1.txt"),
            ("Berlin", "http://gone.example/x", "missing.txt"),
        ],
        {"p1.txt": "Hotels in Paris."},
    )
    code = cli.main(
        ["acquire", capital_examples, str(tmp_path / "corpus"), "--fixtures", fixtures]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "1 new documents" in captured.out
    assert "1 fetches failed" in captured.err


def test_acquire_reads_pages_with_marked_sections(tmp_path, capsys, capital_examples):
    fixtures = write_fixture(
        tmp_path / "fixtures",
        [
            ("Paris", "http://a.example/p1", "p1.html"),
            ("Berlin", "http://b.example/b1", "b1.html"),
        ],
        {
            "p1.html": "<p>Hotels in Paris.</p><![foo[ x ]]><p>Map of Paris.</p>",
            "b1.html": "<p>Hotels in Berlin.</p> <![ x",
        },
    )
    corpus_dir = tmp_path / "corpus"
    code = cli.main(
        ["acquire", capital_examples, str(corpus_dir), "--fixtures", fixtures]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert sorted(doc.clean for doc in load_corpus(corpus_dir)) == [
        "Hotels in Berlin. <![ x",
        "Hotels in Paris. Map of Paris.",
    ]


def test_acquire_accepts_and_ignores_workers(
    tmp_path, capsys, capital_examples, fixture_dir
):
    def run(name, *flags):
        corpus_dir = tmp_path / name
        argv = ["acquire", capital_examples, str(corpus_dir), "--fixtures", fixture_dir]
        assert cli.main(argv + list(flags)) == 0
        files = {
            path.relative_to(corpus_dir): path.read_bytes()
            for path in sorted(corpus_dir.rglob("*"))
            if path.is_file()
        }
        return files, capsys.readouterr()

    plain, plain_output = run("plain")
    assert plain
    assert run("workers", "--workers", "3") == (plain, plain_output)
    args = ["acquire", capital_examples, str(tmp_path / "zero"), "--fixtures", fixture_dir]
    assert cli.main(args + ["--workers", "0"]) == 2
    assert "error: argument --workers: must be a positive integer, got '0'\n" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "zero").exists()
    assert cli.main(["acquire", "--help"]) == 0
    assert "--workers" not in capsys.readouterr().out


def test_acquire_missing_examples_file(tmp_path, capsys, fixture_dir):
    code = cli.main(
        [
            "acquire",
            str(tmp_path / "missing.tsv"),
            str(tmp_path / "corpus"),
            "--fixtures",
            fixture_dir,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {tmp_path / 'missing.tsv'}: No such file or directory\n"


# -- weigh -------------------------------------------------------------------

def test_weigh_prints_table_and_summary(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in tents.")
    examples = write_examples(tmp_path / "one.tsv", ("Paris", "capital"))
    code = cli.main(["weigh", examples, corpus_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "context\tcf\tdf\tlef\ticf\tw\nHotels in\t1\t1\t1\t1\t1\n"
    assert "1 contexts, 1 occurrences" in captured.err


def test_weigh_output_is_byte_deterministic(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(
        tmp_path,
        "corpus",
        "Hotels in Paris. Map of Berlin and Map of pages.",
        "Travel to Paris! Hotels in Berlin.",
    )
    first, second = tmp_path / "t1.tsv", tmp_path / "t2.tsv"
    assert cli.main(["weigh", capital_examples, corpus_dir, "--output", str(first)]) == 0
    assert cli.main(["weigh", capital_examples, corpus_dir, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_weigh_min_count_can_empty_the_table(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    code = cli.main(
        ["weigh", capital_examples, corpus_dir, "--min-count", "99"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err


def test_weigh_writes_model_dir(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in tents.")
    model_dir = tmp_path / "model"
    code = cli.main(
        [
            "weigh",
            capital_examples,
            corpus_dir,
            "--model-dir",
            str(model_dir),
            "--threshold",
            "0.5",
        ]
    )
    assert code == 0
    assert (model_dir / "model.tsv").is_file()
    assert (model_dir / "table_capital.tsv").is_file()
    body = (model_dir / "model.tsv").read_text(encoding="utf-8")
    assert "capital\ttable_capital.tsv\t0.5\t0" in body


def index_files(model_dir):
    """The table files model.tsv names."""
    rows = (model_dir / "model.tsv").read_text(encoding="utf-8").splitlines()[1:]
    return {row.split("\t")[1] for row in rows}


def test_a_failed_model_update_leaves_the_old_model_whole(tmp_path, capsys, monkeypatch):
    # model.tsv is the one commit: a table is written under a name the
    # index does not use, and the one it replaced is deleted after.
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in Rome. Map of Oslo.")
    model_dir = tmp_path / "model"
    for examples in (("Paris", "capital"), ("Oslo", "city")):
        path = write_examples(tmp_path / f"{examples[1]}.tsv", examples)
        assert cli.main(["weigh", path, corpus_dir, "--model-dir", str(model_dir)]) == 0
    before = snapshot(model_dir)
    write_rows = tsv.write_rows

    def fail_at_index(path, header, rows):
        if path and Path(path).name == "model.tsv":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        write_rows(path, header, rows)

    again = write_examples(tmp_path / "again.tsv", ("Paris", "capital"), ("Rome", "capital"))
    args = ["weigh", again, corpus_dir, "--model-dir", str(model_dir), "--threshold", "0.5"]
    monkeypatch.setattr(tsv, "write_rows", fail_at_index)
    assert cli.main(args) == 2
    after = snapshot(model_dir)
    assert {path: after[path] for path in before} == before
    added = {path.name for path in set(after) - set(before)}
    assert len(added) == 1 and not added & index_files(model_dir)

    monkeypatch.undo()
    for table in ("table_capital+.tsv", "table_capital.tsv"):
        capsys.readouterr()
        assert cli.main(args) == 0
        names = index_files(model_dir)
        assert names == {table, "table_city.tsv"}
        assert {path.name for path in model_dir.iterdir()} == {"model.tsv", *names}
        assert "capital\t" + table + "\t0.5\t0\n" in (model_dir / "model.tsv").read_text(
            encoding="utf-8"
        )


def test_weigh_rejects_duplicate_class_in_model_index(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in tents.")
    model_dir = tmp_path / "model"
    args = ["weigh", capital_examples, corpus_dir, "--model-dir", str(model_dir)]
    assert cli.main(args) == 0
    index = model_dir / "model.tsv"
    body = index.read_text(encoding="utf-8")
    index.write_text(body + body.splitlines()[1] + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(args) == 4
    assert "model.tsv:3" in capsys.readouterr().err


def test_weigh_checks_model_index_before_writing_a_table(
    tmp_path, capsys, capital_examples
):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in tents.")
    model_dir = tmp_path / "model"
    args = ["weigh", capital_examples, corpus_dir, "--model-dir", str(model_dir)]
    assert cli.main(args) == 0
    index = model_dir / "model.tsv"
    body = index.read_text(encoding="utf-8")
    index.write_text(body + body.splitlines()[1] + "\n", encoding="utf-8")
    table = model_dir / "table_capital.tsv"
    table.unlink()
    output = tmp_path / "t1.tsv"
    capsys.readouterr()
    assert cli.main(args + ["--output", str(output)]) == 4
    assert cli.main(args) == 4
    assert capsys.readouterr().out == ""
    assert not output.exists()
    assert not table.exists()


def snapshot(directory):
    """Every path under `directory`, with each file's bytes."""
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in sorted(Path(directory).rglob("*"))
    }


@pytest.mark.parametrize(
    "label, message",
    [
        # The label of undecided spans, which recognize refuses as a class.
        ("unknown", "invalid class label 'unknown'"),
        # Labels outside [A-Za-z0-9_.-] name no table file; '+' marks the
        # second name of a class's table.
        *(
            (label, f"class label {label!r} is not usable as a file name"
             " (letters, digits, '_', '-', '.' only)")
            for label in ("cap ital", "a+b")
        ),
    ],
    ids=["unknown", "space", "plus"],
)
def test_weigh_rejects_a_bad_class_label_before_writing(
    tmp_path, capsys, trained_model_dir, label, message
):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    examples = write_examples(tmp_path / "bad.tsv", ("Quito", label))
    before = snapshot(trained_model_dir)
    output = tmp_path / "t.tsv"
    args = ["weigh", examples, corpus_dir, "--model-dir", trained_model_dir]
    assert cli.main(args + ["--output", str(output)]) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert snapshot(trained_model_dir) == before
    assert not output.exists()
    assert cli.main(["recognize", trained_model_dir, corpus_dir]) == 0


def test_weigh_reads_a_model_index_that_is_not_a_file_before_writing(
    tmp_path, capsys, capital_examples
):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Hotels in tents.")
    model_dir = tmp_path / "model"
    (model_dir / "model.tsv").mkdir(parents=True)
    before = snapshot(model_dir)
    expected = f"error: {model_dir}: file 'model.tsv' is not a regular file\n"
    assert cli.main(["recognize", str(model_dir), corpus_dir]) == 4
    assert capsys.readouterr().err == expected
    output = tmp_path / "t.tsv"
    args = ["weigh", capital_examples, corpus_dir, "--model-dir", str(model_dir)]
    assert cli.main(args + ["--output", str(output)]) == 4
    assert capsys.readouterr() == ("", expected)
    assert snapshot(model_dir) == before
    assert not output.exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("weigh", "--threshold", "nan", "must be non-negative, got 'nan'"),
        ("recognize", "--threshold", "nan", "must be non-negative, got 'nan'"),
        ("weigh", "--context-len", "abc", "must be a positive integer, got 'abc'"),
        ("recognize", "--threshold", "x", "must be non-negative, got 'x'"),
    ],
    ids=["weigh", "recognize", "weigh-not-a-number", "recognize-not-a-number"],
)
def test_nan_threshold_exits_2(
    tmp_path, capsys, trained_model_dir, command, flag, value, message
):
    # A number flag that is NaN, or no number at all, fails its range check.
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    index = tmp_path / "model" / "model.tsv"
    before = index.read_bytes()
    examples = write_examples(tmp_path / "paris.tsv", ("Paris", "capital"))
    first = examples if command == "weigh" else trained_model_dir
    args = [command, first, corpus_dir, flag, value]
    if command == "weigh":
        args += ["--model-dir", trained_model_dir]
    assert cli.main(args) == 2
    assert f"error: argument {flag}: {message}\n" in capsys.readouterr().err
    assert index.read_bytes() == before


def test_weigh_rejects_mixed_classes(tmp_path, capsys):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    examples = write_examples(
        tmp_path / "mixed.tsv", ("Paris", "capital"), ("Chirac", "president")
    )
    code = cli.main(["weigh", examples, corpus_dir])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_weigh_unwritable_output_exits_2(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    output = tmp_path / "missing" / "t.tsv"
    code = cli.main(["weigh", capital_examples, corpus_dir, "--output", str(output)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- recognize ---------------------------------------------------------------

@pytest.fixture
def trained_model_dir(tmp_path, capsys):
    corpus_dir = saved_corpus(tmp_path, "train", "Hotels in Madrid. Hotels in tents.")
    examples = write_examples(tmp_path / "madrid.tsv", ("Madrid", "capital"))
    model_dir = tmp_path / "model"
    assert (
        cli.main(
            ["weigh", examples, corpus_dir, "--model-dir", str(model_dir)]
        )
        == 0
    )
    capsys.readouterr()
    return str(model_dir)


def test_recognize_annotates_corpus(tmp_path, capsys, trained_model_dir):
    test_dir = saved_corpus(
        tmp_path, "test", "Visit Hotels in Lisbon now. Hotels in cafes."
    )
    code = cli.main(["recognize", trained_model_dir, test_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up",
        "d00\t3\t3\tLisbon\tcapital\t1\t0",
    ]


@pytest.mark.parametrize("gap", ["\n", "\t"], ids=["newline", "tab"])
def test_recognize_joins_a_name_split_by_a_line_or_tab(
    tmp_path, capsys, capital_examples, gap
):
    fixtures = write_fixture(
        tmp_path / "fixtures",
        [
            ("Paris", "http://a.example/p1", "p1.txt"),
            ("Berlin", "http://b.example/b1", "b1.txt"),
        ],
        {
            "p1.txt": "Hotels in Paris. Map of Paris here.",
            "b1.txt": f"Hotels in Berlin today. Hotels in New{gap}York are full.",
        },
    )
    corpus_dir, model_dir = str(tmp_path / "corpus"), str(tmp_path / "model")
    out = tmp_path / "annotations.tsv"
    assert cli.main(["acquire", capital_examples, corpus_dir, "--fixtures", fixtures]) == 0
    assert cli.main(["weigh", capital_examples, corpus_dir, "--model-dir", model_dir]) == 0
    capsys.readouterr()
    code = cli.main(["recognize", model_dir, corpus_dir, "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "\t6\t7\tNew York\tcapital\t" in out.read_text(encoding="utf-8")


def test_recognize_threshold_flag_overrides_model(tmp_path, capsys, trained_model_dir):
    test_dir = saved_corpus(tmp_path, "test", "Visit Hotels in Lisbon now.")
    code = cli.main(
        ["recognize", trained_model_dir, test_dir, "--threshold", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "d00\t3\t3\tLisbon\tunknown\t1\t0" in captured.out


def test_recognize_writes_output_file(tmp_path, capsys, trained_model_dir):
    test_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    out = tmp_path / "ann.tsv"
    code = cli.main(["recognize", trained_model_dir, test_dir, "--output", str(out)])
    assert code == 0
    assert "Quito\tcapital" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["weigh", "growth", "recognize"])
def test_recognize_prints_what_it_writes(
    tmp_path, capsys, capital_examples, trained_model_dir, command
):
    # Every TSV goes through one writer, so a command prints to stdout
    # exactly the bytes it writes to --output.
    test_dir = saved_corpus(
        tmp_path, "test", "Hotels in Quito.", "Visit Hotels in Paris. Hotels in cafes."
    )
    args, lines = {
        "weigh": (["weigh", capital_examples, test_dir], 2),
        "growth": (["growth", capital_examples, test_dir, "--steps", "1,2"], 3),
        "recognize": (["recognize", trained_model_dir, test_dir], 3),
    }[command]
    out, model_dir = tmp_path / "out.tsv", tmp_path / "written"
    written = args + ["--output", str(out)]
    if command == "weigh":
        written += ["--model-dir", str(model_dir)]
    assert cli.main(written) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    assert len(printed.splitlines()) == lines
    assert printed.encode("utf-8") == out.read_bytes()
    if command == "weigh":
        # weigh writes the same rows to the model as to --output.
        assert (model_dir / "table_capital.tsv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(tmp_path, trained_model_dir, unbuffered):
    # As in `contextner recognize ... | head -1` once head has exited.
    test_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "contextner", "recognize", trained_model_dir, test_dir],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            text=True,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, "")


def test_recognize_runs_without_stdout(tmp_path, trained_model_dir):
    test_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    out = tmp_path / "ann.tsv"
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m contextner "$@" >&-', sys.executable,
         "recognize", trained_model_dir, test_dir, "--output", str(out)],
        stderr=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "Quito\tcapital" in out.read_text(encoding="utf-8")


def test_recognize_empty_corpus_yields_header_only(tmp_path, capsys, trained_model_dir):
    test_dir = saved_corpus(tmp_path, "test")
    code = cli.main(["recognize", trained_model_dir, test_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n"


def test_recognize_malformed_model_exits_4(tmp_path, capsys, trained_model_dir):
    index = tmp_path / "model" / "model.tsv"
    body = index.read_text(encoding="utf-8").replace("\t0\t0", "\tzero\t0")
    index.write_text(body, encoding="utf-8")
    test_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    code = cli.main(["recognize", trained_model_dir, test_dir])
    captured = capsys.readouterr()
    assert code == 4
    assert "model.tsv:2" in captured.err


@pytest.mark.parametrize("command", ["weigh", "recognize"])
def test_document_that_is_not_utf8_exits_4(
    tmp_path, capsys, capital_examples, trained_model_dir, command
):
    corpus_dir = saved_corpus(tmp_path, "bad", "Hotels in Quito.", "Hotels in Lima.")
    doc_path = tmp_path / "bad" / "docs" / "d00.txt"
    doc_path.write_bytes(b"Hotels in Qu\xffito.")
    first = capital_examples if command == "weigh" else trained_model_dir
    code = cli.main([command, first, corpus_dir])
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: {doc_path}: not valid UTF-8 (invalid start byte at byte 12)\n"
    )


def test_manifest_file_outside_the_corpus_exits_4(tmp_path, capsys, capital_examples):
    (tmp_path / "outside.txt").write_text("Hotels in Paris.", encoding="utf-8")
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    manifest = Path(corpus_dir) / "manifest.tsv"
    manifest.write_text(
        manifest.read_text(encoding="utf-8").replace("docs/d00.txt", "../outside.txt"),
        encoding="utf-8",
    )
    output = tmp_path / "table.tsv"
    assert cli.main(["weigh", capital_examples, corpus_dir, "--output", str(output)]) == 4
    assert capsys.readouterr().err == (
        f"error: {manifest}:2: file '../outside.txt' is outside its directory\n"
    )
    assert not output.exists()


def test_fixture_file_outside_its_directory_exits_4(tmp_path, capsys, capital_examples):
    (tmp_path / "outside.txt").write_text("Hotels in Paris.", encoding="utf-8")
    fixtures = write_fixture(
        tmp_path / "fixtures", [("Paris", "http://a.example/p1", "../outside.txt")], {}
    )
    corpus_dir = tmp_path / "corpus"
    code = cli.main(["acquire", capital_examples, str(corpus_dir), "--fixtures", fixtures])
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: {Path(fixtures) / 'queries.tsv'}:2:"
        " file '../outside.txt' is outside its directory\n"
    )
    assert not corpus_dir.exists()


def test_a_linked_document_exits_4(tmp_path, capsys, capital_examples):
    (tmp_path / "outside.txt").write_text("Hotels in Paris.", encoding="utf-8")
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    doc_path = Path(corpus_dir) / "docs" / "d00.txt"
    doc_path.unlink()
    doc_path.symlink_to(tmp_path / "outside.txt")
    output = tmp_path / "table.tsv"
    assert cli.main(["weigh", capital_examples, corpus_dir, "--output", str(output)]) == 4
    assert capsys.readouterr().err == (
        f"error: {Path(corpus_dir) / 'manifest.tsv'}:2:"
        " file 'docs/d00.txt' is not a regular file\n"
    )
    assert not output.exists()


def test_a_linked_document_directory_exits_4(tmp_path, capsys, capital_examples):
    other = saved_corpus(tmp_path, "other", "Hotels in Paris.")
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    docs = Path(corpus_dir) / "docs"
    (docs / "d00.txt").unlink()
    docs.rmdir()
    docs.symlink_to(Path(other) / "docs")
    output = tmp_path / "table.tsv"
    assert cli.main(["weigh", capital_examples, corpus_dir, "--output", str(output)]) == 4
    assert capsys.readouterr().err == (
        f"error: {Path(corpus_dir) / 'manifest.tsv'}:2:"
        " file 'docs/d00.txt' is under 'docs', which is not a directory\n"
    )
    assert not output.exists()


@pytest.mark.parametrize("command", ["weigh", "recognize"])
def test_last_document_not_utf8_replaces_no_output(
    tmp_path, capsys, capital_examples, trained_model_dir, command
):
    # Documents are read as they are reached, so this one fails the run
    # after the others were read, and still before any output is replaced.
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.", "Hotels in Lima.")
    output = tmp_path / "out.tsv"
    if command == "weigh":
        args = ["weigh", capital_examples, corpus_dir, "--model-dir", trained_model_dir]
    else:
        args = ["recognize", trained_model_dir, corpus_dir]
    args += ["--output", str(output)]
    assert cli.main(args) == 0
    kept = [output, *Path(trained_model_dir).iterdir()]
    before = {path: path.read_bytes() for path in kept}
    doc_path = tmp_path / "corpus" / "docs" / "d01.txt"
    doc_path.write_bytes(b"Hotels in Li\xffma.")
    capsys.readouterr()
    assert cli.main(args) == 4
    assert capsys.readouterr().err == (
        f"error: {doc_path}: not valid UTF-8 (invalid start byte at byte 12)\n"
    )
    assert {path: path.read_bytes() for path in kept} == before
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["weigh", "recognize"])
def test_output_pipe_closed_early_exits_2_naming_it(tmp_path, trained_model_dir, command):
    # A reader that takes 100 bytes of an output far longer than a pipe
    # holds and goes, as `head -c 100 FIFO` would: the error is the
    # output's, not stdout's.
    if command == "weigh":
        text = " ".join(f"Hotels w{i} Madrid now." for i in range(20_000))
        first = write_examples(tmp_path / "examples.tsv", ("Madrid", "capital"))
    else:
        text = "Hotels in Madrid now. " * 20_000
        first = trained_model_dir
    corpus_dir = saved_corpus(tmp_path, "corpus", text)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    child = subprocess.Popen(
        [sys.executable, "-m", "contextner", command, first, corpus_dir, "--output", str(fifo)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        reader = [sys.executable, "-c", "import sys; open(sys.argv[1], 'rb').read(100)"]
        subprocess.run([*reader, str(fifo)], check=True, timeout=60)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.communicate()
    assert (child.returncode, out) == (2, "")
    assert err == f"error: [Errno 32] Broken pipe: {str(fifo)!r}\n"


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("capital\t", "unknown\t", "invalid class label 'unknown'"),
        ("\t0\t0", "\t-1\t0", "threshold and margin must be non-negative"),
        ("\t0\t0", "\tnan\t0", "threshold and margin must be non-negative"),
        ("table_capital", "table_gone", "table file not found: {model}/table_gone.tsv"),
        (
            "table_capital",
            "../model/table_capital",
            "table file '../model/table_capital.tsv' is not a bare file name",
        ),
    ],
    ids=["unknown class", "negative threshold", "nan threshold", "missing table", "table path"],
)
def test_bad_model_index_line_exits_4_in_weigh_and_recognize(
    tmp_path, capsys, trained_model_dir, old, new, message
):
    index = tmp_path / "model" / "model.tsv"
    index.write_text(index.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    message = message.format(model=trained_model_dir)
    assert_bad_model_exits_4(tmp_path, capsys, trained_model_dir, message)


def test_a_linked_model_table_exits_4_in_weigh_and_recognize(
    tmp_path, capsys, trained_model_dir
):
    table = Path(trained_model_dir) / "table_capital.tsv"
    table.rename(tmp_path / "outside.tsv")
    table.symlink_to(tmp_path / "outside.tsv")
    message = "file 'table_capital.tsv' is not a regular file"
    assert_bad_model_exits_4(tmp_path, capsys, trained_model_dir, message)


def assert_bad_model_exits_4(tmp_path, capsys, model_dir, message):
    """recognize and `weigh --model-dir` both exit 4 naming the model
    index's line 2, and weigh writes nothing."""
    index = Path(model_dir) / "model.tsv"
    before = index.read_bytes()
    expected = f"error: {index}:2: {message}\n"
    corpus_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    assert cli.main(["recognize", model_dir, corpus_dir]) == 4
    assert capsys.readouterr().err == expected
    examples = write_examples(tmp_path / "quito.tsv", ("Quito", "capital"))
    output = tmp_path / "t.tsv"
    args = ["weigh", examples, corpus_dir, "--model-dir", model_dir]
    assert cli.main(args + ["--output", str(output)]) == 4
    assert capsys.readouterr().err == expected
    assert not output.exists()
    assert index.read_bytes() == before


def test_recognize_missing_model_exits_2(tmp_path, capsys):
    test_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    code = cli.main(["recognize", str(tmp_path / "nomodel"), test_dir])
    assert code == 2
    assert "model.tsv" in capsys.readouterr().err


# -- evaluate ----------------------------------------------------------------

def test_evaluate_end_to_end(tmp_path, capsys, trained_model_dir):
    # `cafes` starts lowercase, so it is no candidate; `Rooms` is a false positive.
    test_dir = saved_corpus(
        tmp_path, "test", "Visit Hotels in Lisbon now. Hotels in cafes. Hotels in Rooms."
    )
    ann_path = tmp_path / "ann.tsv"
    cli.main(["recognize", trained_model_dir, test_dir, "--output", str(ann_path)])
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(
        "doc\tstart_token\tend_token\tclass\nd00\t3\t3\tcapital\n", encoding="utf-8"
    )
    report_path = tmp_path / "report.tsv"
    code = cli.main(
        ["evaluate", str(ann_path), str(gold_path), "--output", str(report_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "precision        0.5" in captured.out
    assert "recall           1" in captured.out
    assert report_path.read_text(encoding="utf-8") == (
        "tp\tfp\tfn\tprecision\trecall\n1\t1\t0\t0.5\t1\n"
    )


def test_evaluate_rejects_bad_gold(tmp_path, capsys):
    ann_path = tmp_path / "ann.tsv"
    ann_path.write_text(
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n",
        encoding="utf-8",
    )
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(
        "doc\tstart_token\tend_token\tclass\nd00\tx\t3\tcapital\n", encoding="utf-8"
    )
    code = cli.main(["evaluate", str(ann_path), str(gold_path)])
    assert code == 4
    assert "gold.tsv:2" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["annotations", "gold"])
def test_evaluate_rejects_bad_span_in_either_file(tmp_path, capsys, bad):
    # One span rule for both span files: start >= 0 and end >= start.
    ann_path = tmp_path / "ann.tsv"
    ann_path.write_text(
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n"
        + ("d00\t5\t3\tParis\tcapital\tnan\t0\n" if bad == "annotations" else ""),
        encoding="utf-8",
    )
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text(
        "doc\tstart_token\tend_token\tclass\n"
        + ("d00\t5\t3\tcapital\n" if bad == "gold" else "d00\t1\t1\tcapital\n"),
        encoding="utf-8",
    )
    code = cli.main(["evaluate", str(ann_path), str(gold_path)])
    assert code == 4
    bad_path = ann_path if bad == "annotations" else gold_path
    assert capsys.readouterr().err == f"error: {bad_path}:2: bad span 5..3\n"


# -- stored files ------------------------------------------------------------

@pytest.mark.parametrize("missing", ["queries", "manifest", "model", "annotations", "gold"])
def test_missing_stored_file_exits_2_naming_it(
    tmp_path, capsys, capital_examples, trained_model_dir, missing
):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    ann_path = tmp_path / "ann.tsv"
    ann_path.write_text(
        "doc\tstart_token\tend_token\tsurface\tclass\tscore\trunner_up\n", encoding="utf-8"
    )
    gold_path = tmp_path / "gold.tsv"
    gold_path.write_text("doc\tstart_token\tend_token\tclass\n", encoding="utf-8")
    absent = tmp_path / "absent"
    path, args = {
        "queries": (
            absent / "queries.tsv",
            ["acquire", capital_examples, corpus_dir, "--fixtures", str(absent)],
        ),
        "manifest": (
            absent / "manifest.tsv",
            ["recognize", trained_model_dir, str(absent)],
        ),
        "model": (absent / "model.tsv", ["recognize", str(absent), corpus_dir]),
        "annotations": (absent, ["evaluate", str(absent), str(gold_path)]),
        "gold": (absent, ["evaluate", str(ann_path), str(absent)]),
    }[missing]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"


@pytest.mark.parametrize(
    "argument",
    ["acquire corpus", "acquire fixtures", "weigh corpus", "weigh model", "recognize corpus",
     "recognize model"],
)
def test_a_directory_argument_that_is_a_file_exits_2_naming_its_index(
    tmp_path, capsys, capital_examples, fixture_dir, trained_model_dir, argument
):
    # Reported as a missing index is, not as Python's raw OSError.
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    notadir = tmp_path / "notadir"
    notadir.write_text("", encoding="utf-8")
    index, args = {
        "acquire corpus": (
            "manifest.tsv", ["acquire", capital_examples, str(notadir), "--fixtures", fixture_dir]
        ),
        "acquire fixtures": (
            "queries.tsv",
            ["acquire", capital_examples, str(tmp_path / "new"), "--fixtures", str(notadir)],
        ),
        "weigh corpus": ("manifest.tsv", ["weigh", capital_examples, str(notadir)]),
        "weigh model": (
            "model.tsv", ["weigh", capital_examples, corpus_dir, "--model-dir", str(notadir)]
        ),
        "recognize corpus": ("manifest.tsv", ["recognize", trained_model_dir, str(notadir)]),
        "recognize model": ("model.tsv", ["recognize", str(notadir), corpus_dir]),
    }[argument]
    capsys.readouterr()
    before = snapshot(tmp_path)
    assert cli.main(args) == 2
    assert capsys.readouterr() == ("", f"error: {notadir / index}: Not a directory\n")
    assert snapshot(tmp_path) == before


def doc_id(uri):
    """A document's id: the first 12 hex digits of its URI's SHA-1."""
    return hashlib.sha1(uri.encode("utf-8")).hexdigest()[:12]


@pytest.mark.parametrize("escape", ["table link", "index link", "document link", "docs link"])
def test_a_write_through_a_link_in_a_package_directory_exits_4(
    tmp_path, capsys, capital_examples, fixture_dir, escape
):
    # Each link leads a write out of its directory. Every entry is checked
    # before the first write, so nothing is written anywhere.
    outside = tmp_path / "outside.tsv"
    outside.write_text("kept\n", encoding="utf-8")
    if escape in ("table link", "index link"):
        corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris. Map of Oslo.")
        model_dir = tmp_path / "model"
        city = write_examples(tmp_path / "city.tsv", ("Oslo", "city"))
        assert cli.main(["weigh", city, corpus_dir, "--model-dir", str(model_dir)]) == 0
        name = "table_capital.tsv" if escape == "table link" else "model.tsv"
        if escape == "index link":
            (model_dir / name).replace(outside)  # so the link leads to a valid index
        (model_dir / name).symlink_to(outside)
        args = ["weigh", capital_examples, corpus_dir, "--model-dir", str(model_dir)]
        args += ["--output", str(tmp_path / "t.tsv")]
        message = f"{model_dir}: file {name!r} is not a regular file"
    else:
        corpus_dir = tmp_path / "corpus"
        uris = ["http://a.example/p1", "http://a.example/p2", "http://b.example/b1"]
        if escape == "document link":
            berlin = write_examples(tmp_path / "berlin.tsv", ("Berlin", "capital"))
            assert cli.main(["acquire", berlin, str(corpus_dir), "--fixtures", fixture_dir]) == 0
            name = f"docs/{doc_id(uris[0])}.txt"
            (corpus_dir / name).symlink_to(outside)
            message = f"{corpus_dir}: file {name!r} is not a regular file"
        else:
            (tmp_path / "elsewhere").mkdir()
            corpus_dir.mkdir()
            (corpus_dir / "docs").symlink_to(tmp_path / "elsewhere")
            message = f"{corpus_dir}: 'docs' is not a directory"
        args = ["acquire", capital_examples, str(corpus_dir), "--fixtures", fixture_dir]
    capsys.readouterr()
    before = snapshot(tmp_path)
    assert cli.main(args) == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("docs", ["link", "file"])
def test_acquire_refuses_a_bad_docs_directory_before_it_fetches(
    tmp_path, capsys, capital_examples, docs
):
    # The fixtures list a dead link, so any fetch would print a failure.
    fixture_dir = write_fixture(
        tmp_path / "fixtures",
        [
            ("Paris", "http://a.example/p1", "p1.txt"),
            ("Paris", "http://a.example/gone", "gone.txt"),
        ],
        {"p1.txt": "Hotels in Paris."},
    )
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    if docs == "link":
        (tmp_path / "elsewhere").mkdir()
        (corpus_dir / "docs").symlink_to(tmp_path / "elsewhere")
    else:
        (corpus_dir / "docs").write_text("", encoding="utf-8")
    args = ["acquire", capital_examples, str(corpus_dir), "--fixtures", fixture_dir]
    before = snapshot(tmp_path)
    assert cli.main(args) == 4
    assert capsys.readouterr() == ("", f"error: {corpus_dir}: 'docs' is not a directory\n")
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "index, command",
    [
        ("model", "recognize"),
        ("model", "weigh"),
        ("manifest", "recognize"),
        ("manifest", "weigh"),
        ("manifest", "acquire"),
        ("queries", "acquire"),
    ],
)
def test_a_fifo_index_exits_4_at_once(
    tmp_path, capital_examples, fixture_dir, trained_model_dir, index, command
):
    # Run as a child under a timeout: opening a FIFO for reading would
    # block until a writer comes, so a regression fails instead of stalling.
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Quito.")
    directory = {"model": trained_model_dir, "manifest": corpus_dir, "queries": fixture_dir}[index]
    name = f"{index}.tsv"
    os.unlink(os.path.join(directory, name))
    os.mkfifo(os.path.join(directory, name))
    args = {
        "recognize": ["recognize", trained_model_dir, corpus_dir],
        "weigh": ["weigh", capital_examples, corpus_dir, "--model-dir", trained_model_dir],
        "acquire": ["acquire", capital_examples, corpus_dir, "--fixtures", fixture_dir],
    }[command]
    result = subprocess.run(
        [sys.executable, "-m", "contextner", *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        4,
        "",
        f"error: {directory}: file {name!r} is not a regular file\n",
    )


def test_a_link_at_the_temporary_name_is_removed_and_never_written_through(
    tmp_path, capsys, capital_examples
):
    # Exactly the name the writer picks in this process (see tsv._replace).
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    outside = tmp_path / "outside.tsv"
    outside.write_text("kept\n", encoding="utf-8")
    (model_dir / f".table_capital.tsv.{os.getpid()}.tmp").symlink_to(outside)
    args = ["weigh", capital_examples, corpus_dir, "--model-dir", str(model_dir)]
    assert cli.main(args) == 2
    table = model_dir / "table_capital.tsv"
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(table)!r}\n"
    assert outside.read_text(encoding="utf-8") == "kept\n"
    assert list(model_dir.iterdir()) == []
    assert cli.main(args) == 0
    assert not table.is_symlink()
    assert cli.main(["recognize", str(model_dir), corpus_dir]) == 0


# -- growth ------------------------------------------------------------------

def test_growth_writes_curve(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(
        tmp_path, "corpus", "Hotels in Paris.", "Map of Berlin.", "Nothing here."
    )
    code = cli.main(["growth", capital_examples, corpus_dir, "--steps", "1,3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "docs\toccurrences\tcontexts\n1\t1\t1\n3\t2\t2\n"


def test_growth_step_past_corpus_end(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    code = cli.main(["growth", capital_examples, corpus_dir, "--steps", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_growth_rejects_malformed_steps(tmp_path, capsys, capital_examples):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    code = cli.main(["growth", capital_examples, corpus_dir, "--steps", "a,b"])
    assert code == 2


@pytest.mark.parametrize("steps", ["1,,2", ",1", "1,"])
def test_growth_rejects_an_empty_step(tmp_path, capsys, capital_examples, steps):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.", "Map of Berlin.")
    code = cli.main(["growth", capital_examples, corpus_dir, "--steps", steps])
    assert code == 2
    assert f"bad step list {steps!r}" in capsys.readouterr().err


def test_growth_rejects_mixed_classes(tmp_path, capsys):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    examples = write_examples(
        tmp_path / "mixed.tsv", ("Paris", "capital"), ("Chirac", "president")
    )
    code = cli.main(["growth", examples, corpus_dir, "--steps", "1"])
    assert code == 2
    assert "run once per class" in capsys.readouterr().err


def test_output_into_a_missing_directory_names_the_path_given(
    tmp_path, capsys, capital_examples
):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    output = str(tmp_path / "nodir" / "g.tsv")
    code = cli.main(["growth", capital_examples, corpus_dir, "--steps", "1", "--output", output])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {output!r}\n"
    )


# -- parser plumbing ---------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    assert cli.main(["weigh", "--nope"]) == 2


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "acquire" in capsys.readouterr().out
