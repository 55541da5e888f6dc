import pytest

from conftest import make_corpus
from contextner import cli
from contextner.corpus import save_corpus


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


@pytest.mark.parametrize("command", ["weigh", "recognize"])
def test_nan_threshold_exits_2(tmp_path, capsys, trained_model_dir, command):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    index = tmp_path / "model" / "model.tsv"
    before = index.read_bytes()
    examples = write_examples(tmp_path / "paris.tsv", ("Paris", "capital"))
    first = examples if command == "weigh" else trained_model_dir
    args = [command, first, corpus_dir, "--threshold", "nan"]
    if command == "weigh":
        args += ["--model-dir", trained_model_dir]
    assert cli.main(args) == 2
    assert "must be non-negative, got 'nan'" in capsys.readouterr().err
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
        "d00\t7\t7\tcafes\tcapital\t1\t0",
    ]


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


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("capital\t", "unknown\t", "invalid class label 'unknown'"),
        ("\t0\t0", "\t-1\t0", "threshold and margin must be non-negative"),
        ("\t0\t0", "\tnan\t0", "threshold and margin must be non-negative"),
        ("table_capital", "table_gone", "table file not found: {model}/table_gone.tsv"),
    ],
    ids=["unknown class", "negative threshold", "nan threshold", "missing table"],
)
def test_bad_model_index_line_exits_4_in_weigh_and_recognize(
    tmp_path, capsys, trained_model_dir, old, new, message
):
    index = tmp_path / "model" / "model.tsv"
    index.write_text(index.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    before = index.read_bytes()
    expected = f"error: {index}:2: {message.format(model=trained_model_dir)}\n"
    corpus_dir = saved_corpus(tmp_path, "test", "Hotels in Quito.")
    assert cli.main(["recognize", trained_model_dir, corpus_dir]) == 4
    assert capsys.readouterr().err == expected
    examples = write_examples(tmp_path / "quito.tsv", ("Quito", "capital"))
    output = tmp_path / "t.tsv"
    args = ["weigh", examples, corpus_dir, "--model-dir", trained_model_dir]
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
    test_dir = saved_corpus(
        tmp_path, "test", "Visit Hotels in Lisbon now. Hotels in cafes."
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


def test_growth_rejects_mixed_classes(tmp_path, capsys):
    corpus_dir = saved_corpus(tmp_path, "corpus", "Hotels in Paris.")
    examples = write_examples(
        tmp_path / "mixed.tsv", ("Paris", "capital"), ("Chirac", "president")
    )
    code = cli.main(["growth", examples, corpus_dir, "--steps", "1"])
    assert code == 2
    assert "run once per class" in capsys.readouterr().err


# -- parser plumbing ---------------------------------------------------------

def test_unknown_flag_exits_2(capsys):
    assert cli.main(["weigh", "--nope"]) == 2


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "acquire" in capsys.readouterr().out
