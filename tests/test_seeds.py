import pytest
from hypothesis import example, given, strategies as st

from contextner.errors import DataFormatError, InputError
from contextner.extract import tokenize
from contextner.seeds import LearningExample, load_examples, single_class


def test_example_strips_whitespace():
    ex = LearningExample("  Paris ", " capital ")
    assert (ex.surface, ex.class_label) == ("Paris", "capital")


def test_example_rejects_empty():
    with pytest.raises(ValueError):
        LearningExample("   ", "capital")
    with pytest.raises(ValueError):
        LearningExample("Paris", "")


@pytest.mark.parametrize("surface", ["...", "(-)", "_", "« »", "’ ’"])
def test_example_rejects_a_surface_without_words(surface):
    with pytest.raises(ValueError, match="has no words"):
        LearningExample(surface, "capital")


@given(st.text())
@example("_")
@example("W.")
@example("²")
def test_a_surface_has_words_exactly_where_tokenize_finds_some(text):
    # LearningExample's rule, checked against the tokenizer it stands for.
    assert any(map(str.isalnum, text)) == bool(tokenize(text).words)


def test_load_examples_names_the_line_of_a_surface_without_words(tmp_path):
    path = tmp_path / "ex.tsv"
    path.write_text("surface\tclass\nParis\tcapital\n...\tcapital\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_examples(path)
    assert str(info.value) == f"{path}:3: learning example surface '...' has no words"


def test_load_examples(tmp_path):
    path = tmp_path / "ex.tsv"
    path.write_text(
        "surface\tclass\nParis\tcapital\nNew York\tcapital\nParis\tcapital\n",
        encoding="utf-8",
    )
    examples = load_examples(path)
    assert [e.surface for e in examples] == ["Paris", "New York"]


def test_load_examples_missing_file(tmp_path):
    with pytest.raises(InputError, match="ex.tsv"):
        load_examples(tmp_path / "ex.tsv")


def test_load_examples_reports_bad_row(tmp_path):
    path = tmp_path / "ex.tsv"
    path.write_text("surface\tclass\n \tcapital\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"ex\.tsv:2"):
        load_examples(path)


def test_single_class():
    examples = [LearningExample("Paris", "capital"), LearningExample("Tunis", "capital")]
    assert single_class(examples) == "capital"


def test_single_class_rejects_mixture():
    examples = [LearningExample("Paris", "capital"), LearningExample("Bush", "president")]
    with pytest.raises(InputError, match="run once per class"):
        single_class(examples)
    with pytest.raises(InputError):
        single_class([])
