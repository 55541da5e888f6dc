"""Learning examples: the seed surface forms of an entity class."""

from __future__ import annotations

from pathlib import Path

from . import tsv
from .errors import InputError
from .record import Record

EXAMPLES_HEADER = ["surface", "class"]

# The label of a span that no class wins; never a class of its own.
UNKNOWN = "unknown"


def check_class_label(label: str) -> str:
    """`label` if it can name a class (neither empty nor UNKNOWN), else ValueError."""
    if not label or label == UNKNOWN:
        raise ValueError(f"invalid class label {label!r}")
    return label


class LearningExample(Record):
    """A concrete surface form (e.g. "Paris") of an entity class.

    Surface forms may overlap or subsume each other ("Bush" and
    "George W. Bush"); both are kept and matching prefers the longest.
    A surface matches text by the words tokenize gives it, so it must
    hold at least one letter or digit.
    """

    __slots__ = ("surface", "class_label")

    def __init__(self, surface: str, class_label: str) -> None:
        surface, class_label = surface.strip(), class_label.strip()
        if not surface:
            raise ValueError("learning example surface is empty")
        # tokenize finds a word in a text exactly where some character is
        # a letter or a digit, so this surface could match no text.
        if not any(map(str.isalnum, surface)):
            raise ValueError(f"learning example surface {surface!r} has no words")
        if not class_label:
            raise ValueError(f"learning example {surface!r} has an empty class label")
        self._assign(surface=surface, class_label=class_label)


def load_examples(path: str | Path) -> list[LearningExample]:
    """Read a TSV of (surface, class) rows; exact duplicates collapse."""
    return list(dict.fromkeys(tsv.read_rows(path, EXAMPLES_HEADER, LearningExample)))


def single_class(examples: list[LearningExample]) -> str:
    """Return the one class label shared by all examples, or raise."""
    if not examples:
        raise InputError("no learning examples given")
    labels = {e.class_label for e in examples}
    if len(labels) > 1:
        raise InputError(
            "examples mix classes "
            f"({', '.join(sorted(labels))}); run once per class"
        )
    return examples[0].class_label
