"""Model directories: one weight table per class, listed by `model.tsv`.

The index `model.tsv` names each class's table file and the decision
threshold and margin the classes share. The weight-table format (header,
rows, reader) is here. `weigh --model-dir` adds or replaces one class's
table; `recognize` reads every table back as a context->weight mapping.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import tsv
from .errors import DataFormatError
from .extract import LEFT, ContextKey
from .seeds import check_class_label

if TYPE_CHECKING:
    from .weighting import WeightTable

MODEL_FILE = "model.tsv"
MODEL_HEADER = ["class", "table_file", "threshold", "margin"]
WEIGHT_HEADER = ["context", "cf", "df", "lef", "icf", "w"]

_LABEL_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def weight_rows(table: WeightTable) -> list[tuple]:
    """A weight table's rows in the columns of WEIGHT_HEADER."""
    return [
        (row.context.phrase(), row.cf, row.df, row.lef, row.icf, row.weight)
        for row in table.rows
    ]


def read_weight_mapping(path: str | Path, side: str = LEFT) -> dict[ContextKey, float]:
    """Load context -> weight from a saved table, dropping rows whose
    weight is not positive and finite.

    Two rows whose phrases split into the same words are rejected. Each
    word is interned, so the contexts of every table that share a word
    hold one string for it.
    """
    weights: dict[tuple[str, ...], float] = {}  # by words: the duplicate check builds no key

    def parse(phrase, _cf, _df, _lef, _icf, w):
        words = tuple(map(sys.intern, phrase.split()))
        if not words:
            raise ValueError("empty context phrase")
        try:
            weight = float(w)
        except ValueError:
            raise ValueError(f"bad weight {w!r}") from None
        if words in weights:
            raise ValueError(f"duplicate context {phrase!r}")
        weights[words] = weight

    tsv.read_rows(path, WEIGHT_HEADER, parse)
    return {ContextKey(words, side): w for words, w in weights.items() if 0 < w < math.inf}


def _table_file_name(label: str) -> str:
    try:
        check_class_label(label)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
    if not _LABEL_RE.match(label):
        raise DataFormatError(
            f"class label {label!r} is not usable as a file name"
            " (letters, digits, '_', '-', '.' only)"
        )
    return f"table_{label}.tsv"


# A model index: class -> table file, in line order, plus the threshold
# and margin its lines share.
_Index = tuple[dict[str, str], tuple[float, float]]


def _read_index(directory: Path) -> _Index:
    """A model directory's index as class -> table file, in line order,
    plus the threshold and margin its lines share ((0, 0) when it has
    none). Every check on an index is here, so weigh and recognize reject
    the same files; model.tsv and each table file must be entries that
    tsv.stored_file accepts, a table file a bare name."""
    entries: dict[str, str] = {}
    shared: set[tuple[float, float]] = set()

    def parse(label, table_file, theta, delta):
        check_class_label(label)
        if label in entries:
            raise ValueError(f"duplicate class {label!r}")
        if table_file in (".", "..") or "/" in table_file or "\\" in table_file:
            raise ValueError(f"table file {table_file!r} is not a bare file name")
        try:
            tsv.stored_file(directory, table_file)
        except OSError as exc:
            raise ValueError(f"table file not found: {exc.filename}") from None
        theta, delta = float(theta), float(delta)
        if not (theta >= 0 and delta >= 0):
            raise ValueError("threshold and margin must be non-negative")
        shared.add((theta, delta))
        if len(shared) > 1:
            raise ValueError("threshold/margin disagree across classes")
        entries[label] = table_file

    index, _ = tsv.stored_entry(directory, MODEL_FILE)
    tsv.read_rows(index, MODEL_HEADER, parse)
    return entries, next(iter(shared), (0.0, 0.0))


def _new_table_file(entries: dict[str, str], label: str) -> str:
    """The file update_model writes a class's new table to: the one of
    table_<class>.tsv and table_<class>+.tsv ('+' is no label character)
    that the index does not name for it."""
    file_name = _table_file_name(label)
    return f"table_{label}+.tsv" if entries.get(label) == file_name else file_name


def check_model_update(directory: str | Path, label: str) -> _Index:
    """The directory's stored index, for update_model ((no classes, 0, 0)
    when it has no model.tsv). Raises where update_model would reject
    this class label, that index or a file it would write, so a caller
    can check before it builds the table: DataFormatError on a bad label
    or index, or on model.tsv or the new table's file being an entry that
    tsv.stored_file refuses, and InputError on a model.tsv that cannot be
    read."""
    directory = Path(directory)
    _table_file_name(label)
    _, present = tsv.stored_entry(directory, MODEL_FILE)
    index = _read_index(directory) if present else ({}, (0.0, 0.0))
    tsv.stored_entry(directory, _new_table_file(index[0], label))
    return index


def update_model(
    directory: str | Path,
    label: str,
    table: str,
    index: _Index,
    threshold: Optional[float] = None,
    margin: Optional[float] = None,
) -> None:
    """Add or replace one class's table in a model directory.

    `table` is the weight table's text, as tsv.table_text gives it for
    WEIGHT_HEADER and weight_rows, and `index` the directory's index as
    check_model_update returned it.
    Other classes' entries are preserved. Threshold and margin are
    model-wide: explicit values overwrite the stored ones, otherwise
    the stored (or zero) values stay on every row.

    Replacing model.tsv is the one commit: the table is written first,
    under the name _new_table_file gives, and the replaced table is
    deleted last. So a failed update leaves the old model whole. Both
    files are written to the paths tsv.writable gives, which checks both
    before either is written.
    """
    entries, stored = index
    file_name = _new_table_file(entries, label)
    replaced = entries.get(label)
    table_path, index_path = tsv.writable(directory, [file_name, MODEL_FILE])
    tsv.write_text(table_path, table)
    entries = {**entries, label: file_name}
    theta = stored[0] if threshold is None else threshold
    delta = stored[1] if margin is None else margin
    rows = ((name, entries[name], theta, delta) for name in sorted(entries))
    tsv.write_rows(index_path, MODEL_HEADER, rows)
    if replaced is not None and replaced not in entries.values():
        with suppress(OSError):  # a leftover no index row names is overwritten later
            Path(directory, replaced).unlink()
