"""Output checks against the generator's own records.

Each check reads the files one CLI command wrote and raises CheckError
on the first disagreement with what the world planted. The checks parse
the files themselves and never import the program, so a fault in the
program cannot hide a fault in its output.
"""

from __future__ import annotations

from pathlib import Path

from world import ClassWorld, World

# %.7g keeps 7 significant digits: a relative error of at most 5e-7.
REL_TOL = 1e-6


class CheckError(Exception):
    """An output disagrees with the planted world."""


def read_tsv(path: Path, header: list[str]) -> list[list[str]]:
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].split("\t") != header:
        raise CheckError(f"{path}: header is not {header}")
    rows = [line.split("\t") for line in lines[1:]]
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CheckError(f"{path}:{lineno}: {len(row)} fields, expected {len(header)}")
    return rows


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_acquire(cw: ClassWorld, corpus_dir: Path) -> None:
    """One document per live URI, each with the planted text and host."""
    rows = read_tsv(corpus_dir / "manifest.tsv", ["id", "source", "uri", "kind", "file"])
    by_uri = {d.uri: d for d in cw.docs}
    uris = [row[2] for row in rows]
    if len(uris) != len(set(uris)) or set(uris) != set(by_uri):
        raise CheckError(
            f"{cw.label}: corpus holds {len(set(uris))} distinct URIs in {len(rows)} rows,"
            f" expected the {len(by_uri)} live URIs"
        )
    for _id, source, uri, kind, rel in rows:
        doc = by_uri[uri]
        if source != doc.host:
            raise CheckError(f"{cw.label}: {uri} has source {source!r}, expected {doc.host!r}")
        if kind != "markup":
            raise CheckError(f"{cw.label}: {uri} has kind {kind!r}, expected 'markup'")
        text = (corpus_dir / rel).read_text(encoding="utf-8")
        if text != doc.text:
            raise CheckError(f"{cw.label}: cleaned text of {uri} differs from the planted text")


WEIGHT_HEADER = ["context", "cf", "df", "lef", "icf", "w"]


def check_weigh(cw: ClassWorld, table_path: Path, model_dir: Path) -> None:
    """Every planted context's factors equal the planted counts' values;
    Σcf = 1 and w = cf·lef·df·icf on every row; the model lists the table."""
    rows = read_tsv(table_path, WEIGHT_HEADER)
    got: dict[str, tuple[float, ...]] = {}
    for row in rows:
        try:
            got[row[0]] = tuple(float(x) for x in row[1:])
        except ValueError as exc:
            raise CheckError(f"{table_path}: {exc}") from exc
    if len(got) != len(rows):
        raise CheckError(f"{table_path}: a context is listed twice")
    missing = set(cw.expected) - set(got)
    extra = set(got) - set(cw.expected)
    if missing or extra:
        raise CheckError(
            f"{table_path}: {len(missing)} planted contexts missing, {len(extra)} unplanted present"
        )
    for phrase, exp in cw.expected.items():
        want = (exp.cf, exp.df, exp.lef, exp.icf, exp.w)
        for name, g, w in zip(WEIGHT_HEADER[1:], got[phrase], want):
            if not _close(g, w):
                raise CheckError(f"{table_path}: {phrase!r} has {name}={g!r}, planted {w!r}")
    total_cf = sum(v[0] for v in got.values())
    if abs(total_cf - 1.0) > len(got) * REL_TOL:
        raise CheckError(f"{table_path}: cf sums to {total_cf!r}")
    for phrase, (cf, df, lef, icf, w) in got.items():
        if not _close(w, cf * lef * df * icf, 5 * REL_TOL):
            raise CheckError(f"{table_path}: {phrase!r} has w={w!r} != cf*lef*df*icf")
    index = read_tsv(model_dir / "model.tsv", ["class", "table_file", "threshold", "margin"])
    files = {row[0]: row[1] for row in index}
    if cw.label not in files:
        raise CheckError(f"{model_dir}: model lists no {cw.label!r} table")
    if (model_dir / files[cw.label]).read_bytes() != Path(table_path).read_bytes():
        raise CheckError(f"{model_dir}: stored {cw.label!r} table differs from weigh output")


def check_growth(cw: ClassWorld, growth_path: Path) -> None:
    """The final point counts every planted example occurrence and every
    distinct planted context; no count ever falls."""
    rows = read_tsv(growth_path, ["docs", "occurrences", "contexts"])
    try:
        points = [tuple(int(x) for x in row) for row in rows]
    except ValueError as exc:
        raise CheckError(f"{growth_path}: {exc}") from exc
    if not points:
        raise CheckError(f"{growth_path}: no growth points")
    for before, after in zip(points, points[1:]):
        if any(b > a for b, a in zip(before, after)):
            raise CheckError(f"{growth_path}: counts fall from {before} to {after}")
    want = (len(cw.docs), cw.occurrences, len(cw.expected))
    if points[-1] != want:
        raise CheckError(f"{growth_path}: final point {points[-1]}, planted {want}")


ANNOTATION_HEADER = ["doc", "start_token", "end_token", "surface", "class", "score", "runner_up"]


def read_annotations(path: Path) -> list[tuple[str, int, int, str, str, float, float]]:
    out = []
    for doc, first, last, surface, label, score, runner_up in read_tsv(path, ANNOTATION_HEADER):
        try:
            out.append((doc, int(first), int(last), surface, label, float(score), float(runner_up)))
        except ValueError as exc:
            raise CheckError(f"{path}: {exc}") from exc
    return out


def check_recognize(world: World, annotations_path: Path) -> None:
    """Each planted test entity is annotated with exactly its span and class,
    no other annotation overlaps it, and each decision beats its runner-up."""
    annotations = read_annotations(annotations_path)
    by_span = {}
    covered: dict[tuple[str, int], tuple[int, int]] = {}
    for g in world.gold:
        for pos in range(g.first, g.last + 1):
            covered[(g.doc, pos)] = (g.first, g.last)
    for doc, first, last, surface, label, score, runner_up in annotations:
        by_span[(doc, first, last)] = (surface, label)
        if label != "unknown" and not score > runner_up:
            raise CheckError(
                f"{annotations_path}: {doc} {first}-{last} decided {label!r}"
                f" with score {score!r} not above runner-up {runner_up!r}"
            )
        for pos in range(first, last + 1):
            span = covered.get((doc, pos))
            if span is not None and span != (first, last):
                raise CheckError(
                    f"{annotations_path}: {doc} {first}-{last} overlaps planted span {span}"
                )
    for g in world.gold:
        got = by_span.get((g.doc, g.first, g.last))
        if got != (g.surface, g.label):
            raise CheckError(
                f"{annotations_path}: planted {g.label} {g.surface!r} at {g.doc}"
                f" {g.first}-{g.last} annotated as {got}"
            )


def check_evaluate(annotations_path: Path, gold_path: Path, report_path: Path) -> None:
    """tp, fp and fn equal a recount from the annotation and gold files."""
    found = {
        (doc, first, last, label)
        for doc, first, last, _s, label, _score, _r in read_annotations(annotations_path)
        if label != "unknown"
    }
    wanted = {
        (doc, int(first), int(last), label)
        for doc, first, last, label in read_tsv(gold_path, ["doc", "start_token", "end_token", "class"])
    }
    want = (len(found & wanted), len(found - wanted), len(wanted - found))
    rows = read_tsv(report_path, ["tp", "fp", "fn", "precision", "recall"])
    if len(rows) != 1:
        raise CheckError(f"{report_path}: {len(rows)} report rows")
    try:
        got = tuple(int(x) for x in rows[0][:3])
    except ValueError as exc:
        raise CheckError(f"{report_path}: {exc}") from exc
    if got != want:
        raise CheckError(f"{report_path}: tp/fp/fn {got}, recount gives {want}")
