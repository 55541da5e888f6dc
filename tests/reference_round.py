"""A reference round: a small world run through every command.

The world is built here, not taken from the benchmark: three classes,
plain and markup pages (a character reference, a comment and a `>` in a
quoted attribute value), one text served under two URIs, a dead link,
and the punctuated words `U.S.`, `(Paris`, `far-right` and `Bush's`.
Each command runs as a `python -m contextner` child in the world's
directory, so every path it prints is relative. A round is summed up as
one line per command (its exit code and the SHA-256 of its stdout and
stderr) and one line per file it leaves (the file's SHA-256).

`tests/test_round.py` checks a round against `tests/data/round.sha256`
under two hash seeds. A change that alters an output on purpose
rewrites that file with

    python tests/reference_round.py

and names each changed line in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "round.sha256"

PAGES = {
    "paris.txt": (
        "Hotels in Paris are cheap. The mayor of Paris spoke. Flights to Berlin leave daily.\n"
        "The U.S. embassy in Paris is large. Hotels in Rome are full.\n"
    ),
    "berlin.html": (
        "<html><head><title>Trip</title><!-- Hotels in Oslo --></head><body>\n"
        "<p>Hotels in <b>Berlin</b> &amp; Hotels in Madrid are open.</p>\n"
        '<a title="a > b" href="map.html">Map of Rome</a> (Paris is near.\n'
        "The far-right party met in Vienna. Flights to Madrid leave daily.</body></html>\n"
    ),
    "bush.txt": (
        "President Bush spoke today. Bush's speech was long. Senator Obama answered.\n"
        "President Obama visited Paris. President Carter spoke today. Senator Carter answered.\n"
    ),
    "obama.html": (
        "<p>President <i>Obama</i> spoke today &mdash; Senator Kerry answered.</p>\n"
        "<p>The far-right group met Senator Obama. President Kerry visited Berlin.</p>\n"
    ),
    "green.txt": (
        "The Greens party won. Voters of the Greens party cheered. The Labour party lost.\n"
        "Voters of the Labour party met in Paris. The far-right party met in Rome.\n"
    ),
}

# query, uri, file: one text under two URIs, and a dead link.
QUERIES = [
    ("Paris", "http://a.example/paris", "paris.txt"),
    ("Paris", "http://mirror.example/paris", "paris.txt"),
    ("Berlin", "http://b.example/berlin", "berlin.html"),
    ("Berlin", "http://gone.example/berlin", "gone.txt"),
    ("Bush", "http://c.example/bush", "bush.txt"),
    ("Obama", "http://d.example/obama", "obama.html"),
    ("Greens", "http://e.example/greens", "green.txt"),
]

EXAMPLES = {
    "capital.tsv": [("Paris", "capital"), ("Berlin", "capital")],
    "person.tsv": [("Bush", "person"), ("Obama", "person")],
    "party.tsv": [("Greens", "party")],
}

# The commands of a round, in order: each one's label and arguments.
STEPS = [
    ("acquire capital", ["acquire", "capital.tsv", "corpus", "--fixtures", "fixtures"]),
    ("acquire person", ["acquire", "person.tsv", "corpus", "--fixtures", "fixtures"]),
    ("acquire party", ["acquire", "party.tsv", "corpus", "--fixtures", "fixtures"]),
    ("weigh capital left", ["weigh", "capital.tsv", "corpus", "--model-dir", "left"]),
    ("weigh person left", [
        "weigh", "person.tsv", "corpus", "--context-len", "1", "--model-dir", "left",
        "--output", "person_left.tsv",
    ]),
    ("weigh party left", ["weigh", "party.tsv", "corpus", "--model-dir", "left"]),
    ("weigh capital right", [
        "weigh", "capital.tsv", "corpus", "--side", "right", "--model-dir", "right",
    ]),
    ("weigh person right", [
        "weigh", "person.tsv", "corpus", "--side", "right", "--model-dir", "right",
    ]),
    ("recognize left", ["recognize", "left", "corpus", "--output", "left.tsv"]),
    ("recognize right", [
        "recognize", "right", "corpus", "--side", "right", "--threshold", "0.1",
    ]),
    ("recognize a file as a model", ["recognize", "gold.tsv", "corpus"]),
    ("evaluate", ["evaluate", "left.tsv", "gold.tsv", "--output", "report.tsv"]),
    ("growth", ["growth", "capital.tsv", "corpus", "--steps", "2,4", "--output", "growth.tsv"]),
]


def doc_id(uri: str) -> str:
    """A document's id, as acquire gives it: the first 12 hex digits of
    its URI's SHA-1."""
    return hashlib.sha1(uri.encode("utf-8")).hexdigest()[:12]


def build_world(directory: Path) -> None:
    """Write the fixtures, the example files and the gold file."""
    fixtures = directory / "fixtures"
    fixtures.mkdir(parents=True)
    rows = ["query\turi\tfile", *("\t".join(row) for row in QUERIES)]
    (fixtures / "queries.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for name, text in PAGES.items():
        (fixtures / name).write_text(text, encoding="utf-8")
    for name, examples in EXAMPLES.items():
        rows = ["surface\tclass", *("\t".join(row) for row in examples)]
        (directory / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    # Rome, Madrid, Carter and Kerry are the names no example gives.
    gold = [
        (doc_id("http://a.example/paris"), 24, 24, "capital"),
        (doc_id("http://b.example/berlin"), 6, 6, "capital"),
        (doc_id("http://b.example/berlin"), 23, 23, "capital"),
        (doc_id("http://c.example/bush"), 15, 16, "person"),
    ]
    rows = ["doc\tstart_token\tend_token\tclass", *("\t".join(map(str, g)) for g in gold)]
    (directory / "gold.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_round(hash_seed: str) -> list[str]:
    """The lines that sum up one round, run under PYTHONHASHSEED=`hash_seed`."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        world = Path(scratch)
        build_world(world)
        before = {p for p in world.rglob("*")}
        for label, args in STEPS:
            result = subprocess.run(
                [sys.executable, "-m", "contextner", *args],
                cwd=world,
                env=env,
                capture_output=True,
                timeout=60,
            )
            lines.append(f"exit {result.returncode}  {label}")
            lines.append(f"{sha256(result.stdout)}  {label}: stdout")
            lines.append(f"{sha256(result.stderr)}  {label}: stderr")
        for path in sorted(world.rglob("*")):
            if path not in before and path.is_file():
                lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(world).as_posix()}")
    return lines


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text("\n".join(run_round("0")) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
