"""The process entry points and the cyclic garbage collector.

`python -m contextner` and the `contextner` script run a command with the
collector off and freeze every object before the process exits; `cli.main`
called in-process leaves the caller's collector as it found it. That is
safe only while a command leaves no cyclic garbage that grows with its
input, which the last test checks.
"""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from contextner import cli
from contextner.__main__ import run

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Prints, as the process exits, whether the collector is on and how many
# objects are frozen, after whatever the command wrote to stderr.
EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(f'probe {gc.isenabled()} {gc.get_freeze_count()}',"
    " file=sys.stderr))\n"
)
ENTRY_CODE = {
    # What `python -m contextner` runs, through the public runpy API.
    "module": EXIT_PROBE
    + "import runpy\nrunpy.run_module('contextner', run_name='__main__', alter_sys=True)\n",
    # What the `contextner` console script runs.
    "script": EXIT_PROBE + "from contextner.__main__ import run\nsys.exit(run())\n",
}


def python(code_or_module, args, cwd, module=False):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    launch = ["-m", code_or_module] if module else ["-c", code_or_module]
    return subprocess.run(
        [sys.executable, *launch, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Examples, a two-document corpus and a model trained on it."""
    work = tmp_path_factory.mktemp("entry")
    (work / "examples.tsv").write_text(
        "surface\tclass\nParis\tcapital\nBerlin\tcapital\n", encoding="utf-8"
    )
    (work / "bad.tsv").write_text("surface\tclass\n...\tcapital\n", encoding="utf-8")
    fixtures = work / "fixtures"
    fixtures.mkdir()
    (fixtures / "queries.tsv").write_text(
        "query\turi\tfile\nParis\thttp://a.example/p1\tp1.txt\n"
        "Berlin\thttp://b.example/b1\tb1.txt\n",
        encoding="utf-8",
    )
    (fixtures / "p1.txt").write_text("Hotels in Paris. Map of Paris here.\n", encoding="utf-8")
    (fixtures / "b1.txt").write_text("Hotels in Berlin today.\n", encoding="utf-8")
    examples, corpus = str(work / "examples.tsv"), str(work / "corpus")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["acquire", examples, corpus, "--fixtures", str(fixtures)]) == 0
        assert cli.main(["weigh", examples, corpus, "--model-dir", str(work / "model")]) == 0
    return work


# Each command with the exit code it ends with.
COMMANDS = {
    "weigh": (["weigh", "examples.tsv", "corpus"], 0),
    "recognize": (["recognize", "model", "corpus"], 0),
    "usage error": (["weigh", "examples.tsv"], 2),
    "no words": (["weigh", "bad.tsv", "corpus"], 4),
    "missing file": (["recognize", "nomodel", "corpus"], 2),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_main_in_process_leaves_the_collector_as_it_found_it(
    workspace, capsys, monkeypatch, enabled
):
    monkeypatch.chdir(workspace)
    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for argv, code in COMMANDS.values():
            assert cli.main(argv) == code
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        gc.enable() if was_enabled else gc.disable()
    capsys.readouterr()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_entry_points_end_with_the_collector_off_and_objects_frozen(workspace, command):
    argv, code = COMMANDS[command]
    # cli.main as the whole process, with the interpreter's own collector.
    direct = python(
        "import sys\nfrom contextner.cli import main\nsys.exit(main())\n", argv, workspace
    )
    assert direct.returncode == code
    expected = (direct.returncode, direct.stdout, direct.stderr)
    plain = python("contextner", argv, workspace, module=True)
    assert (plain.returncode, plain.stdout, plain.stderr) == expected
    for entry in ENTRY_CODE.values():
        result = python(entry, argv, workspace)
        *stderr, probe = result.stderr.decode().splitlines(keepends=True)
        enabled, frozen = re.fullmatch(r"probe (\w+) (\d+)\n", probe).groups()
        assert enabled == "False"
        assert int(frozen) > 0
        assert (result.returncode, result.stdout, "".join(stderr).encode()) == expected


def test_console_script_names_the_entry_function():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^contextner = "([\w.]+):(\w+)"$', text, re.M).groups()
    assert (module, name) == (run.__module__, run.__name__)


# -- cyclic garbage ----------------------------------------------------------------


def write_world(directory: Path, scale: int) -> list[list[str]]:
    """A world of three pages per `scale`; returns the acquire, weigh and
    recognize commands that run on it."""
    directory.mkdir()
    (directory / "examples.tsv").write_text(
        "surface\tclass\nParis\tcapital\nBerlin\tcapital\nU.S.\tcapital\n", encoding="utf-8"
    )
    fixtures = directory / "fixtures"
    fixtures.mkdir()
    rows = ["query\turi\tfile"]
    for n in range(scale):
        for query in ("Paris", "Berlin", "U.S."):
            name = f"{query[0]}{n}.html"
            rows.append(f"{query}\thttp://h{n % 3}.example/{name}\t{name}")
            (fixtures / name).write_text(
                f"<p>Hotels in {query} and more.</p> Map{n} of {query} <b>{n}</b>. "
                f"Flights to Rome{n} today. Hotels in Oslo{n} now, Map{n} of Lima.\n" * 3,
                encoding="utf-8",
            )
    (fixtures / "queries.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    examples, corpus, model = (
        str(directory / name) for name in ("examples.tsv", "corpus", "model")
    )
    return [
        ["acquire", examples, corpus, "--fixtures", str(fixtures), "--max-results", "100"],
        ["weigh", examples, corpus, "--model-dir", model, "--output", str(directory / "t.tsv")],
        ["recognize", model, corpus, "--output", str(directory / "a.tsv")],
    ]


def cyclic_garbage(commands: list[list[str]]) -> list[int]:
    """The unreachable objects each command leaves, run in-process with
    the collector off."""
    found = []
    was_enabled = gc.isenabled()
    try:
        for argv in commands:
            gc.collect()
            gc.disable()
            assert cli.main(argv) == 0
            found.append(gc.collect())
    finally:
        gc.enable() if was_enabled else gc.disable()
    return found


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path, capsys):
    # A first run loads every module and fills the interpreter's caches.
    cyclic_garbage(write_world(tmp_path / "warm", 1))
    small = cyclic_garbage(write_world(tmp_path / "small", 4))
    large = cyclic_garbage(write_world(tmp_path / "large", 16))
    capsys.readouterr()
    # Four times the documents leave the same cyclic garbage.
    assert len(list((tmp_path / "small" / "corpus" / "docs").iterdir())) == 12
    assert len(list((tmp_path / "large" / "corpus" / "docs").iterdir())) == 48
    assert large == small
