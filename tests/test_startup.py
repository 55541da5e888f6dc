"""Start-up footprint: the modules `import contextner` and each command load.

Every case runs in a fresh interpreter, so modules this test process has
already imported cannot hide what a command loads. Only modules loaded
after the probe starts count; whatever the interpreter loads on its own
(site hooks, for instance) is left out.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PIPELINE_MODULES = {
    "contextner.acquire",
    "contextner.annotations",
    "contextner.evaluate",
    "contextner.model",
    "contextner.recognize",
    "contextner.weighting",
    "contextner.extract",
    "contextner.corpus",
}
ACQUISITION_MODULES = {"contextner.acquire", "_sha1", "html"}

COMMANDS = {
    "acquire": ["acquire", "examples.tsv", "corpus", "--fixtures", "fixtures"],
    "weigh": [
        "weigh", "examples.tsv", "corpus", "--model-dir", "model", "--output", "table.tsv",
    ],
    "weigh-table-only": ["weigh", "examples.tsv", "corpus", "--output", "table-only.tsv"],
    "recognize": ["recognize", "model", "corpus", "--output", "annotations.tsv"],
    "evaluate": ["evaluate", "annotations.tsv", "gold.tsv", "--output", "report.tsv"],
    "growth": [
        "growth", "examples.tsv", "corpus", "--steps", "1,2", "--output", "growth.tsv",
    ],
}

# The contextner modules each command loads besides SHARED_MODULES, which
# every command loads. Recognize reads the model directory through `model`,
# not `weighting`; weigh writes its table through `model`, not `recognize`;
# growth writes no table, so it does not load `model`; and only acquire
# loads `acquire`, which holds the markup cleaner.
SHARED_MODULES = {
    "contextner", "contextner.cli", "contextner.errors", "contextner.record",
    "contextner.seeds", "contextner.tsv",
}
TRAINING_MODULES = {
    "contextner.corpus", "contextner.extract", "contextner.model", "contextner.weighting",
}
COMMAND_MODULES = {
    "acquire": {"contextner.acquire", "contextner.corpus"},
    "weigh": TRAINING_MODULES,
    "weigh-table-only": TRAINING_MODULES,
    "recognize": {
        "contextner.annotations", "contextner.corpus", "contextner.extract",
        "contextner.model", "contextner.recognize",
    },
    "evaluate": {"contextner.annotations", "contextner.evaluate"},
    "growth": TRAINING_MODULES - {"contextner.model"},
}


def loaded_by(code: str, cwd: Path) -> set[str]:
    """Modules that running `code` in a fresh interpreter loads."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory) -> dict[str, set[str]]:
    """Run the five commands in pipeline order on a two-page corpus."""
    work = tmp_path_factory.mktemp("startup")
    (work / "examples.tsv").write_text(
        "surface\tclass\nParis\tcapital\nBerlin\tcapital\n", encoding="utf-8"
    )
    fixtures = work / "fixtures"
    fixtures.mkdir()
    (fixtures / "queries.tsv").write_text(
        "query\turi\tfile\n"
        "Paris\thttp://a.example/p1\tp1.txt\n"
        "Berlin\thttp://b.example/b1\tb1.html\n",
        encoding="utf-8",
    )
    for name, text in [
        ("p1.txt", "Hotels in Paris. Map of Paris here.\n"),
        ("b1.html", "<p>Hotels in Berlin today.</p>\n"),
    ]:
        (fixtures / name).write_text(text, encoding="utf-8")
    (work / "gold.tsv").write_text(
        "doc\tstart_token\tend_token\tclass\nec66e712a422\t2\t2\tcapital\n",
        encoding="utf-8",
    )
    loads = {}
    for name, argv in COMMANDS.items():
        loads[name] = loaded_by(
            f"from contextner.cli import main\nassert main({argv!r}) == 0", work
        )
    return loads


def test_import_contextner_loads_no_submodule(tmp_path):
    loaded = loaded_by("import contextner", tmp_path)
    assert "contextner" in loaded
    assert not {m for m in loaded if m.startswith("contextner.")}


def test_import_cli_loads_no_pipeline_module(tmp_path):
    loaded = loaded_by("import contextner.cli", tmp_path)
    assert "contextner.cli" in loaded
    assert not loaded & PIPELINE_MODULES


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_only_its_modules(command_loads, command):
    loaded = {m for m in command_loads[command] if m.partition(".")[0] == "contextner"}
    assert loaded == SHARED_MODULES | COMMAND_MODULES[command]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_does_not_load_dataclasses(command_loads, command):
    assert "dataclasses" not in command_loads[command]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_does_not_load_html_parser(command_loads, command):
    # Markup is stripped by one regular expression, not by html.parser.
    assert not command_loads[command] & {"html.parser", "_markupbase"}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_does_not_load_thread_pools_or_logging(command_loads, command):
    # Acquire fetches in order on the calling thread.
    assert not command_loads[command] & {"concurrent.futures", "logging"}


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "acquire"])
def test_only_acquire_loads_acquisition_modules(command_loads, command):
    assert not command_loads[command] & ACQUISITION_MODULES


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_does_not_load_openssl(command_loads, command):
    # Acquire hashes document ids with the interpreter's own SHA-1 module,
    # and no other command hashes. Only on a build without `_sha1` does
    # acquire fall back to hashlib, which loads OpenSSL.
    fallback = command == "acquire" and importlib.util.find_spec("_sha1") is None
    assert fallback or not command_loads[command] & {"hashlib", "_hashlib"}


def test_evaluate_loads_only_the_span_files_and_scoring(command_loads):
    loaded = command_loads["evaluate"]
    assert {"contextner.annotations", "contextner.evaluate"} <= loaded
    assert not loaded & {
        "contextner.recognize",
        "contextner.weighting",
        "contextner.extract",
        "contextner.corpus",
    }
