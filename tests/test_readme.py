"""The README's code blocks run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import contextner
from conftest import make_corpus
from contextner.corpus import save_corpus

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(contextner.__file__).resolve().parents[1]


def readme_block(heading: str, lang: str) -> str:
    """The first `lang` code block under the README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_use_snippet_runs(tmp_path, monkeypatch):
    corpus = make_corpus(
        "Hotels in Paris are fine.",
        "Hotels in Berlin are fine.",
        "Hotels in Rome are fine.",
    )
    save_corpus(corpus, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(readme_block("Library use", "python"), namespace)
    decided = {(a.surface, a.class_label) for a in namespace["annotations"]}
    assert ("Rome", "capital") in decided


def test_command_line_walkthrough_runs(tmp_path):
    script = 'contextner() { "$PYTHON" -m contextner "$@"; }\n'
    script += readme_block("Command-line walkthrough", "sh")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHON=sys.executable, PYTHONPATH=path)
    result = subprocess.run(
        ["bash", "-e", "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "precision        1\nrecall           1\n" in result.stdout
