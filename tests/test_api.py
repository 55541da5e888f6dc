"""Each public name imports from the module that defines it, and only
there, each public function the package defines has a caller in it, and
only `tsv` opens, probes or replaces a file."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import contextner

ROOT = Path(__file__).resolve().parent.parent

# Every public name, by the module to import it from.
PUBLIC = {
    "acquire": [
        "AcquireResult", "AcquisitionError", "ClientError", "FixtureClient",
        "SearchClient", "acquire", "build_queries", "clean_text",
    ],
    "annotations": ["Annotation", "GoldAnnotation", "load_gold"],
    "corpus": [
        "CorpusManifest", "Document", "load_corpus", "normalize_source", "save_corpus",
    ],
    "errors": ["DataFormatError", "EmptyResultError", "InputError", "PipelineError"],
    "evaluate": ["EvalReport", "evaluate"],
    "extract": [
        "ContextKey", "InstanceOccurrence", "WordSequence", "find_instances",
        "instance_index", "tokenize",
    ],
    "recognize": [
        "UNKNOWN", "RecognitionModel", "classify", "detect_candidates", "load_model",
        "recognize_corpus", "recognize_document",
    ],
    "seeds": ["LearningExample", "load_examples"],
    "weighting": [
        "ContextStats", "GlobalStats", "GrowthPoint", "WeightedContext",
        "WeightTable", "build_weight_table", "collect_context_stats", "context_frequency",
        "context_weight", "document_frequency", "growth_curve",
        "inverse_context_frequency", "learning_example_frequency",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"contextner.{module}"), name)
    if name == "UNKNOWN":
        # The label constant: `contextner.seeds` defines it.
        assert defined is importlib.import_module("contextner.seeds").UNKNOWN
    else:
        # A class or function is defined by its module, not re-exported.
        assert defined.__module__ == f"contextner.{module}"
    # The package binds no public name of its own: `contextner.acquire`
    # and `contextner.evaluate` are the submodules, not the functions.
    assert getattr(contextner, name, None) is not defined


def names_in(tree):
    """Every name a tree refers to: as a name, an attribute, or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def library_use_calls():
    """The names README's "Library use" example calls."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n+```python\n(.*?)```", readme, re.S).group(1)
    calls = (node.func for node in ast.walk(ast.parse(block)) if isinstance(node, ast.Call))
    return {f.id if isinstance(f, ast.Name) else f.attr for f in calls}


def test_every_public_function_has_a_caller_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "contextner").glob("*.py"))
    }
    referenced = Counter(name for tree in trees.values() for name in names_in(tree))
    defined = []  # (where, the definition)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}", item) for item in node.body]
            else:
                defined.append((module, node))
    exempt = library_use_calls()
    uncalled = [
        f"{where}.{node.name}"
        for where, node in defined
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in exempt
        # Names inside its own body (a recursive call) are no caller.
        and referenced[node.name] == Counter(names_in(node))[node.name]
    ]
    assert uncalled == []


# Calls that open, probe or replace a file. Only `tsv` makes them, so
# that its guard decides what an entry of a package directory may be.
OS_FILE_CALLS = {"open", "stat", "lstat", "replace"}
PATH_PROBES = {"exists", "is_file", "is_symlink"}


def file_calls(tree):
    """Each call in a tree that opens, probes or replaces a file, as
    (enclosing top-level function, source), skipping `tsv.<name>(...)`."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                hit = func.id == "open"
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                hit = owner == "os" and func.attr in OS_FILE_CALLS or owner != "tsv" and (
                    func.attr in PATH_PROBES or func.attr.startswith(("read_", "write_"))
                )
            else:
                hit = False
            if hit:
                yield getattr(top, "name", None), ast.unparse(node)


def test_file_calls_are_found():
    source = (
        "def f(p):\n"
        "    open(p); os.lstat(p); os.replace(p, p); p.exists(); p.parent.is_file()\n"
        "    p.is_symlink(); p.read_text(); p.write_bytes(b''); tsv.read_rows(p)\n"
    )
    assert [call for _, call in file_calls(ast.parse(source))] == [
        "open(p)", "os.lstat(p)", "os.replace(p, p)", "p.exists()", "p.parent.is_file()",
        "p.is_symlink()", "p.read_text()", "p.write_bytes(b'')",
    ]


def test_only_tsv_opens_probes_or_replaces_a_file():
    found = []
    for path in sorted((ROOT / "src" / "contextner").glob("*.py")):
        if path.name == "tsv.py":
            continue
        for function, call in file_calls(ast.parse(path.read_text(encoding="utf-8"))):
            # main sends a closed stdout to the null device, which is no file.
            if (path.name, function, call) != ("cli.py", "main", "os.open(os.devnull, os.O_WRONLY)"):
                found.append(f"{path.name}: {call}")
    assert found == []
