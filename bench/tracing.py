"""Span tracer for the benchmark's traced, in-process run.

`Tracer.install` wraps every public function of every `contextner`
module, plus the public methods of its plain (non-dataclass, non-error)
classes, and rebinds each wrapper wherever a module holds the original:
modules import one another's functions by name, so patching only the
defining module would miss most calls. A span is (name, start, end,
parent). Work handed to a thread pool keeps as parent the span that
submitted it, so fetches on worker threads count under `acquire`.

Spans stay in memory; `write` dumps them once, when the benchmark ends.
A function named in LAYER_METRICS that the program no longer has is
reported as absent and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Called too often to time without distorting their callers: counted only.
COUNT_ONLY = {"recognize.vote", "recognize.classify"}

# Work done by one call, read from its arguments and result.
QUANTITIES = {
    "extract.tokenize": lambda a, k, r: {"tokens": len(r)},
    "extract.scan_tokenized": lambda a, k, r: {
        "occurrences": len(r),
        "with_example": sum(1 for o in r if o.with_example),
    },
    "extract.find_instances": lambda a, k, r: {"instances": len(r)},
    "extract.extract_context": lambda a, k, r: {"kept": int(r is not None)},
    "weighting.collect_context_stats": lambda a, k, r: {"contexts": len(r[0])},
    "recognize.detect_candidates": lambda a, k, r: {"candidates": len(r)},
    "recognize.recognize_document": lambda a, k, r: {
        "annotations": len(r),
        "decided": sum(1 for x in r if x.class_label != "unknown"),
    },
    "recognize.load_model": lambda a, k, r: {
        "model_contexts": sum(len(t) for t in r.tables.values())
    },
    "corpus.load_corpus": lambda a, k, r: {"docs": len(r)},
    "corpus.clean_text": lambda a, k, r: {"mb": len(a[0]) / 1e6},
    "tsv.read_rows": lambda a, k, r: {"rows": len(r)},
}

RATIOS = {
    "with_example_ratio": ("with_example", "occurrences"),
    "kept_ratio": ("kept", "calls"),
    "decided_ratio": ("decided", "annotations"),
}

# (metric name, unit, traced function, quantity). Quantities: s is the
# summed span time, self_s that time minus what child spans cover.
LAYER_METRICS = [
    ("extract.tokenize.s", "s", "extract.tokenize", "s"),
    ("extract.tokenize.tokens", "count", "extract.tokenize", "tokens"),
    ("extract.scan_tokenized.s", "s", "extract.scan_tokenized", "s"),
    ("extract.scan_tokenized.occurrences", "count", "extract.scan_tokenized", "occurrences"),
    ("extract.scan_tokenized.with_example_ratio", "ratio", "extract.scan_tokenized", "with_example_ratio"),
    ("extract.find_instances.s", "s", "extract.find_instances", "s"),
    ("extract.find_instances.instances", "count", "extract.find_instances", "instances"),
    ("extract.extract_context.s", "s", "extract.extract_context", "s"),
    ("extract.extract_context.kept_ratio", "ratio", "extract.extract_context", "kept_ratio"),
    ("weighting.collect_context_stats.self_s", "s", "weighting.collect_context_stats", "self_s"),
    ("weighting.collect_context_stats.contexts", "count", "weighting.collect_context_stats", "contexts"),
    ("weighting.build_weight_table.self_s", "s", "weighting.build_weight_table", "self_s"),
    ("weighting.format_weight_table.s", "s", "weighting.format_weight_table", "s"),
    ("recognize.detect_candidates.s", "s", "recognize.detect_candidates", "s"),
    ("recognize.detect_candidates.candidates", "count", "recognize.detect_candidates", "candidates"),
    ("recognize.recognize_document.self_s", "s", "recognize.recognize_document", "self_s"),
    ("recognize.vote.calls", "count", "recognize.vote", "calls"),
    ("recognize.classify.calls", "count", "recognize.classify", "calls"),
    ("recognize.decided_ratio", "ratio", "recognize.recognize_document", "decided_ratio"),
    ("recognize.load_model.s", "s", "recognize.load_model", "s"),
    ("recognize.load_model.model_contexts", "count", "recognize.load_model", "model_contexts"),
    ("recognize.update_model.s", "s", "recognize.update_model", "s"),
    ("recognize.write_annotations.s", "s", "recognize.write_annotations", "s"),
    ("corpus.load_corpus.s", "s", "corpus.load_corpus", "s"),
    ("corpus.load_corpus.docs", "count", "corpus.load_corpus", "docs"),
    ("corpus.save_corpus.s", "s", "corpus.save_corpus", "s"),
    ("corpus.clean_text.s", "s", "corpus.clean_text", "s"),
    ("corpus.clean_text.mb", "MB", "corpus.clean_text", "mb"),
    ("acquire.fetch.s", "s", "acquire.fetch", "s"),
    ("acquire.fetches", "count", "acquire.fetch", "calls"),
    ("acquire.failed_fetches", "count", "acquire.fetch", "failures"),
    ("acquire.acquire.self_s", "s", "acquire.acquire", "self_s"),
    ("evaluate.growth_curve.self_s", "s", "evaluate.growth_curve", "self_s"),
    ("evaluate.evaluate.s", "s", "evaluate.evaluate", "s"),
    ("tsv.read_rows.s", "s", "tsv.read_rows", "s"),
    ("tsv.read_rows.rows", "count", "tsv.read_rows", "rows"),
    ("tsv.format_rows.s", "s", "tsv.format_rows", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]

# Span record fields.
_NAME, _START, _END, _PARENT, _FAILED, _QTY = range(6)


def _covered(start: int, end: int, children: list[list]) -> int:
    """Nanoseconds of [start, end] covered by the union of child spans."""
    total = 0
    reach = start
    for child in sorted(children, key=lambda c: c[_START]):
        lo = max(child[_START], reach)
        hi = min(child[_END], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self.rounds: list[list[list]] = []
        self._count_lock = threading.Lock()
        self._stacks: dict[int, list[list]] = {}

    def install(self, package: str = "contextner") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"
        ]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif (
                    inspect.isclass(obj)
                    and not dataclasses.is_dataclass(obj)
                    and not issubclass(obj, BaseException)
                ):
                    for name, method in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(method):
                            setattr(obj, name, self._wrap(f"{short}.{name}", method))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self._propagate_through_pools()

    def _propagate_through_pools(self) -> None:
        stacks = self._stacks
        submit = ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            own = stacks.get(threading.get_ident())
            if not own:
                return submit(pool, fn, *args, **kwargs)
            parent = own[-1]

            def run(*a, **k):
                stack = stacks.setdefault(threading.get_ident(), [])
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return submit(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = traced_submit

    def _wrap(self, name: str, func):
        self.present.add(name)
        if name in COUNT_ONLY:
            counts, lock = self.counts, self._count_lock

            @functools.wraps(func)
            def counted(*args, **kwargs):
                with lock:
                    counts[name] += 1
                return func(*args, **kwargs)

            return counted

        hook = QUANTITIES.get(name)
        stacks, clock = self._stacks, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            rec = [name, clock(), 0, stack[-1] if stack else None, 0, {}]
            stack.append(rec)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                rec[_FAILED] = 1
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
                self.spans.append(rec)
            if hook is not None:
                try:
                    rec[_QTY] = hook(args, kwargs, result)
                except Exception:  # the program's API moved; drop the quantity
                    rec[_QTY] = None
            return result

        return traced

    def start_round(self) -> None:
        self.spans = []
        self.counts.clear()

    def end_round(self) -> dict[str, dict[str, float]]:
        """Per-function totals of the round: s, self_s, calls, failures, quantities."""
        self.rounds.append(self.spans)
        children: dict[int, list[list]] = defaultdict(list)
        for rec in self.spans:
            if rec[_PARENT] is not None:
                children[id(rec[_PARENT])].append(rec)
        agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec in self.spans:
            totals = agg[rec[_NAME]]
            duration = rec[_END] - rec[_START]
            totals["s"] += duration / 1e9
            totals["self_s"] += (duration - _covered(rec[_START], rec[_END], children[id(rec)])) / 1e9
            totals["calls"] += 1
            totals["failures"] += rec[_FAILED]
            if rec[_QTY] is None:
                totals["hook_errors"] += 1
            else:
                for key, value in rec[_QTY].items():
                    totals[key] += value
        for name, calls in self.counts.items():
            agg[name]["calls"] += calls
        return agg

    def layer_metrics(self, agg: dict[str, dict[str, float]]) -> tuple[dict[str, float], list[str]]:
        """LAYER_METRICS values from one round's totals, plus the names of
        metrics that could not be measured (absent function or moved API)."""
        values: dict[str, float] = {}
        missing: list[str] = []
        for metric, _unit, func, qty in LAYER_METRICS:
            totals = agg.get(func, {})
            if func not in self.present or totals.get("hook_errors"):
                missing.append(metric)
                values[metric] = 0.0
            elif qty in RATIOS:
                num, den = RATIOS[qty]
                values[metric] = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
            else:
                values[metric] = float(totals.get(qty, 0.0))
        return values, missing

    def write(self, path: Path) -> None:
        """Dump every traced round's spans as [name, start_ns, end_ns, parent index]."""
        out = []
        for spans in self.rounds:
            index = {id(rec): i for i, rec in enumerate(spans)}
            out.append(
                [
                    [rec[_NAME], rec[_START], rec[_END], index.get(id(rec[_PARENT]), -1)]
                    for rec in spans
                ]
            )
        path.write_text(json.dumps({"rounds": out}), encoding="utf-8")
