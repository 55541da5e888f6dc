"""Planted-world benchmark of the contextner command-line pipeline.

Usage (from the repository root, no install needed):

    python3 bench/run.py --workload snippets --seed 1 --seconds 45 --trace 0

Set-up generates the workload's world from the seed (see world.py) and
writes it out. The run then repeats whole rounds of `acquire` (per
class) -> `weigh` (per class, into one model) -> `growth` (per class)
-> `recognize` -> `evaluate` until --seconds have passed, setting up
again after each round; setup_s is the median of all set-ups. Each
command is a `python -m contextner` child started by the launcher
(spawn.py), one at a time (a closed loop with one client), with its
wall time taken around the child and its peak RSS from the child's own
rusage. After a round, every command's output is checked against the
world's records; an operation fails if its command exits non-zero or
its check fails.

A shared host, such as the 2-core VM of README.md's reference figures,
can switch each of its processors on its own between a fast and a slow
speed (about 2x apart) from one second to the next, which moves every
raw figure of a run; see README.md, "Noise on a shared machine". So everything runs on one
processor, a thread (HostClock) times a small fixed piece of work on
it every 50 ms, and each timed step's wall time is scaled by the
reference speed over the speed sampled during it: end-to-end times and
throughputs are those of a host running at the reference machine's
median speed. The unscaled figures go to stderr.

With --trace 1 every round is followed, instead of the repeated
set-up, by the same commands run in-process through
`contextner.cli.main` under the span tracer (tracing.py), and the
per-layer metrics replace the end-to-end ones.
All files go to a temporary directory under .bench_work/, removed at
the end except for the trace's span dump.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from world import MAX_RESULTS, SHAPES, World, build_world, write_world

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKERS = min(2, len(os.sched_getaffinity(0)))
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "acquire_mb_per_s": "MB/s",
    "weigh_tokens_per_s": "tokens/s",
    "weigh_peak_rss_mb": "MB",
    "growth_tokens_per_s": "tokens/s",
    "recognize_tokens_per_s": "tokens/s",
    "recognize_peak_rss_mb": "MB",
}
SAMPLE_EVERY_S = 0.05
# speed_sample()'s median processor time on the reference machine (README.md).
SAMPLE_CPU_S = 0.00125
_SAMPLE_RE = re.compile(r"\w+")
_SAMPLE_TEXT = " ".join(f"Word{i % 89} text{i % 13}, and more{i % 7}." for i in range(300))


@dataclass
class Op:
    """One CLI command of a round, with the check of its output."""

    kind: str
    argv: list[str]
    check: Callable[[], None]
    work: float  # page bytes (acquire) or tokens (weigh, growth, recognize)


@dataclass
class Result:
    op: Op
    code: int
    wall: float
    rss_mb: float = 0.0
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter() at its start and end
    scaled: float = 0.0  # wall time at the reference speed


def speed_sample() -> float:
    """Processor time of a fixed piece of work of the program's kind
    (regex tokens, dict counts) that depends on nothing else; seconds.
    Processor time, not wall time, so that it does not count the time
    the processor gives to a running command."""
    start = time.thread_time()
    counts: dict[str, int] = {}
    for m in _SAMPLE_RE.finditer(_SAMPLE_TEXT):
        word = m.group().lower()
        counts[word] = counts.get(word, 0) + 1
    return time.thread_time() - start


class HostClock:
    """Samples the host's speed on a thread of its own every
    SAMPLE_EVERY_S seconds, on the processor the commands run on."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter(), speed_sample())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append((time.perf_counter(), speed_sample()))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, span: tuple[float, float]) -> float:
        """The host's speed relative to the reference machine during a
        step, from the samples taken while it ran and one interval
        either side (so a short step has some)."""
        start, end = span[0] - SAMPLE_EVERY_S, span[1] + SAMPLE_EVERY_S
        return SAMPLE_CPU_S / statistics.fmean(s for t, s in self.samples if start <= t <= end)


def plan_round(world: World, world_dir: Path, out: Path) -> list[Op]:
    """The commands of one round, writing their outputs under `out`."""
    side = world.side_flags
    model = out / "model"
    annotations = out / "annotations.tsv"
    report = out / "report.tsv"
    gold = world_dir / "gold.tsv"
    ops: list[Op] = []
    for cw in world.classes:
        examples = world_dir / "examples" / f"{cw.label}.tsv"
        corpus = out / f"corpus_{cw.label}"
        ops.append(
            Op(
                "acquire",
                ["acquire", str(examples), str(corpus), "--fixtures", str(world_dir / "fixtures"),
                 "--max-results", str(MAX_RESULTS), "--workers", str(WORKERS)],
                lambda cw=cw, corpus=corpus: checks.check_acquire(cw, corpus),
                cw.page_bytes,
            )
        )
    for cw in world.classes:
        examples = world_dir / "examples" / f"{cw.label}.tsv"
        table = out / f"table_{cw.label}.tsv"
        ops.append(
            Op(
                "weigh",
                ["weigh", str(examples), str(out / f"corpus_{cw.label}"),
                 "--model-dir", str(model), "--output", str(table), *side],
                lambda cw=cw, table=table: checks.check_weigh(cw, table, model),
                cw.tokens,
            )
        )
    for cw in world.classes:
        examples = world_dir / "examples" / f"{cw.label}.tsv"
        growth = out / f"growth_{cw.label}.tsv"
        n = len(cw.docs)
        steps = ",".join(str(s) for s in sorted({max(1, n // 4), max(1, n // 2), n}))
        ops.append(
            Op(
                "growth",
                ["growth", str(examples), str(out / f"corpus_{cw.label}"),
                 "--steps", steps, "--output", str(growth), *side],
                lambda cw=cw, growth=growth: checks.check_growth(cw, growth),
                cw.tokens,
            )
        )
    ops.append(
        Op(
            "recognize",
            ["recognize", str(model), str(world_dir / "test"), "--output", str(annotations), *side],
            lambda: checks.check_recognize(world, annotations),
            world.test_tokens,
        )
    )
    ops.append(
        Op(
            "evaluate",
            ["evaluate", str(annotations), str(gold), "--output", str(report)],
            lambda: checks.check_evaluate(annotations, gold, report),
            0,
        )
    )
    return ops


class Launcher:
    """The spawn.py process, which runs each CLI command as its own child
    so that the child's peak RSS excludes this process's memory."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run `python -m contextner argv`; returns (exit code, wall s, peak RSS MB)."""
        request = [argv, str(log.with_suffix(".out")), str(log.with_suffix(".err"))]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        code, wall, rss = json.loads(reply)
        return code, wall, rss

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.terminate()  # the launcher ends its running command first
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_in_process(main: Callable, argv: list[str], log: Path) -> tuple[int, float]:
    """Run `main(argv)` with its output sent to log files; returns (code, wall s)."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - start
    return code, wall


class Tally:
    """Operations attempted and failed over a run, and whether all checks held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, results: list[Result], out: Path) -> int:
        """Check every output of one round; returns its failed operations."""
        failed = 0
        for n, res in enumerate(results):
            if res.code != 0:
                failed += 1
                err = (out / f"op{n:02d}.err").read_text(errors="replace")[-800:]
                print(f"FAIL {res.op.kind}: exit {res.code}\n{err}", file=sys.stderr)
                continue
            try:
                res.op.check()
            except (checks.CheckError, OSError) as exc:  # OSError: an output file is missing
                failed += 1
                self.correct = False
                print(f"FAIL {res.op.kind}: {exc}", file=sys.stderr)
        self.attempted += len(results)
        self.failed += failed
        return failed


def run_metrics(
    rounds: list[list[Result]],
    setups: list[float],
    took: Callable[[Result], float] = lambda r: r.scaled,
) -> dict[str, float]:
    """End-to-end metrics over every round without a failure, with each
    command's time read by `took` (by default its scaled time).

    Throughputs pool the whole run (total work over the total time of
    that command's runs) and pipeline_s is the mean round, the sum of
    its commands' times: these spread less between runs than per-round
    medians do. Peak RSS is the median of each round's largest child.
    """
    results = [r for done in rounds for r in done]

    def rate(kind: str) -> float:
        picked = [r for r in results if r.op.kind == kind]
        return sum(r.op.work for r in picked) / sum(took(r) for r in picked)

    def peak(kind: str) -> float:
        return statistics.median(
            max(r.rss_mb for r in done if r.op.kind == kind) for done in rounds
        )

    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.fmean(sum(took(r) for r in done) for done in rounds),
        "acquire_mb_per_s": rate("acquire") / 1e6,
        "weigh_tokens_per_s": rate("weigh"),
        "weigh_peak_rss_mb": peak("weigh"),
        "growth_tokens_per_s": rate("growth"),
        "recognize_tokens_per_s": rate("recognize"),
        "recognize_peak_rss_mb": peak("recognize"),
    }


def timed_setup(workload: str, seed: int, directory: Path) -> tuple[World, tuple[float, float]]:
    """Generate the world and write it to `directory`; returns it and
    perf_counter() at the start and the end."""
    start = time.perf_counter()
    world = build_world(workload, seed)
    write_world(world, directory)
    return world, (start, time.perf_counter())


def measure(args: argparse.Namespace, run_dir: Path, launcher: Launcher, clock: HostClock) -> dict:
    """Set up, run rounds for args.seconds, and return the result object."""
    world_dir = run_dir / "world"
    world, first_setup = timed_setup(args.workload, args.seed, world_dir)
    setups = [first_setup]
    tracer = cli_main = None
    if args.trace:
        sys.path.insert(0, str(SRC))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        import contextner.cli

        cli_main = contextner.cli.main

    tally = Tally()
    clean: list[list[Result]] = []
    layers: list[dict[str, float]] = []
    missing: set[str] = set()
    out = run_dir / "round"
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        out.mkdir()
        ops = plan_round(world, world_dir, out)
        results = []
        for n, op in enumerate(ops):
            start = time.perf_counter()
            code, wall, rss = launcher.run(op.argv, out / f"op{n:02d}")
            results.append(Result(op, code, wall, rss, (start, time.perf_counter())))
        wall = sum(r.wall for r in results)
        if tally.check(results, out) == 0:
            clean.append(results)
        shutil.rmtree(out)

        if tracer is None:
            # Set up again between rounds, so the median spans the run.
            _, span = timed_setup(args.workload, args.seed, run_dir / "setup")
            setups.append(span)
            shutil.rmtree(run_dir / "setup")
        else:
            out.mkdir()
            ops = plan_round(world, world_dir, out)
            tracer.start_round()
            start = time.perf_counter()
            results = [
                Result(op, *run_in_process(cli_main, op.argv, out / f"op{n:02d}"))
                for n, op in enumerate(ops)
            ]
            traced_wall = time.perf_counter() - start
            values, gone = tracer.layer_metrics(tracer.end_round())
            tally.check(results, out)
            values["trace.overhead_s"] = traced_wall - wall
            layers.append(values)
            missing.update(gone)
            shutil.rmtree(out)
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    if tracer is not None:
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
        if missing:
            print(f"not measured (absent or changed API): {sorted(missing)}", file=sys.stderr)
        units = {name: unit for name, unit, _f, _q in tracing.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        metrics = {
            name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
            for name, unit in units.items()
        }
    else:
        for r in (r for done in clean for r in done):
            r.scaled = r.wall * clock.speed(r.span)
        raw_setups = [end - start for start, end in setups]
        scaled_setups = [took * clock.speed(span) for took, span in zip(raw_setups, setups)]
        values = (
            run_metrics(clean, scaled_setups) if clean
            else {"setup_s": statistics.median(scaled_setups)}
        )
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
        if clean:
            unscaled = run_metrics(clean, raw_setups, lambda r: r.wall)
            print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
        quartiles = statistics.quantiles((s for _, s in clock.samples), n=4)
        print(f"speed sample quartiles (ms): {[round(q * 1e3, 4) for q in quartiles]}", file=sys.stderr)
    print(f"{rounds} rounds, {tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "contextner" / "__init__.py").is_file():
        print(f"error: no contextner sources under {SRC}", file=sys.stderr)
        return 2

    # Let a SIGTERM unwind, so the launcher and the temporary files go too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Run this process, the launcher and every command on one processor:
    # the shared host's processors change speed independently, so the
    # HostClock must sample the processor the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        clock = HostClock()
        try:
            with Launcher() as launcher:
                result = measure(args, run_dir, launcher, clock)
        finally:
            clock.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
