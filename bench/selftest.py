"""Show that the benchmark's output checks are live.

    python3 bench/selftest.py [--seed N]

For each workload, runs one round of CLI commands, confirms every check
passes on the real outputs, then corrupts one output per check (a
cleaned page, a weight, a growth count, an entity span, a runner-up
score, a report count) and confirms that the check now fails. Exits 0
only if every corruption is caught. Files go under .bench_work/ and are
removed afterwards.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
from world import SHAPES, build_world, write_world


def _edit_row(path: Path, match, edit) -> None:
    """Rewrite the first data row for which match(fields) holds."""
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split("\t")
        if line and match(fields):
            lines[i] = "\t".join(edit(fields))
            path.write_text("\n".join(lines), encoding="utf-8")
            return
    raise RuntimeError(f"no row to corrupt in {path}")


def _corruptions(world, world_dir: Path, out: Path):
    """(check name, what is corrupted, corrupt(), check()) for each check."""
    cw = world.classes[0]
    corpus = out / f"corpus_{cw.label}"
    table = out / f"table_{cw.label}.tsv"
    growth = out / f"growth_{cw.label}.tsv"
    annotations = out / "annotations.tsv"
    report = out / "report.tsv"
    gold = world.gold[0]

    def page():
        rel = checks.read_tsv(corpus / "manifest.tsv", ["id", "source", "uri", "kind", "file"])[0][4]
        path = corpus / rel
        words = path.read_text(encoding="utf-8").split(" ")
        words[len(words) // 2] += "x"
        path.write_text(" ".join(words), encoding="utf-8")

    def weight(fields):
        return fields[:5] + [f"{float(fields[5]) * 1.001:.7g}"]

    def final_count(fields):
        return [fields[0], str(int(fields[1]) + 1), fields[2]]

    def span(fields):
        return fields[:2] + [str(int(fields[2]) + 1)] + fields[3:]

    def runner_up(fields):
        return fields[:6] + [fields[5]]

    def tp(fields):
        return [str(int(fields[0]) + 1)] + fields[1:]

    is_gold = lambda f: (f[0], int(f[1]), int(f[2])) == (gold.doc, gold.first, gold.last)
    last_row = lambda f: int(f[0]) == len(cw.docs)
    decided = lambda f: f[4] != "unknown"
    anything = lambda f: True
    return [
        ("acquire", "one word of a cleaned page", page,
         lambda: checks.check_acquire(cw, corpus)),
        ("weigh", "one context's weight w (x1.001)", lambda: _edit_row(table, anything, weight),
         lambda: checks.check_weigh(cw, table, out / "model")),
        ("growth", "the final occurrence count (+1)", lambda: _edit_row(growth, last_row, final_count),
         lambda: checks.check_growth(cw, growth)),
        ("recognize", "one planted entity's end token (+1)", lambda: _edit_row(annotations, is_gold, span),
         lambda: checks.check_recognize(world, annotations)),
        ("recognize", "one decision's runner-up (= score)", lambda: _edit_row(annotations, decided, runner_up),
         lambda: checks.check_recognize(world, annotations)),
        ("evaluate", "the true-positive count (+1)", lambda: _edit_row(report, anything, tp),
         lambda: checks.check_evaluate(annotations, world_dir / "gold.tsv", report)),
    ]


def selftest(workload: str, seed: int, base: Path) -> int:
    world = build_world(workload, seed)
    world_dir = base / "world"
    write_world(world, world_dir)
    out = base / "round"
    out.mkdir()
    misses = 0
    ops = run.plan_round(world, world_dir, out)
    with run.Launcher() as launcher:
        for n, op in enumerate(ops):
            code, _wall, _rss = launcher.run(op.argv, out / f"op{n:02d}")
            if code != 0:
                print(f"{workload}: {op.kind} exited {code}", file=sys.stderr)
                return 1
    for op in ops:
        try:
            op.check()
        except checks.CheckError as exc:
            print(f"{workload}: {op.kind} check fails on real output: {exc}")
            return 1
    print(f"{workload}: all {len(ops)} checks pass on the real outputs")
    pristine = base / "pristine"
    shutil.copytree(out, pristine)
    for name, what, corrupt, check in _corruptions(world, world_dir, out):
        corrupt()
        try:
            check()
        except checks.CheckError as exc:
            print(f"{workload}: {name} check catches corrupted {what}: {exc}")
        else:
            print(f"{workload}: {name} check MISSES corrupted {what}")
            misses += 1
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
    return misses


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (run.SRC / "contextner" / "__init__.py").is_file():
        print(f"error: no contextner sources under {run.SRC}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    misses = 0
    for workload in sorted(SHAPES):
        base = Path(tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.WORK))
        try:
            misses += selftest(workload, args.seed, base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
    print("selftest:", "FAILED" if misses else "every corruption caught")
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
