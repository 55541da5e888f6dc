"""The process entry point: `python -m contextner` and the `contextner` script.

A command builds no reference cycles that grow with its input (the
argument parser's few hundred objects are the only ones), so it runs
with the cyclic garbage collector off. Before the process exits, every
object is frozen, so the interpreter's collections at shutdown skip them
all. `cli.main` does neither, so an in-process caller keeps its own
collector settings.
"""

import gc

from .cli import main


def run() -> int:
    """Run one command as the whole process; returns its exit code."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
