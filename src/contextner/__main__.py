"""The process entry point: `python -m contextner` and the `contextner`
script, which run a command with the cyclic garbage collector off and
freeze every object before exit (README "Command-line walkthrough");
`cli.main` does neither, so an in-process caller keeps its settings."""

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
