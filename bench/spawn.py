"""Small launcher that runs the benchmark's CLI commands.

    python3 bench/spawn.py  (started by run.py, speaks JSON lines on stdin/stdout)

Each request line is [argv, stdout path, stderr path]; the launcher runs
`python -m contextner argv` with those files as stdout and stderr and
answers [exit code, wall seconds, peak RSS in MB].

Linux starts a process's peak-RSS record at exec from the RSS of the
process it was spawned from, so a child spawned straight from the
benchmark (which holds the generated world) would report at least the
benchmark's own size. Spawned from this launcher, which stays small, a
child's `wait4` peak RSS is its own. The launcher imports nothing heavy
and keeps no state between requests.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

_child = 0


def _stop(signum, frame):
    """On SIGTERM, end the running command before exiting."""
    if _child:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    sys.exit(1)


def main() -> int:
    global _child
    signal.signal(signal.SIGTERM, _stop)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv, out, err = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(
            sys.executable, [sys.executable, "-m", "contextner", *argv], os.environ,
            file_actions=actions,
        )
        _, status, usage = os.wait4(_child, 0)
        wall = time.perf_counter() - start
        _child = 0
        reply = [os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
