"""Spawns the benchmark's operations from a small process.

A child's ru_maxrss starts from the peak of the address space it was
spawned from, so an operation spawned straight from the benchmark process,
which holds the inputs, would read at least that process's peak.  This
process stays small.  It reads one JSON request per line on stdin, runs the
command with stdout and stderr sent to files, reaps it with ``os.wait4``
(whose rusage is that one child's; ``RUSAGE_CHILDREN`` would be a running
maximum over all children) and answers with one JSON line: seconds from
spawn to exit, the child's peak RSS in MB, and its exit code.  A child
still running at the timeout is killed and answered with ``timeout``.
Sleeping in ``wait4`` while an operation runs, it takes no CPU from it.
"""

import json
import os
import select
import signal
import sys
import time


def launch(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, req["timeout"]))
    finally:
        os.close(pidfd)
    if not ready:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return {"timeout": True}
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
            "code": os.waitstatus_to_exitcode(status)}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
