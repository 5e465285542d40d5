"""Run the benchmark's child processes through launcher.py."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = str(Path(__file__).with_name("launcher.py"))


@dataclass
class Finished:
    seconds: float      # spawn to exit
    peak_rss_mb: float  # this child's own peak
    code: int
    stdout: bytes
    stderr: str


class Launcher:
    """One launcher process for a run; close() ends it and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, stdout_path: str, stderr_path: str,
            deadline: float) -> Finished:
        """Run argv to completion; a child still running at ``deadline`` (a
        ``time.monotonic`` value) is killed and TimeoutError raised."""
        req = {"argv": argv, "env": env, "stdout": stdout_path, "stderr": stderr_path,
               "timeout": deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        resp = json.loads(self.proc.stdout.readline())
        if resp.get("timeout"):
            raise TimeoutError(f"{' '.join(argv[1:4])} ... still running at the deadline")
        with open(stdout_path, "rb") as fh:
            out = fh.read()
        with open(stderr_path, errors="replace") as fh:
            err = fh.read()
        return Finished(resp["seconds"], resp["peak_rss_mb"], resp["code"], out, err)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)
