"""The host-speed probe timed beside every operation.

On a shared host the CPU's speed drifts by up to 2x, within seconds and
over minutes, and every operation slows with it.  The benchmark therefore
times a fixed piece of work right before and right after each operation
and rescales the operation's time by it:
``op_s * PROBE_S / sqrt(before * after)``.  The result reads as the
operation's time on a host where the probe takes PROBE_S seconds.  The
probe uses no fdpkit code, so a change to the library cannot move it.

CLI calls and set-ups are bracketed by probes in the benchmark process;
``validate`` probes between its targets inside its own interpreter.
"""

import time

import numpy as np

# The probe's time on the host the benchmark was calibrated on (a 2-vCPU
# VM on a 2.1 GHz Xeon, Python 3.11, NumPy 2.4).  Changing it, or the
# probe's work, shifts every rescaled figure.
PROBE_S = 0.25

_X = np.random.default_rng(20040601).random(500_000)


def probe() -> float:
    """Seconds taken by a fixed mix of sorting, formatting and parsing,
    the operations' own kinds of work."""
    t = time.perf_counter()
    for _ in range(4):
        np.sort(_X)
        text = "".join("%.6g\n" % v for v in _X[:100_000].tolist())
        np.array(text.split(), dtype=float)
    return time.perf_counter() - t
