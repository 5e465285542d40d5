"""Deterministic random streams for simulation and Monte Carlo work.

Streams are keyed by ``(seed, *path)`` through ``SeedSequence`` spawn keys on
top of Philox, a counter-based bit generator, so a stream's draws depend only
on its own key, never on other streams, and any point of a stream is reached
in O(1).  ``_in_parts`` runs a block's rows in parts, in parallel, each
reading its own copy of the stream moved to the part's first double, so the
bits depend neither on the CPU count nor on the schedule.

The simulation module keys sample i of a scenario by ``(seed, i)``: the
per-replicate validation targets read each row of their blocks from its own
stream, so row i is ``generate_sample(config, i)`` whatever m or ``reps``.
The other Monte Carlo targets key one stream per block by ``(seed, block)``,
so their rows depend on the block size, and through it on m and ``reps``.
Each part of such a block draws labels, p-values and quantiles on its own
thread; rep-keyed rows (a ``SeedSequence`` each, under the GIL) on this one.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .estimation import _require_count

__all__ = ["stream", "uniform_open"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``(seed, *path)``, integers >= 0."""
    ss = np.random.SeedSequence(entropy=int(_require_count("seed", seed, 0)),
                                spawn_key=tuple(int(_require_count("key", p, 0)) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws k 2**-53 + 2**-54 for 53-bit integers k.

    The same bits as ``(k + 0.5) * 2**-53`` with k drawn by
    ``integers(0, 2**53)``, which reads the generator identically.  The
    draws are never 0, but the top k rounds (to even) to exactly 1, a
    chance of 2**-53 per draw: harmless for labels (``u < a``) and null
    p-values.
    """
    u = rng.random(size)
    u += 2.0**-54  # in place: one buffer
    return u


def _uniform_into(out: np.ndarray, seed: int, key: int, offset: int) -> None:
    """Fill the C-contiguous ``out`` with ``stream(seed, key)``'s ``uniform_open`` draws after ``offset`` doubles."""
    rng = stream(seed, key)
    rng.bit_generator.advance(offset // 4)  # four doubles per Philox counter step
    rng.random(offset % 4)
    rng.random(out=out)  # releases the GIL
    out += 2.0**-54


def _in_parts(rows: int, part) -> None:
    """Run ``part(lo, hi)`` on one run of ``range(rows)`` per CPU (fewer if
    fewer rows), the first on this thread, the others on threads joined
    before this returns; part 0's exception, else a thread's first, is raised."""
    k = max(1, min(rows, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1))
    cuts, errors = [rows * i // k for i in range(k + 1)], []

    def run(lo, hi):
        try:
            part(lo, hi)
        except BaseException as e:  # raised on the calling thread
            errors.append(e)

    threads = [threading.Thread(target=run, args=ends) for ends in zip(cuts[1:-1], cuts[2:])]
    for t in threads:
        t.start()
    try:
        part(cuts[0], cuts[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
