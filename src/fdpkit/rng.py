"""Deterministic random streams for simulation and Monte Carlo work.

Streams are keyed by ``(seed, *path)`` through ``SeedSequence`` spawn keys on
top of a counter-based bit generator, so a stream's draws depend only on its
own key — never on how many other streams ran before it or on the execution
schedule.  What a key covers is up to the caller: ``generate_sample`` keys
one stream per replicate, so any replicate can be regenerated alone, while
the block-vectorized validation targets key one stream per block of rows
whose size depends on m and ``reps``, so a row there is reproduced only by
the same m, ``reps`` and seed.  At a = 0 the sampler advances a stream past
its label uniforms (all False) rather than generating them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "uniform_open", "standard_normal"]


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``(seed, *path)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws k 2**-53 + 2**-54 for 53-bit integers k.

    The same bits as ``(k + 0.5) * 2**-53`` with k drawn by
    ``integers(0, 2**53)``, which reads the generator identically.  The
    draws are never 0, but the top k rounds (to even) to exactly 1, a
    chance of 2**-53 per draw: harmless for labels (``u < a``) and null
    p-values, while ``standard_normal`` clips it before its inverse CDF.
    """
    u = rng.random(size)
    u += 2.0**-54  # in place: one buffer
    return u


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    from scipy.special import ndtri

    # Inverse-CDF sampling: identical bytes for a given stream on any
    # platform, unlike rejection-based samplers.  The top draw, exactly 1,
    # becomes 1 - 2**-53 (ndtri 8.21) rather than an infinite normal.
    u = np.asarray(uniform_open(rng, size))
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u)
