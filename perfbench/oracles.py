"""Independent answers for the benchmark's correctness checks.

Each oracle recomputes a CLI result in plain NumPy/SciPy from the same
p-values the CLI reads, without importing fdpkit, so a defect in the
library cannot hide behind its own code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri


def mixture_pvalues(rng: np.random.Generator, m: int, a: float, mu: float) -> np.ndarray:
    """m p-values from the one-sided normal mixture: a share a of
    alternatives with p = ndtr(ndtri(u) - mu), the rest uniform."""
    u = rng.random(m)
    alt = rng.random(m) < a
    return np.where(alt, ndtr(ndtri(u) - mu), u)


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15)


def bh(p: np.ndarray, alpha: float) -> tuple[float, int]:
    """Step-up rule: (threshold, rejections) for the largest i with
    p_(i) <= alpha i / m."""
    m = p.size
    ps = np.sort(p)
    ok = np.flatnonzero(ps <= alpha * np.arange(1, m + 1) / m)
    if ok.size == 0:
        return 0.0, 0
    return float(ps[ok[-1]]), int(ok[-1]) + 1


def storey(p: np.ndarray, t0: float) -> float:
    """Tail-count estimate of the alternative share, clamped at 0."""
    ghat = np.count_nonzero(p <= t0) / p.size
    return max(0.0, (ghat - t0) / (1.0 - t0))


def count_rejected(p: np.ndarray, t: float, inclusive: bool) -> int:
    return int(np.count_nonzero(p <= t if inclusive else p < t))


class ExactEnvelope:
    """Closed form of the exact FDP envelope.

    With crit_k = betaincinv(2, k - 1, alpha), the quantile of the second
    order statistic of k uniforms, size k is feasible when the second
    smallest of the k largest p-values exceeds crit_k; k_max is the largest
    feasible size.  At each distinct p-value with R rejections the count
    bound is j = R - (m - k_max) when that is at least 2, else min(R, 1),
    and the envelope is j / R."""

    def __init__(self, p: np.ndarray, alpha: float):
        m = p.size
        ps = np.sort(p)
        k = np.arange(2, m + 1)
        feasible = ps[m - k + 1] > betaincinv(2.0, k - 1.0, alpha)
        k_max = int(k[feasible].max()) if feasible.any() else 1
        self.distinct, counts = np.unique(p, return_counts=True)
        self.r = counts.cumsum()
        j = self.r - (m - k_max)
        self.j = np.where(j >= 2, j, np.minimum(self.r, 1)).astype(float)
        self.gamma = self.j / self.r
        self.m = m

    def _result(self, i: int | None, z: float) -> dict:
        """Threshold at the right end of piece i: 1 (inclusive) for the last
        piece, else the next distinct p-value approached from the left."""
        if i is None:
            return {"t": 0.0, "z": z, "inclusive": True}
        if i == self.distinct.size - 1:
            return {"t": 1.0, "z": z, "inclusive": True}
        return {"t": float(self.distinct[i + 1]), "z": z, "inclusive": False}

    def min_rate(self) -> dict:
        z = float(self.gamma.min())
        return self._result(int(np.flatnonzero(self.gamma == z)[-1]), z)

    def ceiling(self, c: float) -> dict:
        ok = np.flatnonzero(self.gamma <= c)
        return self._result(int(ok[-1]) if ok.size else None, c)

    def csv_rows(self) -> np.ndarray:
        """Rows (t, gamma_bar, v, count_bound) of the envelope CSV."""
        rows = np.column_stack([self.distinct, self.gamma, self.j / self.m, self.j])
        if self.distinct[0] > 0.0:
            rows = np.vstack([np.zeros(4), rows])
        return rows
