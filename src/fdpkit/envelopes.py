"""Confidence envelopes for the false discovery proportion path, and the
thresholds read off from them.

Two constructions: an asymptotic band driven by the supremum of a scaled
Brownian bridge, valid above a small-t floor; and an exact finite-sample
envelope obtained by inverting per-subset uniformity tests based on the
second-smallest p-value.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .estimation import _require_open_unit, _validated_pvalues, ecdf
from .rng import standard_normal, stream
from .stepfun import StepFunction
from .thresholds import ThresholdResult, _count_rejected, _last_crossing

__all__ = [
    "brownian_sup_quantile",
    "EnvelopeResult",
    "asymptotic_envelope",
    "UniformityTestResult",
    "uniformity_critical_value",
    "uniformity_test_second_order",
    "ExactConfidenceSet",
    "exact_confidence_set",
    "exact_envelope",
    "confidence_thresholds",
    "m10_envelope",
]

def brownian_sup_quantile(
    alpha_half: float,
    t_floor: float,
    grid_size: int | None = None,
    reps: int | None = None,
    seed: int = 0,
) -> float:
    """Upper quantile (level 1 - alpha_half) of sup over [t_floor, 1] of
    B(t) / sqrt(t) for a Brownian bridge B.

    With ``grid_size`` and ``reps`` left at None, the value is read from
    the committed table (``fdpkit._brownian_table``, built by
    ``tools/brownian_table.py`` from one seeded 200000-replicate simulation)
    at the largest stored floor at or below ``t_floor``.  A longer window
    has a larger supremum, so reading a lower floor errs toward a wider
    band: the band stays conservative.  Explicit ``grid_size``/``reps``,
    a level outside the table or a floor below its first one run a fresh
    Monte Carlo, seeded by ``seed``, on a geometric grid of ``grid_size``
    points (default 2048) whose last point is pinned to 1, with ``reps``
    replicates (default 20000)."""
    return _sup_quantile(alpha_half, t_floor, grid_size, reps, seed)[0]


def _sup_quantile(alpha_half, t_floor, grid_size, reps, seed) -> tuple[float, float, str]:
    """``brownian_sup_quantile`` with its order-statistic standard error and
    its source, "table" or "monte-carlo"."""
    _require_open_unit("alpha_half", alpha_half)
    if not 0.0 < t_floor <= 1.0:
        raise ValueError("t_floor must lie in (0, 1]")
    if grid_size is None and reps is None:
        row = _table_row(float(alpha_half), float(t_floor))
        if row is not None:
            return (*row, "table")
    grid_size = 2048 if grid_size is None else grid_size
    reps = 20000 if reps is None else reps
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if reps < 10_000:
        raise ValueError("reps must be at least 10000 for a stable quantile")
    w, se = _brownian_sup_mc(float(alpha_half), float(t_floor), int(grid_size), int(reps), int(seed))
    return w, se, "monte-carlo"


def _table_row(alpha_half: float, t_floor: float) -> tuple[float, float] | None:
    """(w, standard error) from the committed table at the largest floor at
    or below ``t_floor``; None when the level or the floor is not covered."""
    from ._brownian_table import ALPHA_HALF, ROWS

    if alpha_half not in ALPHA_HALF or t_floor < ROWS[0][0]:
        return None
    _, ws, ses = ROWS[bisect.bisect_right(ROWS, t_floor, key=lambda row: row[0]) - 1]
    j = ALPHA_HALF.index(alpha_half)
    return ws[j], ses[j]


@functools.lru_cache(maxsize=8)
def _brownian_sup_mc(alpha_half: float, t_floor: float, grid_size: int, reps: int, seed: int):
    # envelopes built in a loop with the same explicit Monte Carlo arguments
    # share one simulation; the bound keeps a sweep over seeds or floors
    # from growing the cache without end
    sups = _bridge_sups(_geometric_grid(t_floor, grid_size), [0], reps, seed)
    return _order_quantile(np.sort(sups[:, 0]), 1.0 - alpha_half)


def _geometric_grid(t_floor: float, size: int) -> np.ndarray:
    grid = np.geomspace(t_floor, 1.0, size)
    grid[-1] = 1.0
    return grid


_ROWS_PER_STREAM = 1024   # replicates drawn from one ``stream(seed, chunk)``
_CELLS = 1 << 21          # normals drawn at once: 1024 rows of a 2048-point grid


def _bridge_sups(grid: np.ndarray, starts, reps: int, seed: int) -> np.ndarray:
    """Simulate ``reps`` Brownian bridges on ``grid`` (increasing, ending at
    1) and return, for each replicate (row) and each grid index k in the
    increasing ``starts`` (column), the maximum of B(t) / sqrt(t) over the
    grid points t >= grid[k].

    Replicates come in chunks of 1024 rows, each from its own stream keyed
    by (seed, chunk), so a row depends only on the seed and its index.  A
    chunk is drawn in blocks of at most 2**21 normals: the blocks read one
    stream in order and give the same bits as one draw, in bounded memory
    on fine grids."""
    starts = np.asarray(starts, dtype=np.intp)
    root_dt = np.sqrt(np.diff(np.r_[0.0, grid]))
    root_grid = np.sqrt(grid)
    rows = max(1, min(_ROWS_PER_STREAM, _CELLS // grid.size))
    out = np.empty((reps, starts.size))
    for chunk, lo in enumerate(range(0, reps, _ROWS_PER_STREAM)):
        rng = stream(seed, chunk)
        hi = min(lo + _ROWS_PER_STREAM, reps)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            w = np.cumsum(standard_normal(rng, (b - a, grid.size)) * root_dt, axis=1)
            x = (w - grid * w[:, -1:]) / root_grid
            seg = np.maximum.reduceat(x, starts, axis=1)   # max over [starts[i], starts[i + 1])
            out[a:b] = np.maximum.accumulate(seg[:, ::-1], axis=1)[:, ::-1]
    return out


def _order_quantile(sorted_stats: np.ndarray, q: float) -> tuple[float, float]:
    """The linear-interpolation q-quantile of a sorted sample and its
    standard error sqrt(q (1 - q) / n) / f, with the density f read from
    the order statistics that bound a 95 % distribution-free interval for
    the quantile."""
    n = sorted_stats.size
    w = float(np.quantile(sorted_stats, q, method="linear"))
    spread = np.sqrt(n * q * (1.0 - q))
    lo = max(int(np.floor((n - 1) * q - 1.96 * spread)), 0)
    hi = min(int(np.ceil((n - 1) * q + 1.96 * spread)), n - 1)
    return w, float(spread * (sorted_stats[hi] - sorted_stats[lo]) / (hi - lo))


@dataclass(frozen=True)
class _AsymptoticCurve:
    """The count path V(t) = (1 - a0) t + delta sqrt(t / m) or, when
    ``ghat`` is given, the band t -> min(V(t) / Ghat(t), 1); both are
    undefined (NaN) below the floor t_min."""

    one_minus_a0: float
    delta: float
    m: int
    t_min: float
    ghat: object = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        out = self.one_minus_a0 * t + self.delta * np.sqrt(t / self.m)
        if self.ghat is not None:
            g = np.asarray(self.ghat(t), dtype=float)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(g > 0.0, out / np.where(g > 0.0, g, 1.0), np.inf)
            out = np.minimum(out, 1.0)
        out = np.where(t < self.t_min, np.nan, out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class EnvelopeResult:
    """A level-(1 - level) upper confidence path for the FDP process.

    ``gamma_bar`` maps t to the bound; ``v_fn`` maps t to the matching
    per-observation bound on the fraction of false discoveries, so
    ``m * v_fn(t)`` bounds their count."""

    gamma_bar: object
    level: float
    method: str
    t_min: float | None
    v_fn: object
    meta: dict = field(default_factory=dict)

    def gamma_at(self, t):
        return self.gamma_bar(t)

    def v_at(self, t):
        return self.v_fn(t)

    def count_bound_at(self, t):
        if self.method == "exact":
            return self.meta["j_fn"](t)
        out = self.meta["m"] * np.asarray(self.v_fn(t), dtype=float)
        return out if out.ndim else float(out)


def asymptotic_envelope(
    pvalues,
    t0: float = 0.5,
    alpha: float = 0.05,
    t_min: float | None = None,
    w: float | None = None,
    *,
    enforce_floor: bool = True,
    quantile_grid_size: int | None = None,
    quantile_reps: int | None = None,
    quantile_seed: int = 0,
) -> EnvelopeResult:
    """Asymptotic FDP confidence band at level 1 - alpha on [t_min, 1].

    The half-width constant is the larger of a scaled-bridge supremum
    quantile term (weighted by the exceedance-ratio null fraction taken
    without clamping) and a distribution-free tail term; the band uses the
    plain empirical CDF.  Validity needs t_min above the small-t floor
    (log m)^4 / m; pass ``enforce_floor=False`` together with an explicit
    t_min to evaluate the band below that floor anyway.

    Unless ``w`` is given, the quantile term uses
    ``brownian_sup_quantile(alpha / 2, t_min, quantile_grid_size,
    quantile_reps, quantile_seed)``: with the grid size and replicates left
    at None it is read from the committed table at the largest stored floor
    at or below t_min, whose longer window errs toward a wider band, so the
    band stays conservative; explicit ``quantile_grid_size``/
    ``quantile_reps``, a level alpha outside {0.01, 0.05, 0.1, 0.2} or t_min
    below 1e-8 run a fresh Monte Carlo seeded by ``quantile_seed``.
    ``meta["w_source"]`` says
    which ("table", "monte-carlo" or "given") and ``meta["w_se"]`` holds
    the order-statistic standard error of w (None when w is given).
    """
    p = _validated_pvalues(pvalues)
    _require_open_unit("t0", t0)
    _require_open_unit("alpha", alpha)
    m = p.size
    floor = np.log(m) ** 4 / m
    if enforce_floor:
        if t_min is None:
            if not 0.0 < floor < 1.0:     # 0 at m = 1, at least 1 for 2 <= m <= 5500
                raise ValueError(
                    f"the small-t floor (log m)^4 / m = {float(floor)!r} is not in (0, 1) at m={m}, "
                    "so no valid evaluation window exists; pass an explicit t_min in (0, 1), "
                    "with enforce_floor=False if it lies below the floor"
                )
            t_min = floor
        elif t_min < floor:
            raise ValueError(
                f"t_min={float(t_min)!r} is below the small-t floor (log m)^4 / m = {float(floor)!r}; "
                "the asymptotic band is not valid there (pass enforce_floor=False to override)"
            )
    else:
        if t_min is None:
            raise ValueError("an explicit t_min is required when the floor check is disabled")
    _require_open_unit("t_min", t_min)
    ghat = ecdf(p, "plain")
    one_minus_a0 = (1.0 - float(ghat(t0))) / (1.0 - t0)
    if w is None:
        args = (alpha / 2.0, t_min, quantile_grid_size, quantile_reps, quantile_seed)
        w = brownian_sup_quantile(*args)
        # asked again for its standard error and source: a table read, or a
        # hit of the Monte Carlo's cache
        _, w_se, w_source = _sup_quantile(*args)
    else:
        w_se, w_source = None, "given"
    tail_term = np.sqrt(2.0) / (1.0 - t0) * np.sqrt(np.log(4.0 / alpha))
    delta = max(2.0 * one_minus_a0 * float(w), float(tail_term))
    count = _AsymptoticCurve(one_minus_a0=one_minus_a0, delta=delta, m=m, t_min=float(t_min))
    return EnvelopeResult(
        gamma_bar=replace(count, ghat=ghat),
        level=alpha,
        method="asymptotic",
        t_min=float(t_min),
        v_fn=count,
        meta={
            "m": m,
            "t0": t0,
            "one_minus_a0": one_minus_a0,
            "w": float(w),
            "w_se": w_se,
            "w_source": w_source,
            "delta": delta,
            "floor": float(floor),
            "pvalues": p.copy(),
        },
    )


# ---------------------------------------------------------------------------
# Exact finite-sample construction.
# ---------------------------------------------------------------------------


def uniformity_critical_value(k: int, alpha: float) -> float:
    """Critical value for the second-smallest of k uniforms: the c with
    P{second order statistic <= c} = alpha, the alpha-quantile of its
    Beta(2, k - 1) law.  Sizes 0 and 1 are never rejected (returns -inf)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _require_open_unit("alpha", alpha)
    if k <= 1:
        return -np.inf
    return float(_critical_values(k, alpha))


def _critical_values(ks, alpha: float):
    """The alpha-quantile of Beta(2, k - 1), elementwise over sizes k >= 2."""
    from scipy.special import betaincinv

    return betaincinv(2.0, ks - 1.0, alpha)


def _second_order_check(values: np.ndarray, crit: float) -> tuple[float | None, bool]:
    """The acceptance rule for one subset: its second-smallest value (None
    below size 2) and whether the subset is accepted, always at sizes 0 and
    1, else when that value exceeds ``crit``."""
    if values.size <= 1:
        return None, True
    stat = float(np.sort(values)[1])
    return stat, bool(stat > crit)


@dataclass(frozen=True)
class UniformityTestResult:
    accept: bool
    statistic: float | None
    critical: float
    k: int
    alpha: float


def uniformity_test_second_order(subset_pvalues, alpha: float) -> UniformityTestResult:
    """Accept the hypothesis that the subset is uniform when its
    second-smallest value exceeds the size-k critical value; subsets of
    size at most 1 are always accepted."""
    p = np.asarray(subset_pvalues, dtype=float)
    if p.ndim != 1:
        raise ValueError("need a 1-D array of p-values")
    if p.size and (np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    k = p.size
    crit = uniformity_critical_value(k, alpha)
    stat, accept = _second_order_check(p, crit)
    return UniformityTestResult(accept=accept, statistic=stat, critical=crit, k=k, alpha=alpha)


@dataclass(frozen=True)
class ExactConfidenceSet:
    """A 1 - alpha confidence collection of candidate null label-sets,
    summarized through the per-size acceptance rule.

    ``feasible[k]`` says whether some size-k subset is accepted (the k
    largest p-values are the easiest to accept, so only they are checked);
    ``accepted_summaries`` lists those k (read off ``feasible`` on each
    access), and ``m0_interval`` is their range.  ``contains(labels)`` runs
    the exact membership test for a full labeling (1 marking the
    alternative)."""

    pvalues: np.ndarray
    sorted_pvalues: np.ndarray
    alpha: float
    crit: np.ndarray
    feasible: np.ndarray
    m0_interval: tuple

    @property
    def accepted_summaries(self) -> tuple:
        return tuple(np.flatnonzero(self.feasible).tolist())

    def contains(self, labels) -> bool:
        lab = np.asarray(labels)
        if lab.shape != self.pvalues.shape:
            raise ValueError("labels must align with the p-values")
        if not np.all((lab == 0) | (lab == 1)):
            raise ValueError("labels must be 0 (null) or 1 (alternative)")
        nulls = self.pvalues[lab == 0]
        return _second_order_check(nulls, self.crit[nulls.size])[1]


def exact_confidence_set(pvalues, alpha: float) -> ExactConfidenceSet:
    """Build the exact confidence collection by testing, for each size k,
    the k largest p-values against the second-order-statistic rule."""
    p = _validated_pvalues(pvalues)
    _require_open_unit("alpha", alpha)
    m = p.size
    ps = np.sort(p)
    ks = np.arange(2, m + 1)
    crit = np.full(m + 1, -np.inf)
    crit[2:] = _critical_values(ks, alpha)
    feasible = np.ones(m + 1, dtype=bool)
    feasible[2:] = ps[m - ks + 1] > crit[2:]
    accepted = np.flatnonzero(feasible)
    return ExactConfidenceSet(
        pvalues=p.copy(),
        sorted_pvalues=ps,
        alpha=alpha,
        crit=crit,
        feasible=feasible,
        m0_interval=(int(accepted[0]), int(accepted[-1])),
    )


def exact_envelope(confset: ExactConfidenceSet, pvalues) -> EnvelopeResult:
    """Exact FDP envelope: at each t, the largest fraction j / R(t)
    achievable by an accepted candidate null-set placing j of its elements
    at or below t.

    A size-k candidate with j >= 2 elements at or below t is accepted
    exactly when at least j - 1 of those elements exceed the size-k
    critical value; taking all m - R(t) larger p-values into it makes the
    acceptance easiest, so only k = (m - R(t)) + j needs checking, and that
    test is ``feasible[k]`` of the confidence set, free of t.  The count
    bound is therefore R(t) - (m - k_max), with k_max = ``m0_interval[1]``
    and m - k_max the lower confidence bound on the number of alternatives,
    raised to 1 (a single null below t is always accepted) wherever
    R(t) >= 1.  Runs in O(m log m) time and O(m) memory."""
    p = _validated_pvalues(pvalues)
    if not np.array_equal(np.sort(p), confset.sorted_pvalues):
        raise ValueError("confidence set was built from different p-values")
    m = p.size
    distinct, counts = np.unique(p, return_counts=True)
    r_at = counts.cumsum()                      # rejections at each distinct p
    j_vals = np.maximum(r_at - (m - confset.m0_interval[1]), 1).astype(float)
    lo = float(distinct[0]) if distinct[0] > 0.0 else 0.0   # no -0.0

    gamma = StepFunction.from_pairs(distinct, j_vals / r_at, value_at_zero=0.0)
    j_fn = StepFunction.from_pairs(distinct, j_vals, value_at_zero=0.0)
    v_fn = StepFunction.from_pairs(distinct, j_vals / m, value_at_zero=0.0)
    return EnvelopeResult(
        gamma_bar=gamma,
        level=confset.alpha,
        method="exact",
        t_min=lo,
        v_fn=v_fn,
        meta={
            "m": m,
            "pvalues": p.copy(),
            "j_fn": j_fn,
            "domain": (lo, 1.0),
        },
    )


def m10_envelope(env: EnvelopeResult, m: int):
    """Upper confidence path for the count of false discoveries among the
    p-values at or below t."""
    if m != env.meta["m"]:
        raise ValueError(f"envelope was built for m={env.meta['m']}, not m={m}")
    return env.count_bound_at


def confidence_thresholds(env: EnvelopeResult, c: float | None = None) -> ThresholdResult:
    """Thresholds read off an FDP envelope.

    With ``c`` given (a NaN or infinite c is a ValueError): the largest t
    in the envelope's domain where the bound stays at or below c, a
    rate-ceiling rule; when there is none, t = 0 with ``inclusive=False``,
    so nothing is rejected, not even p-values of exactly 0.
    With ``c=None``: the minimum of the bound and the largest t attaining
    it, the rule that rejects as much as possible at the best achievable
    rate.  ``inclusive=False`` marks a supremum approached from the left
    but not attained, in which case ``rejected`` counts p-values strictly
    below t.

    Both rules are read off in one O(m) array pass over the pieces of the
    envelope's steps (the empirical CDF for the asymptotic band) clipped to
    its domain, on each of which the bound rises: the last piece feasible
    at its start decides, with the crossing kept inside it.  The minimum
    sits at the start of the last piece attaining it.  The exact envelope
    is flat on each piece, so a feasible piece is feasible up to its end.
    For the asymptotic band the crossing solves
    (1 - a0) t + delta sqrt(t / m) = c Ghat in the form free of cancellation
    t* = y^2, y = 2 c Ghat / (b + sqrt(b^2 + 4 (1 - a0) c Ghat)), b = delta / sqrt(m)."""
    if c is not None and not np.isfinite(c):
        raise ValueError(f"the rate ceiling c must be finite, not {float(c)!r}")
    if env.method not in ("exact", "asymptotic"):
        raise ValueError(f"unknown envelope method: {env.method!r}")
    exact = env.method == "exact"
    steps: StepFunction = env.gamma_bar if exact else env.gamma_bar.ghat.base
    # pieces [starts, ends) of the steps clipped to [t_min, 1]; the last
    # one, up to and including 1, is always kept
    starts = np.maximum(steps.knots, env.t_min)
    ends = np.r_[steps.knots[1:], 1.0]
    keep = starts < ends
    keep[-1] = True
    starts, ends, vals = starts[keep], ends[keep], steps.values[keep]
    bound = vals if exact else env.gamma_bar(starts)
    if c is None:
        z = bound.min()
        feasible, cross = bound == z, np.inf if exact else starts
    else:
        z, feasible, cross = c, bound <= c, np.inf
        if not exact and c < 1.0:     # the band, clipped at 1, never exceeds a c >= 1
            # (1 - a0) y^2 + b y = c Ghat with y = sqrt(t), b = delta / sqrt(m) > 0,
            # solved in the form free of cancellation (it also covers 1 - a0 = 0);
            # the root is NaN only for a c < 0, which no piece meets
            curve: _AsymptoticCurve = env.gamma_bar
            b = curve.delta / np.sqrt(curve.m)
            cv = c * vals
            with np.errstate(invalid="ignore"):
                cross = (2.0 * cv / (b + np.sqrt(b * b + 4.0 * curve.one_minus_a0 * cv))) ** 2
    _, t, inclusive = _last_crossing(starts, ends, feasible, cross)
    return ThresholdResult(
        t=t,
        rejected=_count_rejected(env.meta["pvalues"], t, inclusive),
        method="rate-ceiling" if c is not None else "min-rate",
        alpha=env.level,
        z=float(z),
        inclusive=inclusive,
        diagnostics={"envelope": env.method},
    )
