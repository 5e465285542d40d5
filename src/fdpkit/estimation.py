"""Estimators for the marginal p-value CDF, the null/alternative mixing
weight, and the alternative CDF.

The mixing-weight estimators come in three flavours: the exceedance ratio at
a fixed cut point, a uniform-confidence lower bound built from the empirical
CDF band, and a kernel-density plug-in for the identifiable floor.  The
alternative CDF is recovered by the exact sup-norm projection of the
de-uniformed empirical CDF onto the set of CDFs supported on the observed
p-value grid, computed in closed form as an L-infinity isotonic regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stepfun import PiecewiseLinear, StepFunction, _elementwise

__all__ = [
    "EcdfEstimate",
    "NullFractionEstimate",
    "QHat",
    "ecdf",
    "dkw_epsilon",
    "storey_a0",
    "astar_lower",
    "kernel_density",
    "kernel_a_consistent",
    "q_hat",
    "project_f",
    "projection_objective",
]


def _normalize_variant(variant: str) -> str:
    if variant not in ("plain", "floor", "lcm"):
        raise ValueError(f"unknown ECDF variant: {variant!r}")
    return variant


def _validated_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a nonempty 1-D array of p-values")
    if not (p.min() >= 0.0 and p.max() <= 1.0):   # False for NaN too
        raise ValueError("p-values must lie in [0, 1]")
    return p


def _require_open_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


def _is_integer(x) -> bool:
    """A Python or NumPy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _require_count(name: str, value, least: int):
    if not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class EcdfEstimate:
    """Empirical CDF with an optional correction.

    Variants: ``plain`` is the raw empirical CDF; ``floor`` takes the
    pointwise maximum with the identity (the marginal CDF always dominates
    the uniform); ``lcm`` is the least concave majorant — the smallest
    concave CDF lying above the empirical one.
    """

    base: StepFunction
    variant: str
    m: int
    hull: PiecewiseLinear | None = None

    def __call__(self, t):
        return self._eval(self.base, t)

    def left(self, t):
        """Left limit; coincides with the value for the continuous majorant."""
        return self._eval(self.base.left, t)

    @_elementwise
    def _eval(self, step, t):
        if self.variant == "plain":
            return step(t)
        if self.variant == "floor":
            return np.maximum(step(t), t)
        return self.hull(t)


# Candidate points a round of the hull's searches tests in all, over the
# block pairs; the search over R takes its square root and leaves the rest to
# the searches over L inside it.  Large enough that small hulls need one
# round per search, small enough that a round costs less than the Python
# steps it saves.
_SEARCH_ROUND = 1024


def _lift(lo, last, ok, width):
    """Largest i in [lo, last] with ``ok(i)``, elementwise, for ``ok`` true at
    lo and switching off at most once.  Each round tests up to ``width``
    evenly spaced candidates per element, so a span of s takes about
    log(s) / log(width + 1) rounds."""
    span = int((last - lo).max(initial=0))
    q = np.arange(1, max(1, min(width, span)) + 1)
    steps = []
    s = 1
    while s <= span:
        steps.insert(0, s)
        s *= q.size + 1
    for s in steps:
        cand = np.minimum(lo[..., None] + s * q, last[..., None])
        lo = np.where(ok(cand), cand, lo[..., None]).max(axis=-1)
    return lo


# Input indices (a power of two) whose lower levels of the majorant run apart,
# so it works in about 37 bytes an index of a span, not of m; a smaller span
# pays more Python steps (at 714k points, 2^13 took twice the time of 2^16).
# The exact confidence set's verdicts, the envelope CSV's rows, the ECDF's
# run starts, the step-up rule's ranks and the a* bound's candidates run in
# spans of the same size.
_SPAN = 1 << 16
_SIEVE = 64   # the majorant's sieve step: 32 to 128 took 15-16 ms on the m = 1e6 screen, 16 and 256 took 16 and 19


def _concave_majorant(xs: np.ndarray, ys: np.ndarray) -> PiecewiseLinear:
    """Upper concave hull of graph points with strictly increasing xs;
    points on a hull edge are not vertices.

    Past 4 * ``_SIEVE`` points it sieves first (Akl and Toussaint): the
    majorant of every ``_SIEVE``-th point and the last joins data points,
    so no point over 1e-12 under it is a vertex.  On the m = 1e6 screen that
    drops 99% of 714k points: 15-23 ms and 0.9 MB, not 185-210 ms and 2.4
    MB.  When all are vertices it adds 13% time and two copies of the input.

    Bottom-up divide and conquer.  At width w the surviving points of each
    block of w input indices form that block's hull, and each pair of
    adjacent blocks (L, R) is joined by its upper bridge: the first R point
    that stays a vertex is a search over R, each of whose tests takes the
    tangent from an R point to L, a search over L.  The points strictly
    between the bridge's ends are dropped.  A level takes O(m) array work
    plus O(log^2 w) search steps per pair: O(m log m) in all.  The first
    level is w = 2: at w = 1 each block is one point, so each bridge joins
    two neighbours and drops nothing.  The levels below w = ``_SPAN`` run
    span by span (no pair crosses one), the rest over their survivors."""
    if xs.size > 4 * _SIEVE:
        below = _concave_majorant(np.append(xs[:-1:_SIEVE], xs[-1]), np.append(ys[:-1:_SIEVE], ys[-1]))
        kept = []
        for s in range(0, xs.size, _SPAN):
            x, y = xs[s:s + _SPAN], ys[s:s + _SPAN]
            on = below(x) - 1e-12 <= y
            kept.append((x[on], y[on]))
        xs, ys = map(np.concatenate, zip(*kept))
    spans = [_levels(xs[s:s + _SPAN], ys[s:s + _SPAN], np.arange(s, min(s + _SPAN, xs.size), dtype=np.int32), 2)
             for s in range(0, xs.size, _SPAN)]
    x, y, _ = _levels(*map(np.concatenate, zip(*spans)), _SPAN) if len(spans) > 1 else spans[0]
    return PiecewiseLinear(x, y)


def _levels(x, y, pos, w):
    """``_concave_majorant``'s levels from width w up over the points (x, y)
    left at input indices ``pos``, whose first starts a block at every width."""
    start, n = int(pos[0]), int(pos[-1]) + 1
    while w < n - start:
        # where each block of w input indices starts among the survivors
        edges = np.append(np.searchsorted(pos, np.arange(start, n, w, dtype=np.int32)), pos.size)
        ls, mid, re = edges[:-2:2], edges[1:-1:2], edges[2::2]

        def tangent(j, first, last):
            # last L point strictly above the line from its predecessor to j
            xj, yj = x[j][..., None], y[j][..., None]

            def above(i):
                xa, ya = x[i - 1], y[i - 1]
                return (x[i] - xa) * (yj - ya) < (y[i] - ya) * (xj - xa)

            return _lift(first, last, above, _SEARCH_ROUND // j.size)

        def hidden(j):
            # R point j - 1 on or below the line from its tangent to j
            c = j - 1
            a = tangent(c, ls[:, None], mid[:, None] - 1)
            return (x[c] - x[a]) * (y[j] - y[a]) >= (y[c] - y[a]) * (x[j] - x[a])

        j = _lift(mid, re - 1, hidden, math.isqrt(_SEARCH_ROUND // ls.size))
        t = tangent(j, ls, mid - 1)
        if np.any(t + 1 < j):
            d = np.zeros(pos.size, dtype=np.int8)
            d[t + 1] += 1
            d[j] -= 1
            alive = np.cumsum(d, out=d) == 0
            x, y, pos = x[alive], y[alive], pos[alive]
        w *= 2
    return x, y, pos


def ecdf(pvalues, variant: str = "plain") -> EcdfEstimate:
    """Empirical CDF of the p-values in the requested variant.  One sort
    gives the distinct values and Ghat at each, written between a (0, 0) and
    a (1, 1): the step function and the majorant's points are slices."""
    p = _validated_pvalues(pvalues)
    variant = _normalize_variant(variant)
    m = p.size
    xs = np.concatenate([[0.0], p, [1.0]])
    s = xs[1:-1]
    s.sort()
    starts = np.ones(m + 1, dtype=bool)   # where each run of ties starts, then m
    np.not_equal(s[1:], s[:-1], out=starts[1:-1])
    # each span's run starts move to the front of s: at most a of them come before index a
    k = 0
    for a in range(0, m, _SPAN):
        run = s[a:a + _SPAN][starts[a:min(a + _SPAN, m)]]
        s[k:k + run.size] = run
        k += run.size
    del s, run                          # no view of xs is left to resize under
    xs.resize(k + 2, refcheck=False)
    ys, j = np.zeros(k + 2), 1
    xs[-1] = ys[-1] = 1.0
    for a in range(1, m + 1, _SPAN):    # Ghat on run i is where run i + 1 starts, over m
        ends = np.flatnonzero(starts[a:a + _SPAN])
        ends += a
        np.divide(ends, m, out=ys[j:j + ends.size])
        j += ends.size
    del starts
    lo, hi = int(xs[1] == 0.0), k + 2 - int(xs[k] == 1.0)
    base = StepFunction(xs[lo:-1], ys[lo:-1])
    hull = _concave_majorant(xs[lo:hi], ys[lo:hi]) if variant == "lcm" else None
    return EcdfEstimate(base=base, variant=variant, m=m, hull=hull)


def dkw_epsilon(m: int, alpha: float) -> float:
    """Half-width of the uniform empirical-CDF confidence band,
    sqrt(log(2/alpha) / (2 m))."""
    _require_count("m", m, 1)
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    return float(np.sqrt(np.log(2.0 / alpha) / (2.0 * m)))


@dataclass(frozen=True)
class NullFractionEstimate:
    """An estimate of the alternative mixing weight (or a lower bound on it)."""

    value: float
    method: str
    t0: float | None = None
    bandwidth: float | None = None
    alpha: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _storey(p: np.ndarray, t0: float):
    """Along the last axis of ``p``: Ghat(t0) = count / m, the exceedance
    ratio raw = (Ghat(t0) - t0) / (1 - t0), and its positive part."""
    _require_open_unit("t0", t0)
    ghat_t0 = np.count_nonzero(p <= t0, axis=-1) / p.shape[-1]
    raw = (ghat_t0 - t0) / (1.0 - t0)
    return ghat_t0, raw, np.maximum(raw, 0.0)


def storey_a0(pvalues, t0: float = 0.5) -> NullFractionEstimate:
    """Exceedance-ratio estimate: positive part of
    (Ghat(t0) - t0) / (1 - t0)."""
    ghat_t0, raw, value = _storey(_validated_pvalues(pvalues), t0)
    return NullFractionEstimate(
        value=float(value),
        method="storey",
        t0=t0,
        diagnostics={"raw": float(raw), "ghat_t0": float(ghat_t0)},
    )


def _astar(t, g, eps, variant="plain"):
    """Along the last axis of the candidate points t, at which Ghat is g
    (max(g, t) for the floor variant): the largest (g - t - eps) / (1 - t)
    over the t below 1, clamped at 0; the same unclamped; and the first t
    attaining it.  A span of candidates at a time: a later span's maximum
    replaces the kept one only if larger."""
    for a in range(0, t.shape[-1], _SPAN):
        ts, gs = t[..., a:a + _SPAN], g[..., a:a + _SPAN]
        gs = np.maximum(gs, ts) if variant == "floor" else gs
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(ts < 1.0, (gs - ts - eps) / (1.0 - ts), -np.inf)
        best = np.argmax(phi, axis=-1)[..., None]
        top_a, t_a = (np.take_along_axis(x, best, axis=-1)[..., 0] for x in (phi, ts))
        if a:
            new = top_a > top
            top_a, t_a = np.where(new, top_a, top), np.where(new, t_a, arg)
        top, arg = top_a, t_a
    return np.maximum(top, 0.0), top, arg


def _astar_rows(p, alpha, variant):
    """``astar_lower(ecdf(row, variant), alpha).value`` for each row of p.
    For the plain and floor ECDFs, through ``_astar`` on the candidates 0
    and the sorted row, where Ghat is rank / m: a tied p-value wins only at
    the last of its ties, which holds Ghat's value.  The lcm variant needs
    each row's hull, so it builds each row's ECDF, row by row."""
    if _normalize_variant(variant) == "lcm":
        return np.array([astar_lower(ecdf(row, "lcm"), alpha).value for row in p])
    t = np.concatenate([np.zeros((*p.shape[:-1], 1)), np.sort(p, axis=-1)], axis=-1)
    g = np.arange(t.shape[-1]) / p.shape[-1]
    return _astar(t, g, dkw_epsilon(p.shape[-1], alpha), variant)[0]


def astar_lower(ghat: EcdfEstimate, alpha: float) -> NullFractionEstimate:
    """Uniform-confidence lower bound for the mixing weight:
    max over t of (Ghat(t) - t - eps_m(alpha)) / (1 - t), clamped at 0.

    The supremum over [0, 1) is attained at a knot of Ghat (a vertex of the
    hull for the lcm variant), from the right.  Between knots the step
    variants are flat or follow t, where the objective decreases, and along
    a hull segment it is a ratio of linear functions, so monotone.  At a
    knot the right-hand value is at least the left limit, and so is the
    objective, whose every rounding step is monotone in Ghat: a left limit
    never wins, not even by a rounding.
    """
    _require_open_unit("alpha", alpha)
    eps = dkw_epsilon(ghat.m, alpha)
    ts, g = (ghat.hull.x, ghat.hull.y) if ghat.variant == "lcm" else (ghat.base.knots, ghat.base.values)
    value, top, argmax_t = _astar(ts, g, eps, ghat.variant)
    return NullFractionEstimate(
        value=float(value),
        method="astar-lower",
        alpha=alpha,
        diagnostics={"argmax_t": float(argmax_t), "eps": eps, "unclamped": float(top)},
    )


def _bandwidth(bandwidth, m: int) -> float:
    """The kernel bandwidth: ``m ** -0.2`` by default, else a finite h > 0."""
    h = float(bandwidth) if bandwidth is not None else m ** (-0.2)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"bandwidth must be positive and finite, got {h!r}")
    return h


# Evaluation points of the kernel density estimate, evenly spaced over [0, 1].
_KERNEL_GRID = 512


def kernel_density(pvalues, bandwidth: float | None = None):
    """Triangular-kernel density estimate on [0, 1] with boundary reflection.

    Reflection at both ends removes the edge bias that would otherwise
    corrupt the density minimum, which for decreasing alternative densities
    sits at t = 1.  Returns ``(grid, density)``.

    The kernel is linear on each side of a grid point g, so with n_L, S_L
    (n_R, S_R) the count and sum of the reflected points x = [p, -p, 2 - p]
    in [g - h, g) ([g, g + h)), the kernel sum is exactly
    n_L + n_R - (g (n_L - n_R) - S_L + S_R) / h, read from prefix sums of
    the sorted x in O((m + grid) log m) time and O(m) memory.  One sort, of
    the m p-values s, lays x out sorted as [-s reversed, s, 2 - s reversed]
    up to the sign of a zero, which no count or sum sees; x and its two
    prefix sums, 9 input sizes, are the peak.  Rounding leaves about -1e-15
    where the density is 0, so it is clamped at 0.
    """
    p = _validated_pvalues(pvalues)
    m = p.size
    h = _bandwidth(bandwidth, m)
    if m < 10:
        raise ValueError("need at least 10 p-values for the kernel estimate")
    grid = np.linspace(0.0, 1.0, _KERNEL_GRID)
    x = np.tile(p, 3)
    s = x[m:2 * m]
    s.sort()
    np.negative(s[::-1], out=x[:m])
    np.subtract(2.0, s[::-1], out=x[2 * m:])
    # prefix sums of x split exactly into multiples of 2^-10 (summed without
    # rounding) and remainders below 2^-11: window sums round like the window
    csum = np.zeros((2, x.size + 1))
    np.multiply(x, 1024.0, out=csum[0, 1:])
    np.round(csum[0], out=csum[0])
    csum[0] /= 1024.0
    np.subtract(x, csum[0, 1:], out=csum[1, 1:])
    np.cumsum(csum, axis=1, out=csum)
    lo, mid, hi = np.searchsorted(x, [grid - h, grid, grid + h])
    n_l, n_r = mid - lo, hi - mid
    s_l, s_r = (csum[:, [mid, hi]] - csum[:, [lo, mid]]).sum(axis=0)
    dens = n_l + n_r - (grid * (n_l - n_r) - s_l + s_r) / h
    return grid, np.maximum(dens / (m * h), 0.0)


def kernel_a_consistent(pvalues, bandwidth: float | None = None) -> NullFractionEstimate:
    """Plug-in for the identifiable mixing-weight floor: one minus the
    minimum of the kernel density estimate."""
    grid, dens = kernel_density(pvalues, bandwidth)
    m = np.size(pvalues)
    k = int(np.argmin(dens))
    value = float(np.clip(1.0 - dens[k], 0.0, 1.0))
    return NullFractionEstimate(
        value=value,
        method="kernel-min-density",
        bandwidth=_bandwidth(bandwidth, m),
        diagnostics={"argmin_t": float(grid[k]), "min_density": float(dens[k])},
    )


def _ahat_value(ahat) -> float:
    """The mixing weight of a float or a NullFractionEstimate, checked to lie in [0, 1]."""
    a = float(ahat.value if isinstance(ahat, NullFractionEstimate) else ahat)
    if not 0.0 <= a <= 1.0:   # False for NaN too
        raise ValueError("ahat must lie in [0, 1]")
    return a


class _OverGhat:
    """A function of t, ``values(t, g)`` at g = Ghat(t) or, for ``left``, Ghat's left limit; Ghat checks t."""

    @_elementwise
    def __call__(self, t):
        return self.values(t, np.asarray(self.ghat(t)))

    @_elementwise
    def left(self, t):
        return self.values(t, np.asarray(self.ghat.left(t)))


@dataclass(frozen=True)
class QHat(_OverGhat):
    """Estimated positive-FDR map t -> (1 - ahat) t / Ghat(t), 0 at t = 0."""

    ghat: EcdfEstimate
    ahat: float

    def values(self, t, g):
        if np.any((t > 0.0) & (g <= 0.0)):
            raise ValueError("estimated CDF is 0 at a positive evaluation point")
        return _qhat(g, t, 1.0 - self.ahat)


def _qhat(g, t, one_minus):
    """The map (1 - a) t / G(t), elementwise from G(t) = g and 1 - a =
    ``one_minus``, 0 where g = 0: Qhat from Ghat and ahat, or Q itself."""
    with np.errstate(invalid="ignore"):
        return np.where(g > 0.0, one_minus * t / np.where(g > 0.0, g, 1.0), 0.0)


def q_hat(pvalues, ahat, variant: str = "plain") -> QHat:
    """Plug-in estimate of the positive-FDR map from data and a mixing-weight
    estimate (a float or a NullFractionEstimate)."""
    a = _ahat_value(ahat)
    return QHat(ghat=ecdf(pvalues, variant), ahat=a)


# ---------------------------------------------------------------------------
# Sup-norm projection of (Ghat - (1 - ahat) U) / ahat onto CDFs.
# ---------------------------------------------------------------------------


def _excess(ghat: EcdfEstimate, ahat: float, *extra):
    """E = Ghat - (1 - ahat) U at the sorted points t where it can bend, so
    that it is linear in between: Ghat's knots, 0 and 1 (the hull's vertices
    are among them), the floor variant's kinks and ``extra``.  Returns t,
    E's right values and left limits at t, and where each knot sits in t."""
    ks, b = ghat.base.knots, ghat.base.values
    # the floor variant bends where t crosses the step value inside a knot interval
    kinks = b[(ks < b) & (b < np.r_[ks[1:], 1.0])] if ghat.variant == "floor" else ks[:0]
    t = np.unique(np.concatenate([ks, [0.0, 1.0], kinks, *extra]))
    # 0 is a knot and 1 the last point, so only kinks and extra points come between knots
    at = np.searchsorted(t, ks) if extra else np.arange(ks.size) + np.searchsorted(kinks, ks)
    ramp = (1.0 - ahat) * t
    if ghat.variant == "lcm":
        er, el = ghat(t), ghat.left(t)
    else:   # by position: each point takes its interval's value, its left limit the one before (at 0, its own)
        er = np.repeat(b, np.diff(at, append=t.size))
        el = np.concatenate((er[:1], er[:-1]))
        for e in (er, el) if ghat.variant == "floor" else ():
            np.maximum(e, t, out=e)
    er -= ramp
    el -= ramp
    return t, er, el, at


def project_f(ghat: EcdfEstimate, ahat, *, piecewise_linear: bool = False):
    """Estimate the alternative CDF by sup-norm projection.

    Returns a CDF H minimizing ``||Ghat - (1 - ahat) U - ahat H||_inf``
    over step CDFs on the observed p-value grid (or over continuous
    piecewise-linear CDFs with nodes on that grid and H(0) = 0 when
    ``piecewise_linear=True``, a finer representation suited to smooth
    targets).  The result is the global optimum.

    Each free value h_k of H faces a band [lo_k, hi_k] of values of
    E = Ghat - (1 - ahat) U, read from ``_excess``'s one set of bend points,
    between which E is linear: the one-sided values at the k-th node past 0,
    or for a step CDF every value on the k-th p-value interval's closure
    (the last interval is closed at 1).  The stretch where H is pinned at 0
    contributes a fixed deviation ``fixed_dev``.  With y = ahat h, the
    problem is L-infinity isotonic regression on interval data, whose
    optimal value is

        D* = max(fixed_dev, max_k (cummax(hi)_k - lo_k) / 2,
                 max_k (hi_k - ahat), max_k (-lo_k)).

    Every nondecreasing y between L = clip(cummax(hi) - D*, 0, ahat) and
    U = clip(reverse-cummin(lo + D*), 0, ahat) attains D*; the canonical
    midpoint h = (L + U) / (2 ahat) is returned, which is nondecreasing,
    in [0, 1] and deterministic.  Runs in O(n log n) for n p-values.
    """
    a = _ahat_value(ahat)
    if not 0.0 < a <= 1.0:
        raise ValueError("ahat must lie in (0, 1]")
    t, er, el, at = _excess(ghat, a)
    if piecewise_linear:
        # node 0 is pinned at height 0, and E has no jump there
        x, fixed_dev, lo = t, abs(er[0]), np.minimum(er, el)[1:]
        hi = np.maximum(er, el, out=el)[1:]
    else:
        # an observed p-value of exactly 0 makes 0 a grid point of its own
        k0 = int(ghat.base.values[0] == 0.0)
        x, at = ghat.base.knots[k0:], at[k0:]
        # on the fixed stretch [0, x_0) E is linear from E(0) = 0
        fixed_dev = abs(float(el[at[0]])) if x[0] > 0.0 else 0.0
        # E's ends on each segment between points; the last segment is the point 1
        el = np.append(el[1:], er[-1])
        lo = np.minimum.reduceat(np.minimum(er, el), at)
        hi = np.maximum.reduceat(np.maximum(er, el, out=el), at)
    del t, er, el, at
    cum_hi = np.maximum.accumulate(hi)
    d = max(fixed_dev, float(np.max(cum_hi - lo)) / 2.0,
            float(np.max(hi)) - a, -float(np.min(lo)))
    lower = np.clip(cum_hi - d, 0.0, a)
    upper = np.clip(np.minimum.accumulate((lo + d)[::-1])[::-1], 0.0, a)
    h = (lower + upper) / (2.0 * a)
    if piecewise_linear:
        return PiecewiseLinear(x, np.r_[0.0, h])
    return StepFunction.from_pairs(x, h, value_at_zero=0.0)


def projection_objective(ghat: EcdfEstimate, ahat, fhat) -> float:
    """Exact sup-norm objective ``||Ghat - (1 - ahat) U - ahat fhat||_inf``.

    Works for step or piecewise-linear candidate CDFs.  The difference is
    linear between E's bend points joined with fhat's breakpoints, so it is
    evaluated from both sides at those points only, which is exact.
    """
    a = _ahat_value(ahat)
    step = isinstance(fhat, StepFunction)
    t, er, el, _ = _excess(ghat, a, fhat.knots if step else fhat.x)
    er -= a * fhat(t)
    el -= a * (fhat.left if step else fhat)(t)
    return float(max(np.abs(er).max(), np.abs(el).max()))
