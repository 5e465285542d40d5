"""Confidence envelopes for the false discovery proportion path, and the
thresholds read off from them.

Two constructions: an asymptotic band driven by the supremum of a scaled
Brownian bridge, valid above a small-t floor; and an exact finite-sample
envelope obtained by inverting per-subset uniformity tests based on the
second-smallest p-value.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .estimation import _SPAN, EcdfEstimate, _OverGhat, _is_integer, _require_open_unit, _validated_pvalues, ecdf
from .thresholds import ThresholdResult, _last_crossing

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

def brownian_sup_quantile(alpha_half: float, t_floor: float) -> float:
    """Upper quantile (level 1 - alpha_half) of sup over [t_floor, 1] of
    B(t) / sqrt(t) for a Brownian bridge B.

    The value is read from the committed table (``fdpkit._brownian_table``,
    built by ``tools/brownian_table.py`` from one seeded 200000-replicate
    simulation), its only source: at the largest stored level at or below
    ``alpha_half`` and the largest stored floor at or below ``t_floor``.
    A smaller level and a longer window both give a larger supremum
    quantile, so either rounding errs toward a wider band: the band stays
    conservative.  The levels are alpha / 2 for alpha in 0.002, 0.005,
    0.01, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3,
    0.4 and 0.5, and the floors run from 1e-8 to 1, 24 a decade.  A level
    below 0.001 or a floor below 1e-8 is a ValueError: simulate the
    quantile with ``tools/brownian_table.py`` and pass it to
    ``asymptotic_envelope`` as ``w``."""
    return _sup_quantile(alpha_half, t_floor)[0]


def _sup_quantile(alpha_half, t_floor) -> tuple[float, float]:
    """``brownian_sup_quantile`` with its order-statistic standard error."""
    from ._brownian_table import ALPHA_HALF, FLOORS, W, W_SE

    _require_open_unit("alpha_half", alpha_half)
    if not 0.0 < t_floor <= 1.0:
        raise ValueError("t_floor must lie in (0, 1]")
    j = bisect.bisect_right(ALPHA_HALF, alpha_half) - 1
    k = bisect.bisect_right(FLOORS, t_floor) - 1
    simulate = ("simulate w with tools/brownian_table.py and pass it as asymptotic_envelope(..., w=), "
                "the only call that takes a simulated w")
    if j < 0:
        raise ValueError(
            f"alpha / 2 = {float(alpha_half)!r} is below the smallest level of the Brownian quantile table, "
            f"{ALPHA_HALF[0]!r}: the smallest alpha (--alpha) it serves is {2.0 * ALPHA_HALF[0]!r}; "
            f"for a smaller one, {simulate}"
        )
    if k < 0:
        raise ValueError(
            f"t_min = {float(t_floor)!r} is below the first floor of the Brownian quantile table, "
            f"{float(FLOORS[0])!r}: the smallest t_min (--t-min) it serves is {float(FLOORS[0])!r}; "
            f"for a smaller one, {simulate}"
        )
    return float(W[k, j]), float(W_SE[k, j])


@dataclass(frozen=True)
class _AsymptoticCurve(_OverGhat):
    """The band t -> min(V(t) / Ghat(t), 1) ("gamma"), or the count path
    V(t) = (1 - a0) t + delta sqrt(t / m) ("v") or m V ("j"); all are
    undefined (NaN) below the floor t_min.  ``fit`` may take a column of
    Ghat(t0), one row per sample, for ``values`` on those rows."""

    one_minus_a0: float
    delta: float
    m: int
    t_min: float
    ghat: EcdfEstimate | None = None
    kind: str = "gamma"

    @classmethod
    def fit(cls, ghat_t0, m, t0, alpha, t_min, w):
        """The count path of m p-values with Ghat(t0) = ``ghat_t0``: 1 - a0 is
        the exceedance ratio's (1 - Ghat(t0)) / (1 - t0), taken without
        clamping, and delta the larger of 2 (1 - a0) w and the
        distribution-free tail term."""
        one_minus_a0 = (1.0 - ghat_t0) / (1.0 - t0)
        tail_term = np.sqrt(2.0) / (1.0 - t0) * np.sqrt(np.log(4.0 / alpha))
        return cls(one_minus_a0, np.maximum(2.0 * one_minus_a0 * w, tail_term), m, t_min)

    def values(self, t, g):
        """The curve at t where Ghat(t) = ``g``, which only the band reads; in
        place, so it holds about one temporary of the result's size."""
        out = np.asarray(self.delta * np.sqrt(t / self.m))
        out += self.one_minus_a0 * t
        if self.kind == "j":
            out *= self.m
        elif self.kind == "gamma":
            pos = g > 0.0
            np.divide(out, g, out=out, where=pos)     # V / 0 reads inf, also where V is 0
            np.copyto(out, np.inf, where=~pos)
            np.minimum(out, 1.0, out=out)
        np.copyto(out, np.nan, where=t < self.t_min)
        return out

    def crossing(self, c, g, start):
        """Where the band reaches c on a piece from ``start`` with Ghat = g:
        (1 - a0) t + delta sqrt(t / m) = c g at t = y^2, free of cancellation,
        y = 2 c g / (b + sqrt(b^2 + 4 (1 - a0) c g)), b = delta / sqrt(m).  The
        minimum (c None) sits at the start; clipped at 1, it never exceeds a c >= 1."""
        if c is None:
            return start
        if c >= 1.0:
            return np.inf
        b = self.delta / np.sqrt(self.m)
        cv = c * g
        y = 2.0 * cv / (b + np.sqrt(b * b + 4.0 * self.one_minus_a0 * cv))
        return y * y


@dataclass(frozen=True)
class _ExactCurve(_OverGhat):
    """The exact envelope, a closed form of the plain ECDF Ghat: with
    R = rint(m Ghat) rejections (exact for m < 2^51) and m - k_max the lower
    confidence bound on the alternatives, the count bound is
    j = max(R - (m - k_max), min(R, 1)), read as gamma = j / max(R, 1)
    ("gamma"), v = j / m ("v") or j ("j").  Flat wherever Ghat is."""

    m: int
    k_max: int
    ghat: EcdfEstimate
    kind: str = "gamma"

    def values(self, t, g):
        """The curve where Ghat = g; t does not enter."""
        r = np.rint(self.m * g)
        j = np.maximum(r - (self.m - self.k_max), np.minimum(r, 1.0))
        if self.kind == "gamma":
            return j / np.maximum(r, 1.0)
        return j / self.m if self.kind == "v" else j

    def crossing(self, c, g, start):
        """inf: flat on a piece, the curve stays at or below c to its end."""
        return np.inf


@dataclass(frozen=True)
class EnvelopeResult:
    """A level-(1 - level) upper confidence path for the FDP process: one
    curve over ``ghat``, the plain ECDF, read three ways.  ``gamma_bar`` is
    the bound on the FDP at t, ``v_fn`` the per-observation bound on the
    false discoveries and ``count_bound_at`` m times it, their count.
    Thresholds read Ghat's pieces and counts, so no copy of p is kept.
    ``t_min`` is the band's t_min, or the exact envelope's least p-value;
    ``meta`` holds data only."""

    gamma_bar: _AsymptoticCurve | _ExactCurve
    level: float
    method: str
    t_min: float
    meta: dict = field(default_factory=dict)

    @property
    def ghat(self) -> EcdfEstimate:
        return self.gamma_bar.ghat

    @property
    def v_fn(self):
        return replace(self.gamma_bar, kind="v")

    def gamma_at(self, t):
        return self.gamma_bar(t)

    def v_at(self, t):
        return self.v_fn(t)

    def count_bound_at(self, t):
        return replace(self.gamma_bar, kind="j")(t)


def asymptotic_envelope(
    pvalues,
    t0: float = 0.5,
    alpha: float = 0.05,
    t_min: float | None = None,
    w: float | None = None,
    *,
    enforce_floor: bool = True,
) -> EnvelopeResult:
    """Asymptotic FDP confidence band at level 1 - alpha on [t_min, 1].

    The half-width constant is the larger of a scaled-bridge supremum
    quantile term (weighted by the exceedance-ratio null fraction taken
    without clamping) and a distribution-free tail term; the band uses the
    plain empirical CDF.  Validity needs t_min above the small-t floor
    (log m)^4 / m; pass ``enforce_floor=False`` together with an explicit
    t_min to evaluate the band below that floor anyway.

    Unless ``w`` is given, the quantile term is
    ``brownian_sup_quantile(alpha / 2, t_min)``, read from the committed
    table at the largest stored level at or below alpha / 2 and the largest
    stored floor at or below t_min; both roundings err toward a wider band,
    so the band stays conservative.  An alpha below 0.002 or a t_min below
    1e-8 is off the table and a ValueError unless ``w`` is given.
    ``meta["w_source"]`` says which ("table" or "given") and ``meta["w_se"]``
    holds the order-statistic standard error of w (None when w is given).
    """
    ghat = ecdf(pvalues)
    _require_open_unit("t0", t0)
    _require_open_unit("alpha", alpha)
    m = ghat.m
    floor = np.log(m) ** 4 / m
    if t_min is None:
        if not enforce_floor:
            raise ValueError("an explicit t_min is required when the floor check is disabled")
        if not 0.0 < floor < 1.0:     # 0 at m = 1, at least 1 for 2 <= m <= 5500
            raise ValueError(
                f"the small-t floor (log m)^4 / m = {float(floor)!r} is not in (0, 1) at m={m}, "
                "so no valid evaluation window exists; pass an explicit t_min in (0, 1), "
                "with enforce_floor=False if it lies below the floor"
            )
        t_min = floor
    elif enforce_floor and t_min < floor:
        raise ValueError(
            f"t_min={float(t_min)!r} is below the small-t floor (log m)^4 / m = {float(floor)!r}; "
            "the asymptotic band is not valid there (pass enforce_floor=False to override)"
        )
    _require_open_unit("t_min", t_min)
    if w is None:
        w, w_se = _sup_quantile(alpha / 2.0, t_min)
        w_source = "table"
    elif not (np.isfinite(w) and w > 0.0):
        raise ValueError(f"w must be positive and finite, got {w!r}")
    else:
        w_se, w_source = None, "given"
    band = replace(_AsymptoticCurve.fit(float(ghat(t0)), m, t0, alpha, float(t_min), float(w)), ghat=ghat)
    return EnvelopeResult(gamma_bar=band, level=alpha, method="asymptotic", t_min=band.t_min, meta={
        "m": m,
        "t0": t0,
        "one_minus_a0": band.one_minus_a0,
        "w": float(w),
        "w_se": w_se,
        "w_source": w_source,
        "delta": float(band.delta),
        "floor": float(floor),
    })


# ---------------------------------------------------------------------------
# Exact finite-sample construction.
# ---------------------------------------------------------------------------


def uniformity_critical_value(k: int, alpha: float) -> float:
    """Critical value for the second-smallest of k uniforms: the c with
    P{second order statistic <= c} = alpha, the alpha-quantile of its
    Beta(2, k - 1) law.  Sizes 0 and 1 are never rejected (returns -inf).

    The value is reported only: the test decides by the sign of h at its
    statistic (``uniformity_test_second_order``), never against c.  With
    n = k - 1, c is the root of the decreasing concave
    h(x) = n lpm(-x) + lpm(n x) - log1p(-alpha), lpm(z) = log1p(z) - z,
    which is log P{second order statistic > x} - log(1 - alpha), solved by
    Newton's method in ``_critical_values``; so it equals ``crit[k]`` of
    ``exact_confidence_set`` bit for bit.  The result is within 3.9e-16
    relative of mpmath roots for alpha from 5e-324 to 1 - 1e-12 and k up
    to 1e6."""
    if not _is_integer(k) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    _require_open_unit("alpha", alpha)
    return float(_critical_values(np.array([k]), alpha)[0])


def _q(z):
    """lpm(z) / z^2 for lpm(z) = log1p(z) - z, free of cancellation: -1/2
    at z = 0 and -inf at z = -1.  On -1/2 <= z <= 1, where log1p(z) - z
    loses up to about 4 bits, with u = 1 / (2 + z) and s = z u,
    log1p(z) = 2 atanh(s), so that
    q(z) = u (2 s u (1/3 + s^2/5 + ... + s^30/33) - 1), sixteen terms as
    |s| <= 1/3."""
    with np.errstate(divide="ignore", invalid="ignore"):     # z = -1, and z = 0, which is in the series
        out = np.log1p(z)
        out -= z
        out /= z
        out /= z
    near = (z >= -0.5) & (z <= 1.0)
    z = z[near]
    u = 1.0 / (2.0 + z)
    s = z * u
    out[near] = u * (2.0 * s * u * np.polyval(1.0 / np.arange(33, 2, -2), s * s) - 1.0)
    return out


def _h_over_y2(x, n, L):
    """h(x) / y^2 at y = n x, for h(x) = n lpm(-x) + lpm(n x) + L: in the
    scaled form q(y) + q(-x) / n + L / y / y, every term of which stays
    normal down to a subnormal alpha (h itself is about alpha there).  It
    is +inf at x = 0, where h = L, and -inf at x = 1."""
    y = n * x
    with np.errstate(divide="ignore", over="ignore"):
        return _q(y) + _q(-x) / n + L / y / y


def _accepts(x, k, alpha):
    """The one acceptance rule: a size-k subset whose second-smallest value
    is x is accepted when k <= 1 or h_k(x) < 0, i.e. x > c_k.  x and k
    broadcast; h sees x only where k >= 2 (rows may pad with +inf)."""
    x, k = np.broadcast_arrays(x, k)
    accept = np.asarray(k <= 1)
    big = ~accept
    accept[big] = _h_over_y2(x[big], k[big] - 1.0, -np.log1p(-alpha)) < 0.0
    return accept


def _critical_values(ks, alpha: float) -> np.ndarray:
    """The alpha-quantile c_k of Beta(2, k - 1), elementwise over an array
    of sizes k >= 0, and -inf at sizes 0 and 1, which are never rejected.
    No test compares against these values (``_accepts`` reads the sign of
    h); they are solved only to be reported.

    With n = k - 1 and L = -log1p(-alpha), c_k is the root on (0, 1) of

        h(x) = n lpm(-x) + lpm(n x) + L,   lpm(z) = log1p(z) - z <= 0,

    which is log S(x) - log(1 - alpha) for the survival function
    S(x) = (1 - x)^n (1 + n x); the +-n x terms cancel in the algebra, so
    they are never formed, and the two lpm terms add without cancelling.
    h decreases and is concave, with h'(x) = -(n + 1) n x / ((1 - x)(1 + n x)).
    It is evaluated as y^2 ``_h_over_y2``, y = n x, which stays accurate
    below alpha = 1e-300, where lpm(-x), about alpha / n^2, is subnormal.

    Newton starts right of the root, at the smaller of two bounds on it.
    First y0 / n with y0 = L + sqrt(L^2 + 2 L): as (1 - x)^n <= exp(-n x),
    n c_k is at most the root y* of lpm(y) = -L, and y0 >= y* because
    lpm(y) <= -y^2 / (2 (1 + y)) for y >= 0.  Then sqrt(-expm1(-L / n)),
    where (1 - x^2)^n = 1 - alpha: as 1 + n x <= (1 + x)^n,
    S(x) <= (1 - x^2)^n.  The second is the root itself at k = 2 and keeps
    the start below 1 for small k; it is dropped where L / n is subnormal,
    and so inexact, where y0 / n is far below 1.  From there the iterates
    fall monotonically onto the root; an entry stops when its next iterate
    does not fall, and a strictly falling sequence of doubles ends, so no
    tolerance or step cap is needed.  Against mpmath roots the result is
    within 3.9e-16 relative for alpha from 5e-324 to 1 - 1e-12 and k from 2
    to 1e6.
    """
    n = np.asarray(ks, dtype=float) - 1.0
    L = -np.log1p(-alpha)
    y0 = L + np.sqrt(L * L + 2.0 * L)
    moving = np.flatnonzero(n >= 1.0)
    x = np.full(n.shape, -np.inf)
    z = L / n[moving]
    x[moving] = np.minimum(y0 / n[moving], np.where(z < np.finfo(float).tiny, np.inf, np.sqrt(-np.expm1(-z))))
    while moving.size:
        xi, ni = x[moving], n[moving]
        y = ni * xi
        step = xi + _h_over_y2(xi, ni, L) * y * (1.0 - xi) * (1.0 + y) / (ni + 1.0)
        falls = step < xi
        moving = moving[falls]
        x[moving] = step[falls]
    return x


def _second_order_check(values: np.ndarray, alpha: float):
    """The acceptance rule for subsets along the last axis of ``values``,
    each of size k, its count of values below +inf (rows may pad a subset
    with +inf): each one's second-smallest value (None when the axis is
    shorter than 2) and whether ``_accepts`` it.  One subset gives a float
    (or None) and a bool."""
    k = np.count_nonzero(values < np.inf, axis=-1)
    stat = np.partition(values, 1, axis=-1)[..., 1] if values.shape[-1] > 1 else None
    accept = _accepts(np.inf if stat is None else stat, k, alpha)
    if values.ndim > 1:
        return stat, accept
    return (None if stat is None else float(stat)), bool(accept)


@dataclass(frozen=True)
class UniformityTestResult:
    accept: bool
    statistic: float | None
    critical: float
    k: int
    alpha: float


def uniformity_test_second_order(subset_pvalues, alpha: float) -> UniformityTestResult:
    """Accept the hypothesis that the subset is uniform when h_k is negative
    at its second-smallest value, i.e. that value lies above the size-k
    critical value (``_accepts``); subsets of size at most 1 are always
    accepted.  ``critical`` reports that value, solved by Newton's method;
    the verdict never reads it."""
    p = np.asarray(subset_pvalues, dtype=float)
    if p.ndim != 1:
        raise ValueError("need a 1-D array of p-values")
    if p.size and (np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    k = p.size
    crit = uniformity_critical_value(k, alpha)
    stat, accept = _second_order_check(p, alpha)
    return UniformityTestResult(accept=accept, statistic=stat, critical=crit, k=k, alpha=alpha)


@dataclass(frozen=True)
class ExactConfidenceSet:
    """A 1 - alpha confidence collection of candidate null label-sets,
    summarized through the per-size acceptance rule: a size-k subset is
    accepted when k <= 1 or h_k is negative at its second-smallest value
    (``_accepts``).

    ``feasible[k]`` says whether some size-k subset is accepted (the k
    largest p-values are the easiest to accept, so only they are checked);
    ``accepted_summaries`` lists those k (read off ``feasible`` on each
    access), and ``m0_interval`` is their range.  ``contains(labels)`` runs
    the exact membership test for a full labeling (1 marking the
    alternative) on ``pvalues``: the caller's array, not a copy, as in
    ``LabeledSample``.  ``crit`` reports the critical values c_0..c_m,
    solved by Newton's method on each access; no verdict reads them."""

    pvalues: np.ndarray
    sorted_pvalues: np.ndarray
    alpha: float
    feasible: np.ndarray
    m0_interval: tuple

    @property
    def crit(self) -> np.ndarray:
        return _critical_values(np.arange(self.pvalues.size + 1), self.alpha)

    @property
    def accepted_summaries(self) -> tuple:
        return tuple(np.flatnonzero(self.feasible).tolist())

    def contains(self, labels) -> bool:
        lab = np.asarray(labels)
        if lab.shape != self.pvalues.shape:
            raise ValueError("labels must align with the p-values")
        if not np.all((lab == 0) | (lab == 1)):
            raise ValueError("labels must be 0 (null) or 1 (alternative)")
        return _second_order_check(self.pvalues[lab == 0], self.alpha)[1]


def exact_confidence_set(pvalues, alpha: float) -> ExactConfidenceSet:
    """Build the exact confidence collection by testing, for each size k,
    the k largest p-values: ``feasible[k]`` is ``_accepts`` at their
    second-smallest, the order statistic ps[m - k + 1], one closed-form pass
    with no critical value solved.  It runs over one span of sizes at a
    time, so beyond p and its sort it holds a few span-sized temporaries."""
    p = _validated_pvalues(pvalues)
    _require_open_unit("alpha", alpha)
    m = p.size
    ps = np.sort(p)
    feasible = np.ones(m + 1, dtype=bool)
    for lo in range(2, m + 1, _SPAN):
        k = np.arange(lo, min(lo + _SPAN, m + 1))
        feasible[k] = _accepts(ps[m + 1 - k], k, alpha)
    accepted = np.flatnonzero(feasible)
    return ExactConfidenceSet(
        pvalues=p,
        sorted_pvalues=ps,
        alpha=alpha,
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
    R(t) >= 1.

    The one sort is in ``ecdf(pvalues)``: gamma, v and the count bound read
    one ``_ExactCurve`` over it.  The pairing is checked in O(distinct), a
    span of knots at a time: the sizes agree and each run of ties starts and
    ends on its value in the sorted ``sorted_pvalues``, i.e. ``sort(p)`` equals
    it.  No exact check skips that sort: two samples are one multiset exactly
    when their order statistics agree, and an order-free summary (sums,
    hashes) lets another through.  Runs in O(m log m) time and O(m) memory."""
    ghat = ecdf(pvalues)
    knots, g, m, ps = ghat.base.knots, ghat.base.values, ghat.m, confset.sorted_pvalues
    first = int(g[0] == 0.0)                    # skip a 0-knot no p-value sits on

    def runs_match(a):     # the rejections before knot a and at each knot of its span
        r = np.rint(m * np.r_[g[a - 1] if a else 0.0, g[a:a + _SPAN]]).astype(np.intp)
        x = knots[a:a + _SPAN]
        return np.all((ps[r[1:] - 1] == x) & (ps[r[:-1]] == x))

    if ps.size != m or not all(runs_match(a) for a in range(first, knots.size, _SPAN)):
        raise ValueError("confidence set was built from different p-values")
    lo = float(knots[first]) if knots[first] > 0.0 else 0.0     # no -0.0
    return EnvelopeResult(gamma_bar=_ExactCurve(m, confset.m0_interval[1], ghat), level=confset.alpha,
                          method="exact", t_min=lo, meta={"m": m, "domain": (lo, 1.0)})


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

    Both envelopes are curves over ``env.ghat``, read off its pieces from the
    one holding t_min, on each of which the bound rises, a span of pieces at a
    time: the minimum first, then ``_last_crossing`` from the top.  The last
    piece feasible at its start (at or below c, or at the minimum) decides,
    with the curve's ``crossing`` kept in it, and ``rejected`` is the ECDF's
    count there (0 if no piece is feasible)."""
    if c is not None and not np.isfinite(c):
        raise ValueError(f"the rate ceiling c must be finite, not {float(c)!r}")
    curve, steps, t_min = env.gamma_bar, env.ghat.base, env.t_min
    # the pieces [start, end) that end above t_min: the knots increase, so
    # they run from the piece holding t_min to the last one, up to and including 1
    i0 = int(np.searchsorted(steps.knots, t_min, "right")) - 1
    knots, g = steps.knots[i0:], steps.values[i0:]

    def bound(lo, hi):
        return curve.values(np.maximum(knots[lo:hi], t_min), g[lo:hi])

    def piece(i):
        start = float(max(knots[i], t_min))
        return start, float(knots[i + 1]) if i + 1 < g.size else 1.0, curve.crossing(c, g[i], start)

    z = min(bound(lo, lo + _SPAN).min() for lo in range(0, g.size, _SPAN)) if c is None else c
    i, t, inclusive = _last_crossing(g.size, lambda lo, hi: bound(lo, hi) <= z, piece)
    return ThresholdResult(
        t=t,
        rejected=0 if i is None else int(np.rint(env.ghat.m * g[i])),
        method="rate-ceiling" if c is not None else "min-rate",
        alpha=env.level,
        z=float(z),
        inclusive=inclusive,
        diagnostics={"envelope": env.method},
    )
