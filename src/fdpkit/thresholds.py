"""Rejection-threshold procedures: classical single-step and step-up rules,
the known-model oracle, plug-in rules built on estimated quantities, and the
asymptotic rate-ceiling rule for a known mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import (_SPAN, _ahat_value, _bandwidth, _is_integer, _normalize_variant, _require_open_unit,
                         _validated_pvalues, ecdf, kernel_density)
from .kernels import KernelSpec, eval_kernel
from .model import MixtureModel, q_inverse, q_map

__all__ = [
    "ThresholdResult",
    "simple_thresholds",
    "bh_threshold",
    "oracle_threshold",
    "plugin_threshold",
    "bayes_classifier_threshold",
    "rate_ceiling_known_a",
]


@dataclass(frozen=True)
class ThresholdResult:
    """A rejection rule: reject p-values up to ``t`` (strictly below ``t``
    when ``inclusive`` is False).  ``rejected`` is None for population-level
    rules that never saw data; ``z`` carries the rate value attached to the
    rule when there is one."""

    t: float
    rejected: int | None
    method: str
    alpha: float | None = None
    z: float | None = None
    inclusive: bool = True
    diagnostics: dict = field(default_factory=dict)


def _count_rejected(p: np.ndarray, t: float) -> int:
    return int(np.count_nonzero(p <= t))


def simple_thresholds(
    pvalues,
    alpha: float | None = None,
    kind: str = "uncorrected",
    *,
    t: float | None = None,
    r: int | None = None,
) -> ThresholdResult:
    """Single-step rules: ``uncorrected`` rejects below alpha, ``bonferroni``
    below alpha / m, ``fixed`` below a user threshold, ``first-r`` rejects
    the r smallest (and their ties); at r = 0 it rejects none, not even a
    p-value of 0, and returns t = 0 with ``inclusive=False``."""
    p = _validated_pvalues(pvalues)
    m = p.size
    kind = kind.replace("_", "-")
    if kind in ("uncorrected", "bonferroni"):
        if alpha is None or not 0.0 < alpha < 1.0:
            raise ValueError("alpha in (0, 1) required")
        thr = alpha if kind == "uncorrected" else alpha / m
    elif kind == "fixed":
        if t is None or not 0.0 <= t <= 1.0:
            raise ValueError("fixed rule needs t in [0, 1]")
        thr = float(t)
    elif kind == "first-r":
        if not _is_integer(r) or not 0 <= r <= m:
            raise ValueError(f"first-r rule needs an integer r in {{0, ..., m}}, got {r!r}")
        if r == 0:
            return ThresholdResult(t=0.0, rejected=0, method=kind, alpha=alpha, inclusive=False)
        thr = float(np.sort(p)[r - 1])
    else:
        raise ValueError(f"unknown rule kind: {kind!r}")
    return ThresholdResult(
        t=float(thr),
        rejected=_count_rejected(p, thr),
        method=kind,
        alpha=alpha,
    )


def _step_up(p: np.ndarray, level: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along the last axis of ``p``, at one level per row: the sorted
    p-values, r = max{i : p_(i) <= level i / m} (0 when the set is empty)
    and t = p_(r) (0 when r = 0)."""
    ps = np.sort(p, axis=-1)
    m = ps.shape[-1]
    # compared a span of ranks at a time from i = m down, so the first hit is the last feasible i;
    # one level scales in place.  Divided in place: `a * b / m` makes NumPy check whether it may
    # reuse the product's buffer, and its first check allocates a 46 kB thread-local block that could
    # pin glibc's heap above a validation run's 8 MB blocks (peak RSS 93-103 MB instead of 90 in
    # about half the runs, x86-64 glibc 2.36)
    for hi in range(m, 0, -_SPAN):
        lo = max(hi - _SPAN, 0)
        crit = np.arange(hi, lo, -1, dtype=float)
        crit = np.multiply(np.expand_dims(level, -1), crit, out=None if np.ndim(level) else crit)
        crit /= m
        down = ps[..., lo:hi][..., ::-1] <= crit
        got = np.where(down.any(axis=-1), hi - down.argmax(axis=-1), 0)
        r = got if hi == m else np.where(r > 0, r, got)
        if lo == 0 or r.all():
            break
    t = np.take_along_axis(ps, np.expand_dims(r - 1, -1), axis=-1)[..., 0]
    return ps, r, np.where(r > 0, t, 0.0)


def _plugin(p: np.ndarray, one_minus, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plug-in rule on the p-values along the last axis of ``p``, at one
    1 - ahat per row: ``_step_up`` at level alpha / (1 - ahat), with t = 1
    (every p-value rejected) where 1 - ahat <= alpha."""
    whole = one_minus <= alpha
    ps, r, t = _step_up(p, np.where(whole, np.inf, alpha / np.where(whole, 1.0, one_minus)))
    return ps, r, np.where(whole, 1.0, t)


def bh_threshold(pvalues, alpha: float) -> ThresholdResult:
    """Step-up rule: reject the i* smallest with
    i* = max{i : p_(i) <= alpha i / m}, none when the set is empty."""
    p = _validated_pvalues(pvalues)
    _require_open_unit("alpha", alpha)
    _, istar, t = _step_up(p, alpha)
    return ThresholdResult(t=float(t), rejected=int(istar), method="bh", alpha=alpha)


def oracle_threshold(model: MixtureModel, alpha: float) -> ThresholdResult:
    """Largest t whose population positive-FDR value Q(t) stays at or below
    alpha: 1 once alpha reaches Q(1) = 1 - a, else ``q_inverse(model, alpha)``,
    exact on the double grid for concave G (a ValueError otherwise)."""
    _require_open_unit("alpha", alpha)
    t = 1.0 if alpha >= 1.0 - model.a else q_inverse(model, alpha)
    return ThresholdResult(
        t=float(t),
        rejected=None,
        method="oracle",
        alpha=alpha,
        diagnostics={"q_at_t": float(q_map(model)(t))},
    )


def plugin_threshold(pvalues, ahat, alpha: float, variant: str = "plain") -> ThresholdResult:
    """Plug-in rule: the largest candidate t in {0} U {p-values} U {1} with
    estimated positive-FDR value (1 - ahat) t / Ghat(t) at or below alpha.

    On the p-values this is the step-up rule at level alpha / (1 - ahat):
    Benjamini-Hochberg at ahat = 0, Storey's rescaled level otherwise, and
    t = 1 (every p-value rejected) once 1 - ahat <= alpha.  The ``floor``
    variant gives the same threshold as ``plain``: its value
    (1 - ahat) t / max(Ghat(t), t) is at most alpha exactly when
    (1 - ahat) t <= alpha Ghat(t) or 1 - ahat <= alpha.

    With the concave-majorant variant the estimated map is monotone and the
    exact supremum over [0, 1] is solvable segment by segment, so that exact
    point is returned instead.  For the step variants the exact supremum
    (which can exceed the largest feasible candidate, since the map restarts
    rising inside each flat stretch of Ghat) is reported in
    ``diagnostics["sup_exact"]``: the map rises on the piece of Ghat
    starting at t, with value v = rejected / m, until it crosses alpha at
    alpha v / (1 - ahat) or the piece ends at the next p-value (or 1).  A
    hull segment y = s t + c is crossed at t* = alpha c / (1 - ahat - alpha s).
    Both are read like every data-driven threshold: the last piece feasible
    at its start decides, with the crossing kept inside that piece.
    """
    p = _validated_pvalues(pvalues)
    _require_open_unit("alpha", alpha)
    a = _ahat_value(ahat)
    _normalize_variant(variant)
    diag = {"ahat": a, "variant": variant}
    a_method = getattr(ahat, "method", None)
    if a_method is not None:
        diag["ahat_method"] = a_method
    m = p.size
    one_minus = 1.0 - a
    if variant == "lcm" and one_minus > alpha:
        t = sup = _lcm_sup(ecdf(p, variant), one_minus, alpha)
        rejected = _count_rejected(p, t)
    else:
        # r ends a run of tied p-values, so it counts the p-values <= t; the
        # crossing is at least t, which the step-up comparison found feasible
        ps, r, t = _plugin(p, one_minus, alpha)
        rejected, t = int(r), float(t)
        nxt = float(ps[rejected]) if rejected < m else 1.0
        # where 1 - ahat <= alpha the map tops out at 1 - ahat: t = sup = 1
        sup = min(nxt, max(t, alpha * (rejected / m) / one_minus)) if one_minus > alpha else 1.0
    diag["sup_exact"] = sup
    return ThresholdResult(
        t=t, rejected=rejected, method="plugin", alpha=alpha, diagnostics=diag
    )


def _last_crossing(n, feasible, piece) -> tuple[int | None, float, bool]:
    """Read a threshold sup{t : rate(t) <= level} off n pieces on each of
    which the rate rises, a span of pieces at a time from the top:
    ``feasible(lo, hi)`` says which of pieces lo..hi-1 are feasible at their
    start, and the last feasible piece i decides.  ``piece(i)`` gives its
    start, end and crossing, solved on that piece only; t is the crossing kept
    inside [start, end] (inf reads the end).  ``inclusive`` is False when t is
    the open end of a piece other than the last one, a supremum not attained.
    (None, 0.0, False) when no piece is feasible."""
    for hi in range(n, 0, -_SPAN):
        ok = feasible(max(hi - _SPAN, 0), hi)
        if ok.any():
            i = hi - 1 - int(np.argmax(ok[::-1]))
            start, end, cross = map(float, piece(i))
            t = min(max(cross, start), end)
            return i, t, t < end or i == n - 1
    return None, 0.0, False


def _lcm_sup(ghat, one_minus: float, alpha: float) -> float:
    """Exact sup along the concave majorant: the segment y = s t + c is
    crossed at alpha c / (1 - ahat - alpha s), and is feasible throughout
    when that denominator is at most 0."""
    xs, ys = ghat.hull.x, ghat.hull.y
    x0, x1 = xs[:-1], xs[1:]
    # a segment over a subnormal gap has an infinite slope and a NaN
    # intercept; its denominator is -inf, so it is feasible throughout
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (ys[1:] - ys[:-1]) / (x1 - x0)
        c = ys[:-1] - s * x0
        den = one_minus - alpha * s
        cross = np.where(den > 0.0, alpha * c / den, np.inf)
    return _last_crossing(x0.size, lambda lo, hi: cross[lo:hi] >= x0[lo:hi],
                          lambda i: (x0[i], x1[i], cross[i]))[1]


def bayes_classifier_threshold(pvalues, bandwidth: float | None = None) -> ThresholdResult:
    """Reject where the estimated marginal density exceeds 1 — the sample
    analogue of the optimal-classification region; the threshold is the
    largest density-grid point in that region (0 when it is empty)."""
    grid, dens = kernel_density(pvalues, bandwidth)   # validates p and h
    p = np.asarray(pvalues, dtype=float)
    h = _bandwidth(bandwidth, p.size)
    above = dens > 1.0
    t = float(grid[above].max()) if np.any(above) else 0.0
    return ThresholdResult(
        t=t,
        rejected=_count_rejected(p, t),
        method="bayes-classifier",
        diagnostics={"bandwidth": h, "density_max": float(dens.max())},
    )


def rate_ceiling_known_a(model: MixtureModel, m: int, c: float, alpha: float) -> ThresholdResult:
    """Threshold keeping the realized false discovery proportion at or below
    c with probability about 1 - alpha, for a known mixture at sample size m.

    Starts from the population point t_c where the positive-FDR map hits c
    and backs off by a normal quantile of the rejection-balance fluctuation
    scaled by the slope of its mean."""
    from scipy.special import ndtri

    if m < 1:
        raise ValueError("m must be at least 1")
    _require_open_unit("c", c)
    _require_open_unit("alpha", alpha)
    a = model.a
    t_c = 1.0 if c >= 1.0 - a else q_inverse(model, c)
    slope = (1.0 - a) - c * float(model.pdf(t_c))
    if slope <= 0.0:
        raise ValueError("expected rejection balance is not strictly decreasing at the target")
    k = eval_kernel(KernelSpec("rejection-balance", model, c=c), t_c, t_c)
    sd = float(np.sqrt(max(k, 0.0)))
    t = max(0.0, t_c - float(ndtri(1.0 - alpha)) * sd / (slope * np.sqrt(m)))
    return ThresholdResult(
        t=float(t),
        rejected=None,
        method="rate-ceiling-known-a",
        alpha=alpha,
        z=float(c),
        diagnostics={"t_c": float(t_c), "sd": sd, "slope": float(slope)},
    )
