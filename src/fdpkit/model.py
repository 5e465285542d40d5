"""Two-groups mixture model, classification counts, and the false
discovery / false nondiscovery proportion processes with their population
analogues.

Conventions used throughout the package:

* labels code alternatives as 1 and true nulls as 0;
* all processes of a threshold ``t`` reject exactly the p-values ``<= t``
  and are right-continuous step functions;
* the false discovery proportion is defined as 0 when nothing is rejected,
  and the false nondiscovery proportion as 0 when everything is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import _qhat, _require_count, _require_open_unit, _validated_pvalues
from .families import AlternativeFamily, BetaPower, _largest_true, _on_unit
from .stepfun import StepFunction, _elementwise

__all__ = [
    "MixtureModel",
    "LabeledSample",
    "CountsTable",
    "classify",
    "fdp_process",
    "fnp_process",
    "q_map",
    "qtilde_map",
    "expected_fdp_fnp",
    "q_inverse",
    "q_derivative",
]

# the alternative of a pure null: at a = 0 it has no effect on G
_UNIFORM = BetaPower(1.0)


@dataclass(frozen=True)
class MixtureModel:
    """Marginal p-value law ``G = (1-a) * Uniform + a * F``.

    Parameters
    ----------
    a : float
        Probability that a hypothesis is a true signal (label 1); the
        marginal mixing weight of the alternative component.
    F : AlternativeFamily or None
        Alternative p-value distribution; may be None only when ``a == 0``,
        where it stands for the uniform.
    """

    a: float
    F: AlternativeFamily | None = None

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("mixing weight a must lie in [0, 1]")
        if self.F is None:
            if self.a > 0.0:
                raise ValueError("an alternative family is required when a > 0")
            object.__setattr__(self, "F", _UNIFORM)

    @_elementwise
    def cdf(self, t):
        """Marginal CDF G(t): 0 below 0 and 1 above 1."""
        t = np.clip(t, 0.0, 1.0)
        return (1.0 - self.a) * t + self.a * self.F.cdf(t)

    def pdf(self, t):
        """Marginal density g(t) = (1-a) + a f(t) on [0, 1] and 0 outside it;
        requires the family density.  f is weighted only at a > 0, so a pure
        null's g is 1 even where a family passed with it has f infinite."""
        if self.F.pdf is None:
            raise ValueError("alternative family has no density")
        a = self.a
        return _on_unit(lambda t: (1.0 - a) + (a * np.asarray(self.F.pdf(t), dtype=float) if a > 0.0 else 0.0), t)

    @property
    def has_density(self) -> bool:
        return self.F.pdf is not None


@dataclass(frozen=True)
class LabeledSample:
    """P-values with simulation-only hypothesis labels (1 = alternative)."""

    pvalues: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        p = _validated_pvalues(self.pvalues)
        object.__setattr__(self, "pvalues", p)
        if self.labels is not None:
            h = np.asarray(self.labels)
            if h.shape != p.shape or not ((h == 0) | (h == 1)).all():
                raise ValueError("labels must be 0/1 and aligned with pvalues")
            object.__setattr__(self, "labels", h.astype(np.int8))

    @property
    def m(self) -> int:
        return self.pvalues.size

    def _require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("operation requires hypothesis labels")
        return self.labels


@dataclass(frozen=True)
class CountsTable:
    """2x2 rejection-by-label counts at a fixed threshold.

    ``mXY`` counts hypotheses with rejection indicator X (1 = rejected) and
    label Y (0 = null, 1 = alternative); ``r = m10 + m11`` rejections.
    """

    m00: int
    m10: int
    m01: int
    m11: int

    def __post_init__(self):
        if min(self.m00, self.m10, self.m01, self.m11) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def r(self) -> int:
        return self.m10 + self.m11

    @property
    def m(self) -> int:
        return self.m00 + self.m10 + self.m01 + self.m11


def classify(sample: LabeledSample, t: float) -> CountsTable:
    """Cross-tabulate rejection (p <= t) against the true labels."""
    h = sample._require_labels()
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    rej = sample.pvalues <= t
    alt = h == 1
    return CountsTable(
        m00=int(np.sum(~rej & ~alt)),
        m10=int(np.sum(rej & ~alt)),
        m01=int(np.sum(~rej & alt)),
        m11=int(np.sum(rej & alt)),
    )


def _distinct_sorted(sample: LabeledSample):
    """Distinct p-values with cumulative total/null/alternative counts."""
    h = sample._require_labels()
    distinct, inverse = np.unique(sample.pvalues, return_inverse=True)
    total = np.bincount(inverse, minlength=distinct.size).cumsum()
    nulls = np.bincount(inverse, weights=(h == 0).astype(float), minlength=distinct.size).cumsum()
    alts = total - nulls
    return distinct, total, nulls, alts


def fdp_process(sample: LabeledSample) -> StepFunction:
    """False discovery proportion path t -> (# nulls rejected) / (# rejected).

    Right-continuous, piecewise constant with breakpoints exactly at the
    distinct p-values; 0 before the first p-value (nothing rejected).
    """
    distinct, total, nulls, _ = _distinct_sorted(sample)
    vals = nulls / total
    return StepFunction.from_pairs(distinct, vals, value_at_zero=0.0)


def fnp_process(sample: LabeledSample) -> StepFunction:
    """False nondiscovery proportion path t -> (# alternatives not rejected)
    / (# not rejected); 0 once everything is rejected."""
    distinct, total, nulls, alts = _distinct_sorted(sample)
    m = sample.m
    m1 = alts[-1]
    above = m - total            # count strictly above each distinct p
    alts_above = m1 - alts
    vals = np.where(above > 0, alts_above / np.maximum(above, 1), 0.0)
    return StepFunction.from_pairs(distinct, vals, value_at_zero=m1 / m)


def q_map(model: MixtureModel):
    """Population positive false discovery rate t -> (1-a) t / G(t), with 0 at t=0."""
    return _elementwise(lambda t: _qhat(model.cdf(t), t, 1.0 - model.a))


def qtilde_map(model: MixtureModel):
    """Population false nondiscovery analogue t -> a (1 - F(t)) / (1 - G(t))."""

    @_elementwise
    def qtilde(t):
        g = model.cdf(t)
        if np.any(g >= 1.0):
            raise ValueError("undefined where G(t) = 1")
        return model.a * (1.0 - model.F.cdf(t)) / (1.0 - g)

    return qtilde


def expected_fdp_fnp(model: MixtureModel, m: int, t: float) -> tuple[float, float]:
    """Exact means of the two proportion processes at a fixed threshold.

    Mean FDP = Q(t) (1 - (1-G(t))^m); mean FNP = Qtilde(t) (1 - G(t)^m).
    The second factor in each is the probability the denominator count is
    positive.  At G(t) = 1 the FNP mean is 0 (no non-rejections possible).
    """
    _require_count("m", m, 1)
    _require_open_unit("t", t)
    g = model.cdf(t)
    efdp = q_map(model)(t) * (1.0 - (1.0 - g) ** m)
    if g >= 1.0:
        efnp = 0.0
    else:
        efnp = qtilde_map(model)(t) * (1.0 - g**m)
    return float(efdp), float(efnp)


@_elementwise
def q_derivative(model: MixtureModel, t):
    """Derivative of the population ratio Q: (1-a)(G(t) - t g(t)) / G(t)^2."""
    g = model.cdf(t)
    return (1.0 - model.a) * (g - t * model.pdf(t)) / g**2


@_elementwise
def q_inverse(model: MixtureModel, u):
    """Largest t in [0, 1] with Q(t) <= u, elementwise, for the population
    ratio Q(t) = (1-a) t / G(t).  Requires 0 < u <= Q(1) = 1 - a.

    Q is nondecreasing when G is concave (every built-in family), and the
    answer is then exact on the double grid.  A Q that falls anywhere on a
    fixed grid of [0, 1] raises ValueError instead of returning garbage."""
    if not np.all((0.0 < u) & (u <= 1.0 - model.a)):
        raise ValueError("u outside the range of the population ratio")
    q = q_map(model)
    qg = q(np.sort(np.r_[np.geomspace(1e-12, 1.0, 601), np.linspace(0.0, 1.0, 1001)]))
    if np.any(np.diff(qg) < -1e-12 * qg[1:]):
        raise ValueError("population ratio Q decreases: G is not concave, so Q has no monotone inverse")
    return _largest_true(lambda t: q(t) <= u, u.shape)
