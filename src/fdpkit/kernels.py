"""Closed-form limiting covariance kernels for the empirical discovery
processes, all per-observation scaled (multiply empirical covariances by m
to compare).

Available kinds:

* ``matrix`` — the 2x2 joint kernel of the null/alternative counting
  processes; pick an entry with ``component=(i, j)``.
* ``rejection-balance`` — the kernel of the weighted difference
  (1-c) * nulls - c * alternatives used by the rate-ceiling threshold.
* ``fdp`` — the kernel of the false discovery proportion process.
* ``qhat`` — the kernel of the plug-in positive-FDR map with known mixing
  weight.
* ``qhat-inverse`` — the kernel of the inverse of that map, evaluated at
  points of its range.
* ``qhat-storey`` — the kernel of the plug-in map when the null weight is
  estimated by the exceedance ratio at ``t0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import _qhat, _require_open_unit
from .model import MixtureModel, q_inverse
from .stepfun import _elementwise

__all__ = ["KernelSpec", "eval_kernel", "storey_population_q"]

_KINDS = ("matrix", "rejection-balance", "fdp", "qhat", "qhat-inverse", "qhat-storey")


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    model: MixtureModel
    component: tuple | None = None
    c: float | None = None
    t0: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "matrix":
            if self.component not in ((0, 0), (0, 1), (1, 0), (1, 1)):
                raise ValueError("matrix kernel needs component in {0,1}^2")
        if self.kind == "rejection-balance" and not (self.c is not None and 0.0 < self.c < 1.0):
            raise ValueError("rejection-balance kernel needs c in (0, 1)")
        if self.kind == "qhat-storey":
            _require_open_unit("t0", np.nan if self.t0 is None else self.t0)


def _r(model: MixtureModel, i: int, j: int, s, t):
    a = model.a
    F = model.F.cdf
    if (i, j) == (0, 0):
        return (1.0 - a) * np.minimum(s, t) - (1.0 - a) ** 2 * s * t
    if (i, j) == (1, 1):
        return a * F(np.minimum(s, t)) - a**2 * F(s) * F(t)
    if (i, j) == (0, 1):
        return -(1.0 - a) * s * a * F(t)
    return -(1.0 - a) * t * a * F(s)


def _bridge(model: MixtureModel, s, t):
    """Covariance of the empirical-CDF limit: G(s ^ t) - G(s) G(t)."""
    return model.cdf(np.minimum(s, t)) - model.cdf(s) * model.cdf(t)


def storey_population_q(model: MixtureModel, t0: float):
    """Population centering of the exceedance-ratio plug-in map:
    t -> t (1 - G(t0)) / ((1 - t0) G(t))."""
    _require_open_unit("t0", t0)
    one_minus = (1.0 - model.cdf(t0)) / (1.0 - t0)
    return _elementwise(lambda t: _qhat(model.cdf(t), t, one_minus))


@_elementwise
def eval_kernel(spec: KernelSpec, s, t):
    """Evaluate the kernel at (s, t); broadcasts like numpy."""
    s = np.asarray(s, dtype=float)
    model = spec.model
    a = model.a
    kind = spec.kind
    if kind in ("fdp", "qhat", "qhat-storey"):    # the kernels read through G on (0, 1]
        if np.any(s <= 0.0) or np.any(t <= 0.0) or np.any(s > 1.0) or np.any(t > 1.0):
            raise ValueError("kernel arguments must lie in (0, 1]")
        Gs = model.cdf(s)
        Gt = model.cdf(t)

    if kind == "matrix":
        out = _r(model, *spec.component, s, t)
    elif kind == "rejection-balance":
        c = spec.c
        out = (
            (1.0 - c) ** 2 * _r(model, 0, 0, s, t)
            + c**2 * _r(model, 1, 1, s, t)
            - c * (1.0 - c) * (_r(model, 0, 1, s, t) + _r(model, 1, 0, s, t))
        )
    elif kind == "qhat-inverse":
        if np.any(s <= 0.0) or np.any(t <= 0.0) or np.any(s >= 1.0 - a) or np.any(t >= 1.0 - a):
            raise ValueError("inverse-map kernel arguments must lie in (0, 1 - a)")
        su = q_inverse(model, s)
        tv = q_inverse(model, t)
        g_su = model.pdf(su)
        g_tv = model.pdf(tv)
        num = s * t * _bridge(model, su, tv)
        den = ((1.0 - a) - s * g_su) * ((1.0 - a) - t * g_tv)
        out = num / den
    elif kind == "fdp":
        F = model.F.cdf
        num = a * (1.0 - a) * (
            (1.0 - a) * s * t * F(np.minimum(s, t)) + a * F(s) * F(t) * np.minimum(s, t)
        )
        out = num / (Gs**2 * Gt**2)
    elif kind == "qhat":
        qs = (1.0 - a) * s / Gs
        qt = (1.0 - a) * t / Gt
        out = qs * qt * _bridge(model, s, t) / (Gs * Gt)
    else:  # qhat-storey
        t0 = spec.t0
        Gt0 = model.cdf(t0)
        c00 = Gt0 * (1.0 - Gt0)
        c0t = _bridge(model, np.full_like(t, t0), t)
        cs0 = _bridge(model, s, np.full_like(s, t0))
        cst = _bridge(model, s, t)
        bracket = (
            Gs * Gt * c00
            + Gs * (1.0 - Gt0) * c0t
            + Gt * (1.0 - Gt0) * cs0
            + (1.0 - Gt0) ** 2 * cst
        )
        out = s * t * bracket / ((1.0 - t0) ** 2 * Gs**2 * Gt**2)
    return out
