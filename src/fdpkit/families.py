"""Alternative p-value distributions for the two-groups mixture.

Every family exposes the CDF on [0, 1]; density and quantile function are
optional in general (operations that need them fail fast when absent), but
all built-in families provide the full triple.
"""

from __future__ import annotations

import inspect
from functools import partial

import numpy as np

from .stepfun import _elementwise

__all__ = [
    "AlternativeFamily",
    "OneSidedNormal",
    "TwoSidedNormal",
    "BetaPower",
    "UserCdf",
    "make_family",
]


def _largest_true(pred, shape=(), lo=0.0, hi=1.0):
    """Largest double t in [lo, hi] (by default [0, 1]) with ``pred(t)``
    true, elementwise over ``shape``, for a vectorized predicate true at lo.

    Nonnegative doubles sort like their int64 bit patterns, so bisecting
    over the patterns ends in at most 62 steps, with no tolerance and no
    step count to choose, on a t where pred holds and fails one double up
    (or t = hi).  Where pred switches off more than once, as ``cdf(t) < u``
    does for both normal families (their rounded CDFs, like SciPy's ``ndtri``
    under them, fall at the ulp level), t is one such switch, and which one depends on the bracket."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), shape).view(np.int64)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), shape).view(np.int64)
    while np.any(lo < hi):
        mid = lo + (hi - lo + 1) // 2
        ok = pred(mid.view(np.float64))
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid - 1)
    return lo.view(np.float64)


@_elementwise
def _on_unit(f, t):
    """f(t) on [0, 1] and 0 outside it, for a density f; NaN stays NaN."""
    return np.where((t < 0.0) | (t > 1.0), 0.0, f(np.clip(t, 0.0, 1.0)))


@_elementwise
def _quantile(cdf, u, *, lo=0.0, hi=1.0):
    """Generalized inverse inf{t : cdf(t) >= u} of a vectorized CDF on
    [0, 1]: the next double above a largest t with cdf(t) < u, searched in
    [lo, hi] (which must hold cdf(lo) < u), and 0 at u = 0."""
    t = np.nextafter(_largest_true(lambda t: cdf(t) < u, u.shape, lo, hi), 1.0)
    return np.where(u > 0.0, t, 0.0)


class AlternativeFamily:
    """Interface: ``cdf`` required; ``pdf``/``ppf`` optional (may be None)."""

    params: dict = {}

    def cdf(self, t):
        raise NotImplementedError

    pdf = None
    ppf = None

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


class _NormalMean(AlternativeFamily):
    """P-values of a normal-mean test with effect ``theta`` and ``n``
    observations, so standardized shift ``mu = sqrt(n) * theta``."""

    def __init__(self, theta: float, n: int = 1):
        if theta < 0 or n < 1:
            raise ValueError("need theta >= 0 and n >= 1")
        self.theta = float(theta)
        self.n = int(n)
        self.mu = np.sqrt(self.n) * self.theta
        self.params = {"theta": self.theta, "n": self.n}


class OneSidedNormal(_NormalMean):
    """P-values of a one-sided normal-mean test with standardized shift
    ``sqrt(n) * theta``.

    CDF ``F(t) = ndtr(mu + ndtri(t))`` with ``mu = sqrt(n) * theta``; this is
    the exceedance probability of a unit-variance normal shifted by ``mu``.
    The density ``exp(-mu * ndtri(t) - mu^2 / 2)`` is strictly decreasing, so
    the family is pure: its density tends to 0 at t = 1.
    """

    @_elementwise
    def cdf(self, t):
        from scipy.special import ndtr, ndtri

        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, ndtr(self.mu + ndtri(np.clip(t, 1e-320, 1.0)))))

    def pdf(self, t):
        from scipy.special import ndtri

        if self.mu == 0.0:  # uniform; the formula is 0 * inf at the endpoints
            return _on_unit(np.ones_like, t)
        return _on_unit(lambda t: np.exp(-self.mu * ndtri(t) - 0.5 * self.mu**2), t)

    @_elementwise
    def ppf(self, u):
        from scipy.special import ndtr, ndtri

        x = ndtri(u, out=np.empty_like(u))  # ndtr(ndtri(u) - mu) in one buffer
        x -= self.mu
        return ndtr(x, out=x)


class TwoSidedNormal(_NormalMean):
    """P-values of a two-sided normal-mean test with shift ``sqrt(n) * theta``.

    Density ``exp(-mu^2/2) * cosh(mu * c)`` at ``c = -ndtri(p/2)``, the
    form of the critical value that does not cancel for small p; its
    infimum over (0, 1] is ``exp(-mu^2/2) > 0``, so the family is impure and
    the mixture weight is only partially identifiable.
    """

    @_elementwise
    def cdf(self, t):
        from scipy.special import ndtr, ndtri

        c = -ndtri(np.clip(t, 1e-320, 1.0) / 2.0)
        out = ndtr(self.mu - c) + ndtr(-c - self.mu)
        return np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, out))

    def pdf(self, t):
        from scipy.special import ndtri

        if self.mu == 0.0:  # uniform; the formula is 0 * inf at t = 0
            return _on_unit(np.ones_like, t)

        def f(t):
            # t / 2 underflows to 0 at the smallest subnormal; keep it positive
            c = -ndtri(np.where(t > 0.0, np.maximum(t / 2.0, 5e-324), t))
            return np.exp(-0.5 * self.mu**2) * np.cosh(self.mu * c)

        return _on_unit(f, t)

    @_elementwise
    def ppf(self, u):
        from scipy.special import ndtr, ndtri

        # Newton in c on ndtr(mu - c) + ndtr(-mu - c) = u from the first tail's root (below c), then
        # bisection within 2^12 patterns of t = 2 ndtr(-c) where cdf(lo) < u <= cdf(hi), else on [0, 1].
        # Of 200k uniform u per mu in 0.5-8, 3, 4 and 40 steps leave 158k, 37 and 37 rows to [0, 1] (5 keep
        # a step in hand); widths 2^10, 2^12 and 2^14 leave 137, 37 and 7, where the cdf is flat near u = 1.
        mu, one = self.mu, np.float64(1.0).view(np.int64)
        with np.errstate(all="ignore"):  # a NaN iterate fails the check
            c = np.maximum(mu - ndtri(u), 0.0)
            for _ in range(5):
                c += (ndtr(mu - c) + ndtr(-mu - c) - u) * np.sqrt(2.0 * np.pi) / (np.exp(-0.5 * (mu - c) ** 2) + np.exp(-0.5 * (mu + c) ** 2))
            bits = (2.0 * ndtr(-c)).view(np.int64)
        lo, hi = (np.clip(bits + w, 0, one).view(np.float64) for w in (-(2**12), 2**12))
        ok = (self.cdf(lo) < u) & (self.cdf(hi) >= u)
        q = np.empty_like(u)  # the rows that fail their bracket bisect apart, so the others keep their few steps
        q[ok], q[~ok] = _quantile(self.cdf, u[ok], lo=lo[ok], hi=hi[ok]), _quantile(self.cdf, u[~ok])
        return q


class BetaPower(AlternativeFamily):
    """Power-law alternative ``F(t) = t**beta`` with ``0 < beta <= 1``.

    ``beta = 0.5`` is the square-root family used in worked examples; its
    density ``beta * t**(beta-1)`` decreases to ``beta`` at t = 1.
    """

    def __init__(self, beta: float):
        if not 0.0 < beta <= 1.0:
            raise ValueError("need 0 < beta <= 1 so that F dominates the uniform")
        self.beta = float(beta)
        self.params = {"beta": self.beta}

    @_elementwise
    def cdf(self, t):
        # clipped into an array, even 0-d: NumPy rounds a scalar's ** 0.5 through pow, an array's through sqrt
        return np.clip(t, 0.0, 1.0, out=np.empty_like(t)) ** self.beta

    def pdf(self, t):
        with np.errstate(divide="ignore"):  # density diverges at 0 for beta < 1
            return _on_unit(lambda t: self.beta * t ** (self.beta - 1.0), t)

    @_elementwise
    def ppf(self, u):
        return u ** (1.0 / self.beta)


class UserCdf(AlternativeFamily):
    """Wrap a user-supplied CDF (plus optional density/quantile callables)."""

    def __init__(self, cdf, pdf=None, ppf=None):
        self.cdf = cdf
        self.pdf = pdf
        self.ppf = ppf if ppf is not None else partial(_quantile, cdf)
        self.params = {}


# Each config tag names the constructor that declares its parameters.
_FAMILIES = {
    "one-sided-normal": OneSidedNormal,
    "two-sided-normal": TwoSidedNormal,
    "beta": BetaPower,
    "square-root": partial(BetaPower, 0.5),
    "user-cdf": UserCdf,
}


def make_family(name: str, params: dict | None = None) -> AlternativeFamily:
    """Construct a family from its config tag, `params` being the keyword
    arguments of the tag's constructor in ``_FAMILIES``.

    Tags: ``one-sided-normal``, ``two-sided-normal`` (theta, n = 1), ``beta``
    (beta), ``square-root`` (none), ``user-cdf`` (callables cdf, pdf = None,
    ppf = None; not expressible in config files).  A missing parameter, or
    one the constructor does not take, is a ``ValueError`` naming both.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown alternative family: {name!r}")
    ctor, params = _FAMILIES[name], params or {}
    try:
        inspect.signature(ctor).bind(**params)
    except TypeError as e:
        raise ValueError(f"alternative family {name!r}: {e}") from None
    return ctor(**params)
