"""Right-continuous step functions and piecewise-linear curves on [0, 1].

These are the shared representations for empirical CDFs, false-discovery
proportion paths, and confidence envelopes.  ``_elementwise`` holds the one
rule of every function of t in the package: scalars in give Python floats
out, and arrays keep their shape.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["StepFunction", "PiecewiseLinear"]


def _elementwise(f):
    """``f`` with its last positional argument t read as a float array and a 0-d result as a float."""
    @functools.wraps(f)
    def rule(*args, **kwargs):
        out = f(*args[:-1], np.asarray(args[-1], dtype=float), **kwargs)
        return out if np.ndim(out) else float(out)
    return rule


class StepFunction:
    """Piecewise-constant, right-continuous function on [0, 1].

    Parameters
    ----------
    knots : array_like
        Strictly increasing breakpoints with ``knots[0] == 0.0``.  The
        function equals ``values[i]`` on ``[knots[i], knots[i+1])`` and
        ``values[-1]`` on ``[knots[-1], 1]``.
    values : array_like
        Same length as ``knots``.  NaN entries are allowed and mean
        "undefined here" (used by envelopes below their domain).

    Notes
    -----
    Evaluation outside [0, 1], or at NaN, raises: paths and envelopes in
    this package have no meaning there.
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if knots.size == 0:
            raise ValueError("need at least one knot")
        if knots[0] != 0.0:
            raise ValueError("first knot must be 0.0")
        if not np.all(knots[1:] > knots[:-1]):   # False for NaN too
            raise ValueError("knots must be strictly increasing")
        if knots[-1] > 1.0 or np.any(knots < 0.0):
            raise ValueError("knots must lie in [0, 1]")
        self.knots = knots
        self.values = values

    @classmethod
    def from_pairs(cls, xs, ys, *, value_at_zero=0.0) -> "StepFunction":
        """Build from (x, y) jump pairs at strictly increasing xs, such as
        the output of ``np.unique``, prepending a 0-knot holding
        ``value_at_zero`` when xs does not start at 0.  Unsorted or repeated
        xs fail the constructor's "strictly increasing" check."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0 or xs[0] != 0.0:
            xs = np.r_[0.0, xs]
            ys = np.r_[float(value_at_zero), ys]
        return cls(xs, ys)

    def __call__(self, t):
        return self._eval("right", t)

    def left(self, t):
        """Left limit at ``t``; at 0 this is the value at 0."""
        return self._eval("left", t)

    @_elementwise
    def _eval(self, side, t):
        if not np.all((t >= 0.0) & (t <= 1.0)):   # False for NaN too
            raise ValueError("evaluation points must lie in [0, 1]")
        # the value's index counts the knots past the first below t ("left") or up to t ("right")
        return self.values[np.searchsorted(self.knots[1:], t, side=side)]

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.knots, other.knots) and np.array_equal(
            self.values, other.values, equal_nan=True
        )

    def __hash__(self):
        return hash((self.knots.tobytes(), self.values.tobytes()))

    def __repr__(self):
        return f"StepFunction(knots={self.knots!r}, values={self.values!r})"


class PiecewiseLinear:
    """Continuous piecewise-linear function through ``(x[i], y[i])`` on [0, 1]."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("need matching 1-D arrays with at least two nodes")
        if not np.all(x[1:] > x[:-1]):
            raise ValueError("nodes must be strictly increasing")
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ValueError("nodes must lie in [0, 1]")
        self.x = x
        self.y = y

    @_elementwise
    def __call__(self, t):
        if not np.all((t >= self.x[0]) & (t <= self.x[-1])):
            raise ValueError("evaluation points outside the node range")
        out = np.asarray(np.interp(t, self.x, self.y))
        bad = ~np.isfinite(out)
        if bad.any():
            # np.interp's slope overflows across a subnormal gap in x; the
            # fraction of the gap does not
            tb = t[bad]
            i = np.clip(np.searchsorted(self.x, tb, side="right") - 1, 0, self.x.size - 2)
            x0, y0, y1 = self.x[i], self.y[i], self.y[i + 1]
            out[bad] = y0 + (y1 - y0) * ((tb - x0) / (self.x[i + 1] - x0))
        return out

    def __eq__(self, other):
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def __hash__(self):
        return hash((self.x.tobytes(), self.y.tobytes()))

    def __repr__(self):
        return f"PiecewiseLinear(x={self.x!r}, y={self.y!r})"
