import numpy as np
import pytest

from fdpkit import LabeledSample, PiecewiseLinear, StepFunction, ecdf, fdp_process
from fdpkit.envelopes import exact_confidence_set, exact_envelope


def naive_step_eval(knots, values, t):
    """Reference evaluation: right-continuous lookup by linear scan."""
    out = values[0]
    for k, v in zip(knots, values):
        if t >= k:
            out = v
    return out


def naive_left_eval(knots, values, t):
    out = values[0]
    for k, v in zip(knots, values):
        if t > k:
            out = v
    return out


class TestStepFunction:
    def test_first_knot_must_be_zero(self):
        with pytest.raises(ValueError):
            StepFunction([0.2, 0.5], [1.0, 2.0])

    def test_requires_increasing_knots(self):
        with pytest.raises(ValueError):
            StepFunction([0.0, 0.2, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            StepFunction([0.0, 0.3, 0.1], [1.0, 2.0, 3.0])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            StepFunction([0.0, 0.2], [1.0])

    # each row: knots, StepFunction's fault, PiecewiseLinear's fault (which
    # takes any first node in [0, 1])
    @pytest.mark.parametrize("knots, message, linear_message", [
        ([0.0, 0.2, 0.2], "strictly increasing", "strictly increasing"),
        ([0.0, 0.5, 0.3, 2.0], "strictly increasing", "strictly increasing"),
        ([0.0, -np.inf], "strictly increasing", "strictly increasing"),
        ([0.0, 0.5, np.nan, 0.3, 0.2], "strictly increasing", "strictly increasing"),
        ([0.0, np.inf, np.inf], "strictly increasing", "strictly increasing"),
        ([0.0, np.nan], "strictly increasing", "strictly increasing"),
        ([0.0, np.nan, 0.5], "strictly increasing", "strictly increasing"),
        ([0.0, np.inf], r"lie in \[0, 1\]", r"lie in \[0, 1\]"),
        ([0.0, 0.5, np.inf], r"lie in \[0, 1\]", r"lie in \[0, 1\]"),
        ([0.0, 0.5, 1.5], r"lie in \[0, 1\]", r"lie in \[0, 1\]"),
        ([np.nan, 0.5], "first knot must be 0.0", "strictly increasing"),
        ([-np.inf, 0.5], "first knot must be 0.0", r"lie in \[0, 1\]"),
        ([np.inf], "first knot must be 0.0", "at least two nodes"),
    ])
    def test_invalid_knots_name_their_fault(self, knots, message, linear_message):
        with pytest.raises(ValueError, match=message):
            StepFunction(knots, np.zeros(len(knots)))
        with pytest.raises(ValueError, match=linear_message):
            PiecewiseLinear(knots, np.zeros(len(knots)))

    def test_right_continuity_and_left_limits(self):
        f = StepFunction([0.0, 0.2, 0.5, 0.9], [0.0, 1.0, 2.0, 3.0])
        assert f(0.2) == 1.0
        assert f.left(0.2) == 0.0
        assert f(0.5) == 2.0
        assert f.left(0.5) == 1.0
        assert f(0.1) == 0.0
        assert f(1.0) == 3.0
        assert f.left(1.0) == 3.0
        assert f(0.0) == 0.0
        assert f.left(0.0) == 0.0

    def test_rejects_evaluation_outside_unit_interval(self):
        f = StepFunction([0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            f(1.5)
        with pytest.raises(ValueError):
            f.left(-0.1)
        # searchsorted would put a NaN past the last knot
        for t in (np.nan, [0.2, np.nan], [np.nan, np.nan]):
            for evaluate in (f, f.left):
                with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                    evaluate(t)

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(5)
        knots = np.r_[0.0, np.sort(rng.uniform(0, 1, 7))]
        vals = rng.normal(size=8)
        f = StepFunction(knots, vals)
        ts = np.r_[rng.uniform(0, 1, 50), knots, 1.0]
        got = np.asarray(f(ts))
        got_left = np.asarray(f.left(ts))
        for t, g, gl in zip(ts, got, got_left):
            assert g == naive_step_eval(knots, vals, t)
            assert gl == naive_left_eval(knots, vals, t)

    def test_scalar_matches_vector(self):
        f = StepFunction([0.0, 0.25, 0.75], [0.0, 1.0, 0.5])
        assert f(0.3) == float(np.asarray(f([0.3]))[0])
        assert isinstance(f(0.3), float)

    def test_from_pairs_needs_strictly_increasing_xs(self):
        # unsorted or repeated breakpoints are the constructor's order error;
        # an x of exactly 0 fills the value-at-zero slot rather than
        # duplicating a knot
        for xs in ([0.2, 0.2, 0.7], [0.7, 0.2], [0.0, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                StepFunction.from_pairs(xs, np.ones(len(xs)), value_at_zero=0.1)
        f = StepFunction.from_pairs([0.2, 0.7], [0.4, 1.0], value_at_zero=0.1)
        assert f(0.0) == 0.1
        assert f(0.2) == 0.4
        assert f.left(0.2) == 0.1
        assert f(0.7) == 1.0
        g = StepFunction.from_pairs([0.0, 0.5], [0.2, 1.0])
        assert g(0.0) == 0.2
        assert g.knots[0] == 0.0 and g.knots.size == 2

    def test_equality_and_hash(self):
        f = StepFunction([0.0, 0.2], [0.0, 1.0])
        g = StepFunction([0.0, 0.2], [0.0, 1.0])
        h = StepFunction([0.0, 0.3], [0.0, 1.0])
        assert f == g
        assert hash(f) == hash(g)
        assert f != h

    def test_equality_with_nan_values(self):
        f = StepFunction([0.0, 0.5], [np.nan, 1.0])
        g = StepFunction([0.0, 0.5], [np.nan, 1.0])
        assert f == g


class TestPiecewiseLinear:
    def test_matches_interp(self):
        x = np.array([0.0, 0.4, 1.0])
        y = np.array([0.0, 0.7, 1.0])
        f = PiecewiseLinear(x, y)
        ts = np.linspace(0, 1, 101)
        assert np.allclose(np.asarray(f(ts)), np.interp(ts, x, y), atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.5, 0.2], [0.0, 1.0])
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0, 1.0], [0.0])

    @pytest.mark.parametrize("t", [0.1, 0.9, np.nan, [0.5, np.nan]])
    def test_rejects_points_off_the_nodes_and_nan(self, t):
        f = PiecewiseLinear([0.2, 0.8], [0.0, 1.0])
        with pytest.raises(ValueError, match="outside the node range"):
            f(t)

    def test_equality(self):
        f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        g = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
        assert f == g
        assert hash(f) == hash(g)
        assert f != PiecewiseLinear([0.0, 1.0], [0.0, 0.9])


P = [0.1, 0.3, 0.5]


@pytest.mark.parametrize("evaluate", [
    ecdf(P),
    ecdf(P).left,
    ecdf(P, "floor"),
    ecdf(P, "lcm"),
    exact_envelope(exact_confidence_set(P, 0.05), P).gamma_bar,
    exact_envelope(exact_confidence_set(P, 0.05), P).count_bound_at,
    fdp_process(LabeledSample(P, [0, 1, 0])),
], ids=["ecdf", "ecdf-left", "ecdf-floor", "ecdf-lcm", "exact-gamma-bar", "exact-count-bound", "fdp-path"])
def test_paths_refuse_nan(evaluate):
    # searchsorted places NaN past the last knot, so an unchecked NaN reads the last value
    with pytest.raises(ValueError):
        evaluate(np.nan)
