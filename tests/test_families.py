import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from fdpkit import families
from fdpkit.families import (
    BetaPower,
    OneSidedNormal,
    TwoSidedNormal,
    UserCdf,
    _largest_true,
    _quantile,
    make_family,
)
from fdpkit.rng import stream, uniform_open


# --- independent density formulas (alternate algebraic routes) --------------

def two_sided_pdf_by_sum(mu, p):
    # exp(-mu^2/2) * cosh(mu c) written as the half-sum of two exponentials;
    # c = -ndtri(p / 2), since ndtri(1 - p / 2) cancels for small p
    c = -ndtri(p / 2.0)
    return 0.5 * np.exp(-0.5 * mu**2) * (np.exp(-mu * c) + np.exp(mu * c))


def one_sided_cdf_by_tail(mu, t):
    # P(Z + mu exceeds the upper-t null quantile), straight from the test statistic
    z_crit = -ndtri(t)  # upper-tail cutoff: P(Z > z_crit) = t
    return 1.0 - ndtr(z_crit - mu)


# 50-digit references for the two-sided family at mu = 3, each a bracketed
# root on the log scale: the critical value c solves erfc(c / sqrt 2) = t,
# and the quantile solves Phi(mu - c) + Phi(-c - mu) = u, t = erfc(c / sqrt 2)

def _mp_root(fn):
    with mpmath.workdps(50):
        return mpmath.findroot(fn, (mpmath.mpf(0), mpmath.mpf(45)), solver="anderson")


def _mp_two_sided(t, mu=3):
    with mpmath.workdps(50):
        lt = mpmath.log(mpmath.mpf(t))
        c = _mp_root(lambda c: mpmath.log(mpmath.erfc(c / mpmath.sqrt(2))) - lt)
        cdf = mpmath.ncdf(mu - c) + mpmath.ncdf(-c - mu)
        pdf = mpmath.exp(-mpmath.mpf(mu) ** 2 / 2) * mpmath.cosh(mu * c)
        return cdf, pdf


def _mp_two_sided_ppf(u, mu=3):
    with mpmath.workdps(50):
        lu = mpmath.log(mpmath.mpf(u))
        c = _mp_root(lambda c: mpmath.log(mpmath.ncdf(mu - c) + mpmath.ncdf(-c - mu)) - lu)
        return mpmath.erfc(c / mpmath.sqrt(2))


GRID = np.linspace(1e-6, 1 - 1e-6, 401)


class TestOneSidedNormal:
    def test_validation(self):
        with pytest.raises(ValueError):
            OneSidedNormal(-1.0)
        with pytest.raises(ValueError):
            OneSidedNormal(2.0, n=0)

    def test_cdf_matches_tail_construction(self):
        fam = OneSidedNormal(3.0)
        assert np.allclose(fam.cdf(GRID), one_sided_cdf_by_tail(3.0, GRID), atol=1e-12)
        fam2 = OneSidedNormal(1.5, n=4)  # mu = 3 again
        assert np.allclose(fam2.cdf(GRID), fam.cdf(GRID), atol=0)

    def test_endpoints_and_dominance(self):
        fam = OneSidedNormal(2.0)
        assert fam.cdf(0.0) == 0.0
        assert fam.cdf(1.0) == 1.0
        assert np.all(np.asarray(fam.cdf(GRID)) >= GRID)

    def test_zero_shift_is_uniform(self):
        fam = OneSidedNormal(0.0)
        assert np.allclose(fam.cdf(GRID), GRID, atol=1e-12)
        assert np.allclose(fam.pdf(GRID), 1.0, atol=1e-12)
        # the density formula meets 0 * inf at the endpoints
        assert np.array_equal(fam.pdf([0.0, 1.0]), [1.0, 1.0])

    def test_pdf_integrates_to_one(self):
        fam = OneSidedNormal(3.0)
        total, err = quad(fam.pdf, 0.0, 1.0, limit=200)
        assert abs(total - 1.0) < 1e-6

    def test_pdf_matches_numeric_derivative(self):
        fam = OneSidedNormal(2.5)
        for t in (0.01, 0.1, 0.5, 0.9):
            h = 1e-7
            numeric = (fam.cdf(t + h) - fam.cdf(t - h)) / (2 * h)
            assert abs(fam.pdf(t) - numeric) < 1e-4 * max(1.0, numeric)

    def test_pdf_decreasing_and_pure(self):
        fam = OneSidedNormal(3.0)
        d = np.asarray(fam.pdf(GRID))
        assert np.all(np.diff(d) <= 1e-12)
        assert fam.pdf(1.0 - 1e-12) < 1e-6

    def test_ppf_round_trip(self):
        fam = OneSidedNormal(3.0)
        us = np.array([0.01, 0.2, 0.5, 0.95])
        assert np.allclose(fam.cdf(fam.ppf(us)), us, atol=1e-12)


class TestTwoSidedNormal:
    def test_cdf_matches_direct_probability(self):
        # |Z + mu| > z_{t/2} probability computed from the two tails separately
        fam = TwoSidedNormal(3.0)
        for t in (0.001, 0.05, 0.3, 0.9):
            c = ndtri(1.0 - t / 2.0)
            direct = (1.0 - ndtr(c - 3.0)) + ndtr(-c - 3.0)
            assert abs(fam.cdf(t) - direct) < 1e-13

    def test_pdf_matches_half_sum_route(self):
        fam = TwoSidedNormal(3.0)
        assert np.allclose(fam.pdf(GRID), two_sided_pdf_by_sum(3.0, GRID), rtol=1e-12)

    def test_pdf_floor_at_one(self):
        # impure family: density at t=1 equals exp(-mu^2/2) > 0
        fam = TwoSidedNormal(3.0)
        assert abs(fam.pdf(1.0) - np.exp(-4.5)) < 1e-15
        assert np.all(np.asarray(fam.pdf(GRID)) >= np.exp(-4.5) - 1e-15)

    def test_pdf_integrates_to_one(self):
        fam = TwoSidedNormal(2.0)
        total, err = quad(fam.pdf, 0.0, 1.0, limit=200)
        assert abs(total - 1.0) < 1e-6

    def test_zero_shift_is_uniform(self):
        fam = TwoSidedNormal(0.0)
        assert np.allclose(fam.cdf(GRID), GRID, atol=1e-12)
        assert np.array_equal(fam.pdf(np.r_[0.0, GRID, 1.0]), np.ones(GRID.size + 2))
        assert fam.pdf(0.0) == 1.0

    def test_dominance_and_endpoints(self):
        fam = TwoSidedNormal(3.0)
        assert fam.cdf(0.0) == 0.0 and fam.cdf(1.0) == 1.0
        assert np.all(np.asarray(fam.cdf(GRID)) >= GRID - 1e-15)

    def test_ppf_round_trip(self):
        fam = TwoSidedNormal(3.0)
        for u in (0.05, 0.4, 0.99):
            assert abs(fam.cdf(fam.ppf(u)) - u) < 1e-10

    def test_cdf_and_pdf_match_mpmath_down_to_tiny_t(self):
        # c = ndtri(1 - t / 2) cancels: the cdf was 0 and the pdf inf below
        # t = 1e-16; scipy's ndtr/ndtri keep about 3e-13 at t = 1e-300
        fam = TwoSidedNormal(3.0)
        for t in np.r_[np.geomspace(1e-300, 0.5, 60), np.linspace(0.5, 0.999, 20)]:
            cdf, pdf = _mp_two_sided(t)
            assert fam.cdf(t) == pytest.approx(float(cdf), rel=5e-13, abs=0)
            assert fam.pdf(t) == pytest.approx(float(pdf), rel=5e-13, abs=0)

    def test_pdf_finite_and_nonincreasing_at_subnormals(self):
        # t / 2 underflows to 0 at t = 5e-324, where the pdf must stay finite
        fam = TwoSidedNormal(3.0)
        ts = np.r_[5e-324 * np.arange(1, 40), np.geomspace(1e-320, 1.0, 400)]
        d = np.asarray(fam.pdf(ts))
        assert np.all(np.isfinite(d))
        assert np.all(np.diff(d) <= 0.0)
        assert np.isfinite(fam.pdf(5e-324))
        assert fam.pdf(0.0) == np.inf

    def test_ppf_matches_mpmath(self):
        fam = TwoSidedNormal(3.0)
        us = np.geomspace(1e-200, 0.99, 60)
        got = fam.ppf(us)
        for u, t in zip(us, got):
            assert t == pytest.approx(float(_mp_two_sided_ppf(u)), rel=5e-13, abs=0)
        assert fam.ppf(0.0) == 0.0


def _assert_generalized_inverse(fam, u, t):
    """t = inf{s : cdf(s) >= u}: cdf(t) >= u > cdf(prev(t)), and t = 0 at u = 0."""
    assert np.all((0.0 <= t) & (t <= 1.0))
    pos = u > 0.0
    assert np.all(t[~pos] == 0.0)
    assert np.all(fam.cdf(t[pos]) >= u[pos])
    assert np.all(fam.cdf(np.nextafter(t[pos], 0.0)) < u[pos])


_DENSE_U = np.unique(np.r_[
    0.0, 5e-324, 1e-310, 1e-300, np.geomspace(1e-300, 1e-3, 600), np.linspace(0.0, 1.0, 2001),
    1.0 - np.geomspace(1e-16, 1e-3, 400), np.nextafter(1.0, 0.0) - 2.0**-53 * np.arange(5), 1.0,
])


class TestTwoSidedQuantile:
    """ppf bisects within a bracket around a Newton estimate, or over all of
    [0, 1] where the bracket fails its check, in a call of its own; either
    way it returns a generalized inverse of the rounded cdf."""

    @pytest.fixture
    def brackets(self, monkeypatch):
        seen = []

        def spy(cdf, u, *, lo=0.0, hi=1.0):
            seen.append((np.asarray(u), np.asarray(lo), np.asarray(hi)))
            return _quantile(cdf, u, lo=lo, hi=hi)

        monkeypatch.setattr(families, "_quantile", spy)
        return seen

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 3.0, 8.0])
    def test_generalized_inverse_on_a_dense_set(self, theta):
        fam = TwoSidedNormal(theta)
        _assert_generalized_inverse(fam, _DENSE_U, fam.ppf(_DENSE_U))
        assert fam.ppf(0.0) == 0.0 and fam.ppf(1.0) <= 1.0

    def test_rows_that_fail_the_bracket_take_the_full_range(self, brackets):
        # near u = 1 at mu = 8 the rounded cdf is flat over more ulps of t
        # than the bracket spans, and u = 0 leaves Newton with NaN
        fam = TwoSidedNormal(8.0)
        u = np.r_[0.0, 1.0 - np.geomspace(1e-6, 1e-2, 4000)]
        t = fam.ppf(u)
        _assert_generalized_inverse(fam, u, t)
        (u_in, lo, hi), (u_out, lo_out, hi_out) = brackets
        full = np.isin(u, u_out)
        assert lo_out == 0.0 and hi_out == 1.0 and u_in.size + u_out.size == u.size
        assert full[0] and 1000 < np.count_nonzero(full) < 3000
        np.testing.assert_array_equal(t[full], _quantile(fam.cdf, u[full]))
        assert np.all(hi - lo > 0.0)

    def test_failed_brackets_leave_the_other_rows_at_their_steps(self, brackets):
        # rows near u = 1 at mu = 8 fail their bracket; the ordinary rows
        # must still be evaluated only at the bracket check and at most 14
        # bisection steps (2^13 patterns), not at the 62 of the full range
        fam = TwoSidedNormal(8.0)
        ordinary = uniform_open(stream(0, 1), 500) * 0.9
        failing = 1.0 - np.linspace(1e-5, 1e-4, 40)
        u = np.r_[ordinary[:250], failing, ordinary[250:]]
        sizes, cdf = [], fam.cdf
        fam.cdf = lambda t: sizes.append(np.size(t)) or cdf(t)
        t = fam.ppf(u)
        (u_in, lo, hi), (u_out, _, _) = brackets
        assert np.isin(ordinary, u_in).all() and 30 <= u_out.size <= 40
        assert sum(sizes) <= 2 * u.size + 14 * u_in.size + 62 * u_out.size
        # each row's bisection is its own, so the doubles are those of one
        # call over all rows with the failed rows' brackets set to [0, 1]
        ok = np.isin(u, u_in)
        LO, HI = np.zeros(u.size), np.ones(u.size)
        LO[ok], HI[ok] = lo, hi
        np.testing.assert_array_equal(t, _quantile(cdf, u, lo=LO, hi=HI))

    def test_draws_of_the_achievable_oracle_target(self, brackets):
        # 500 alternative draws like the target's: every row is bracketed
        rng = stream(0, 0)
        fam = TwoSidedNormal(3.0)
        u = uniform_open(rng, 500)
        t = fam.ppf(u)
        _assert_generalized_inverse(fam, u, t)
        (_, lo, hi), (u_out, _, _) = brackets
        assert np.all(lo > 0.0) and np.all(hi < 1.0) and u_out.size == 0


class TestBetaPower:
    def test_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                BetaPower(bad)

    def test_square_root_algebra(self):
        fam = BetaPower(0.5)
        assert fam.cdf(0.25) == 0.5
        assert fam.ppf(0.5) == 0.25
        assert abs(fam.pdf(0.25) - 1.0) < 1e-15  # 0.5 * 0.25**-0.5

    def test_pdf_integrates_to_one(self):
        total, err = quad(BetaPower(0.4).pdf, 0.0, 1.0, limit=200, points=[0.0])
        assert abs(total - 1.0) < 1e-6

    def test_beta_one_is_uniform(self):
        fam = BetaPower(1.0)
        assert np.allclose(fam.cdf(GRID), GRID, atol=0)


class TestSupport:
    """Every built-in family is a law on [0, 1]: its CDF is 0 below 0 and 1
    above 1, and its density is 0 outside [0, 1]."""

    @pytest.mark.parametrize("fam", [OneSidedNormal(2.0), TwoSidedNormal(2.0),
                                     BetaPower(0.5), BetaPower(1.0)], ids=repr)
    def test_outside_unit_interval(self, fam):
        out = np.array([-1.0, -0.1, -1e-300, 1.0 + 1e-15, 1.5, 7.0])
        assert np.array_equal(fam.cdf(out), (out > 1.0).astype(float))
        assert np.array_equal(fam.pdf(out), np.zeros(out.size))
        assert fam.cdf(-0.1) == 0.0 and fam.cdf(1.5) == 1.0
        assert fam.pdf(-0.1) == 0.0 and fam.pdf(1.5) == 0.0
        assert fam.cdf(0.0) == 0.0 and fam.cdf(1.0) == 1.0


class TestUserCdf:
    def test_wraps_callables(self):
        fam = UserCdf(lambda t: t**2)
        assert fam.cdf(0.5) == 0.25
        assert fam.pdf is None

    def test_ppf_fallback_bisects(self):
        fam = UserCdf(lambda t: np.minimum(2.0 * np.asarray(t, float), 1.0))
        assert abs(fam.ppf(0.5) - 0.25) < 1e-12

    def test_explicit_ppf_wins(self):
        fam = UserCdf(lambda t: t, ppf=lambda u: u)
        assert fam.ppf(0.3) == 0.3


_unit = st.floats(0.0, 1.0)
_EDGES = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310, float(np.nextafter(1.0, 0.0))]


def _check_largest_true(pred, shape):
    """The result satisfies pred and the next double above it does not,
    unless it is 1."""
    t = _largest_true(pred, shape)
    assert t.shape == shape
    assert np.all((0.0 <= t) & (t <= 1.0))
    assert np.all(pred(t))
    assert np.all(~pred(np.nextafter(t, 2.0)) | (t == 1.0))


class TestLargestTrue:
    @given(xs=st.lists(_unit, min_size=1, max_size=6), strict=st.booleans())
    @example(xs=_EDGES, strict=False)
    @example(xs=_EDGES, strict=True)
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_threshold_predicates(self, xs, strict):
        # t <= x crosses at x itself, t < x one double below it; x = 0 is
        # left out of the strict form, which would fail at 0
        x = np.array(xs)
        if strict:
            x = np.maximum(x, 5e-324)
            _check_largest_true(lambda t: t < x, x.shape)
            assert np.array_equal(_largest_true(lambda t: t < x, x.shape), np.nextafter(x, 0.0))
        else:
            _check_largest_true(lambda t: t <= x, x.shape)
            assert np.array_equal(_largest_true(lambda t: t <= x, x.shape), x)

    @given(
        knots=st.lists(_unit, min_size=1, max_size=8),
        levels=st.lists(st.integers(0, 8), min_size=1, max_size=5),
    )
    @example(knots=[0.0, 0.0, 1e-310, 0.5, 0.5, 1.0], levels=[2, 3, 4, 5, 6])
    @example(knots=[1.0], levels=[0, 1])
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_step_predicates_with_flat_stretches(self, knots, levels):
        # f(t) = number of knots at or below t: flat between knots, ties make
        # jumps of several units; pred(t) = f(t) <= k, which holds at 0
        ks = np.sort(knots)
        k = np.maximum(np.array(levels), np.count_nonzero(ks == 0.0))
        _check_largest_true(lambda t: np.searchsorted(ks, t, side="right") <= k, k.shape)

    @given(
        slopes=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
        u=st.floats(0.0, 2.0),
    )
    @example(slopes=[1.0, 3.0, 1e3], u=0.0)
    @example(slopes=[1.0, 0.5], u=1e-320)
    @example(slopes=[1.0, 0.5, 1e-3], u=1.0)
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_linear_predicates(self, slopes, u):
        s = np.array(slopes)
        _check_largest_true(lambda t: s * t <= u, s.shape)

    def test_scalar_shape(self):
        t = _largest_true(lambda t: t <= 0.3)
        assert t.shape == () and float(t) == 0.3

    @given(xs=st.lists(_unit, min_size=1, max_size=6), w=st.integers(0, 1 << 20))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_bracket_holding_the_crossing(self, xs, w):
        # a bracket of w bit patterns on each side of x, clipped to [0, 1]
        x = np.array(xs)
        bits = x.view(np.int64)
        one = np.float64(1.0).view(np.int64)
        lo = np.clip(bits - w, 0, one).view(np.float64)
        hi = np.clip(bits + w, 0, one).view(np.float64)
        assert np.array_equal(_largest_true(lambda t: t <= x, x.shape, lo, hi), x)

    def test_several_crossings_answer_by_bracket(self):
        # a predicate that switches off twice: each bracket ends on a
        # crossing, and which one depends on the bracket
        def pred(t):
            return (t <= 0.25) | ((t >= 0.5) & (t <= 0.75))

        whole = _largest_true(pred)
        first = _largest_true(pred, (), 0.0, 0.4)
        assert float(first) == 0.25 and float(whole) in (0.25, 0.75)
        assert float(_largest_true(pred, (), 0.6, 1.0)) == 0.75


class TestMakeFamily:
    def test_tags(self):
        assert isinstance(make_family("one-sided-normal", {"theta": 3.0}), OneSidedNormal)
        assert isinstance(make_family("two-sided-normal", {"theta": 2.0, "n": 4}), TwoSidedNormal)
        assert isinstance(make_family("beta", {"beta": 0.3}), BetaPower)
        sq = make_family("square-root")
        assert isinstance(sq, BetaPower) and sq.beta == 0.5

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown"):
            make_family("cauchy")
        # a parameter the family does not read is refused, not dropped
        with pytest.raises(ValueError, match=r"^alternative family 'one-sided-normal': .*unexpected keyword argument 'N'$"):
            make_family("one-sided-normal", {"theta": 3.0, "N": 50})
        with pytest.raises(ValueError, match=r"^alternative family 'square-root': .*unexpected keyword argument 'beta'$"):
            make_family("square-root", {"beta": 0.9})
        # and a missing one is named with its family, not a bare KeyError
        for tag, missing in [("one-sided-normal", "theta"), ("two-sided-normal", "theta"), ("beta", "beta"),
                             ("user-cdf", "cdf")]:
            with pytest.raises(ValueError, match=rf"^alternative family '{tag}': missing .*'{missing}'$"):
                make_family(tag, {})

    def test_params_forwarded(self):
        fam = make_family("one-sided-normal", {"theta": 1.5, "n": 4})
        assert fam.mu == 3.0
