import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdpkit import (
    MixtureModel,
    astar_lower,
    bh_threshold,
    dkw_epsilon,
    ecdf,
    kernel_a_consistent,
    kernel_density,
    plugin_threshold,
    project_f,
    projection_objective,
    q_hat,
    storey_a0,
)
from fdpkit.estimation import (_KERNEL_GRID, _SPAN, EcdfEstimate, _astar, _astar_rows, _concave_majorant, _excess,
                               _qhat, _storey)
from fdpkit.families import BetaPower
from fdpkit.rng import stream, uniform_open
from fdpkit.stepfun import PiecewiseLinear, StepFunction


# --- oracles ---------------------------------------------------------------

def naive_ecdf(p, t):
    return sum(1 for x in p if x <= t) / len(p)


def hull_by_gift_wrapping(xs, ys):
    """Upper concave hull found by repeatedly taking the max-slope segment."""
    pts = sorted(zip(xs, ys))
    hx, hy = [pts[0][0]], [pts[0][1]]
    i = 0
    while i < len(pts) - 1:
        slopes = [
            ((y - hy[-1]) / (x - hx[-1]), j)
            for j, (x, y) in enumerate(pts[i + 1 :], start=i + 1)
            if x > hx[-1]
        ]
        s, j = max(slopes)
        hx.append(pts[j][0])
        hy.append(pts[j][1])
        i = j
    return np.array(hx), np.array(hy)


def hull_by_monotone_chain(xs, ys):
    """Upper concave hull by one left-to-right scan that pops every point on
    or below the chord to the next: the scan ``ecdf`` used before its array
    passes.  Exact when given Fractions."""
    hx, hy = [], []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross >= 0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return hx, hy


def lcm_points(p):
    """The graph points ``ecdf(p, "lcm")`` takes the majorant of."""
    distinct, counts = np.unique(p, return_counts=True)
    xs, ys = distinct, counts.cumsum() / len(p)
    if xs[0] != 0.0:
        xs, ys = np.r_[0.0, xs], np.r_[0.0, ys]
    if xs[-1] != 1.0:
        xs, ys = np.r_[xs, 1.0], np.r_[ys, 1.0]
    ys[-1] = 1.0
    return xs, ys


def ecdf_by_unique(p, variant):
    """``ecdf`` as built from ``np.unique`` counts, ``from_pairs`` and the
    majorant of ``lcm_points``, before it took one sort and two buffers."""
    distinct, counts = np.unique(p, return_counts=True)
    base = StepFunction.from_pairs(distinct, counts.cumsum() / len(p), value_at_zero=0.0)
    hull = _concave_majorant(*lcm_points(p)) if variant == "lcm" else None
    return EcdfEstimate(base=base, variant=variant, m=len(p), hull=hull)


def astar_two_sided(ghat, alpha):
    """``astar_lower``'s (value, argmax_t, unclamped) over the candidates it
    took before it read right-hand values only: both one-sided values of
    Ghat at every knot, and for lcm at the knots and the hull's vertices."""
    ts = ghat.base.knots
    if ghat.variant == "lcm":
        ts = np.union1d(ts, ghat.hull.x)
    value, top, argmax_t = _astar(np.r_[ts, ts], np.r_[ghat(ts), ghat.left(ts)],
                                  dkw_epsilon(ghat.m, alpha))
    return float(value), float(argmax_t), float(top)


def rounded_screen(m, seed=7):
    """The CLI benchmark's kind of input: a normal-mean mixture written with
    six significant digits, so heavily tied."""
    from scipy.special import ndtr, ndtri

    rng = np.random.default_rng(seed)
    u = rng.random(m)
    p = np.where(rng.random(m) < 0.1, ndtr(ndtri(u) - 3.0), u)
    return np.array(["%.6g" % v for v in p], dtype=float)


def astar_dense_grid(p, alpha, n=100_001):
    eps = dkw_epsilon(len(p), alpha)
    g = ecdf(p, "plain")
    ts = np.linspace(0.0, 1.0, n)[:-1]
    vals = (np.asarray(g(ts)) - ts - eps) / (1.0 - ts)
    # the sup can also sit just below a jump; fold in left limits at knots
    kn = g.base.knots[g.base.knots < 1.0]
    lv = (np.asarray(g.left(kn)) - kn - eps) / (1.0 - kn)
    return max(0.0, float(vals.max()), float(lv.max()))


def kernel_density_fsum(p, h, grid):
    """Per-grid-point ``math.fsum`` of the dense reflected triangular kernel."""
    ext = np.concatenate([p, -p, 2.0 - p])
    sums = [math.fsum(np.clip(1.0 - np.abs(g - ext) / h, 0.0, None).tolist()) for g in grid]
    return np.array(sums) / (p.size * h)


def core_block(g, m):
    """A block of 60 rows of m p-values mixing uniforms with ties at 0.5
    and with 0, 5e-324 and 1."""
    p = g.random((60, m))
    atoms = np.array([0.0, 5e-324, 0.25, 0.5, 1.0])
    pick = g.random((60, m)) < 0.4
    p[pick] = atoms[g.integers(0, atoms.size, pick.sum())]
    p[0] = 0.5                                 # every p-value tied at t0
    p[1] = 1.0
    return p


def core_rows():
    """Rows of core blocks at m = 2, 9 and 200, some rounded to two digits."""
    rows = []
    for m in (2, 9, 200):
        p = core_block(stream(924, m), m)
        p[30:] = np.round(p[30:], 2)
        rows.extend(p[2::6])
    return rows


# --- ecdf ------------------------------------------------------------------

class TestEcdf:
    def test_single_point_plain(self):
        g = ecdf([0.5], "plain")
        assert g(0.4) == 0.0 and g(0.5) == 1.0 and g(1.0) == 1.0
        assert g.left(0.5) == 0.0

    def test_single_point_lcm(self):
        g = ecdf([0.5], "lcm")
        ts = np.linspace(0, 1, 41)
        assert np.allclose(g(ts), np.minimum(2 * ts, 1.0), atol=1e-15)

    def test_plain_matches_naive(self):
        rng = np.random.default_rng(3)
        p = rng.choice(np.linspace(0.05, 0.95, 10), size=12)  # with ties
        g = ecdf(p, "plain")
        for t in np.r_[0.0, p, 0.5, 1.0, p - 1e-9]:
            assert abs(g(float(t)) - naive_ecdf(p, t)) < 1e-15
        assert g(1.0) == 1.0

    def test_floor_variant(self):
        p = [0.9, 0.95]
        g = ecdf(p, "floor")
        assert g(0.5) == 0.5  # identity dominates the raw 0
        assert g(0.95) == 1.0

    def test_lcm_matches_gift_wrapping_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            p = np.sort(rng.uniform(0.01, 0.99, 8))
            g = ecdf(p, "lcm")
            xs = np.r_[0.0, np.unique(p), 1.0]
            ys = np.r_[0.0, [naive_ecdf(p, x) for x in np.unique(p)], 1.0]
            hx, hy = hull_by_gift_wrapping(xs, ys)
            probe = np.linspace(0, 1, 257)
            assert np.allclose(g(probe), np.interp(probe, hx, hy), atol=1e-12)

    @given(
        p=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=60),
        decimals=st.sampled_from([1, 2, 3, None]),
        ones=st.integers(0, 20),
    )
    @example(p=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.0, 0.0], decimals=None, ones=0)
    @example(p=[0.5], decimals=None, ones=0)
    @example(p=[0.0], decimals=None, ones=3)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_lcm_against_exact_hull(self, p, decimals, ones):
        # Rounding makes ties and near-collinear points; ``ones`` puts an
        # atom at 1.  Floating-point hulls may differ from the exact one in
        # which near-collinear points they keep, so compare values.
        p = np.r_[p if decimals is None else np.round(p, decimals), np.ones(ones)]
        hull = ecdf(p, "lcm").hull
        xs, ys = lcm_points(p)
        fx, fy = hull_by_monotone_chain([Fraction(v) for v in xs], [Fraction(v) for v in ys])
        seg = np.searchsorted(np.array([float(v) for v in fx]), xs, side="right").clip(1, len(fx) - 1)
        for x, y, got, k in zip(xs, ys, hull(xs), seg):
            x0, x1, y0, y1 = fx[k - 1], fx[k], fy[k - 1], fy[k]
            exact = y0 + (y1 - y0) * (Fraction(x) - x0) / (x1 - x0)
            assert abs(Fraction(got) - exact) <= 4.5e-16
            assert got >= y - 4.5e-16

    @pytest.mark.parametrize("p, vertices", [
        (np.r_[np.arange(1, 769) / 1024, np.ones(256)], [0.0, 1.0]),
        (np.r_[np.arange(1, 513) / 2048, np.ones(512)], [0.0, 0.25, 1.0]),
        ([0.125] * 4 + [0.25, 0.375, 0.5, 1.0], [0.0, 0.125, 0.5, 1.0]),
    ])
    def test_lcm_drops_collinear_points(self, p, vertices):
        # dyadic inputs, so every cross product is exact and the collinear
        # points are exactly on the hull's edges
        assert ecdf(p, "lcm").hull.x.tolist() == vertices

    @pytest.mark.parametrize("curve", ["log-spaced", "squares"])
    def test_lcm_when_every_point_is_a_vertex(self, curve):
        m = 20_000
        u = (np.arange(m) + 0.5) / m
        p = 10.0 ** (-300.0 * u) if curve == "log-spaced" else u**2
        hull = ecdf(p, "lcm").hull
        hx, hy = hull_by_monotone_chain(*lcm_points(p))
        np.testing.assert_array_equal(hull.x, hx)
        np.testing.assert_array_equal(hull.y, hy)
        assert hull.x.size > 0.99 * m

    def test_lcm_on_a_rounded_screen_matches_the_scan(self):
        p = rounded_screen(100_000)
        hull = ecdf(p, "lcm").hull
        hx, hy = hull_by_monotone_chain(*lcm_points(p))
        np.testing.assert_array_equal(hull.x, hx)
        np.testing.assert_array_equal(hull.y, hy)

    @pytest.mark.parametrize("curve", ["squares", "rounded-screen"])
    def test_lcm_across_spans_matches_the_scan(self, curve):
        # past two span boundaries and into a partial span, where the levels
        # below the span run apart and the rest over the spans' survivors;
        # on the squares every point is a vertex, so all of them get there
        n = 2 * _SPAN + _SPAN // 3
        p = ((np.arange(n) + 0.5) / n) ** 2 if curve == "squares" else rounded_screen(3 * _SPAN, seed=5)
        xs, ys = (a[:n] for a in lcm_points(p))
        hull = _concave_majorant(xs, ys)
        hx, hy = hull_by_monotone_chain(xs, ys)
        np.testing.assert_array_equal(hull.x, hx)
        np.testing.assert_array_equal(hull.y, hy)

    def test_lcm_is_concave_majorant(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0, 1, 40)
        g = ecdf(p, "lcm")
        probe = np.linspace(0, 1, 101)
        assert np.all(np.asarray(g(probe)) >= np.asarray(ecdf(p, "plain")(probe)) - 1e-12)
        slopes = np.diff(g.hull.y) / np.diff(g.hull.x)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])
        with pytest.raises(ValueError):
            ecdf([0.5, 1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, -0.5, 1.0 + 2**-52, 1.5])
    def test_values_off_the_unit_interval_rejected(self, bad):
        for p in ([bad], [0.2, bad, 0.7], [bad, 0.0, 1.0]):
            for fn in (ecdf, storey_a0, kernel_density):
                with pytest.raises(ValueError, match=r"^p-values must lie in \[0, 1\]$"):
                    fn(p)

    @pytest.mark.parametrize("p", [
        [0.5], [0.0], [1.0], [5e-324],
        [0.3] * 50, [0.0] * 7, [1.0] * 7, [5e-324] * 3,
        [0.0, 5e-324, 1.0], [1.0, 5e-324, 0.0, 0.0, 1.0, 0.5],
        *core_rows(),
        rounded_screen(20_000, seed=3),
    ], ids=lambda p: f"m{len(p)}")
    def test_matches_the_unique_ecdf_and_the_two_sided_bound(self, p):
        # the one-sort buffers and the right-hand candidates give every bit
        # the np.unique ECDF and the two-sided candidate set gave
        p = np.asarray(p, dtype=float)
        for variant in ("plain", "floor", "lcm"):
            got, want = ecdf(p, variant), ecdf_by_unique(p, variant)
            assert got.base.knots.tobytes() == want.base.knots.tobytes()
            assert got.base.values.tobytes() == want.base.values.tobytes()
            if variant == "lcm":
                assert got.hull.x.tobytes() == want.hull.x.tobytes()
                assert got.hull.y.tobytes() == want.hull.y.tobytes()
            for alpha in (0.05, 0.5, 0.99):
                est = astar_lower(got, alpha)
                d = est.diagnostics
                assert repr((est.value, d["argmax_t"], d["unclamped"])) == repr(astar_two_sided(want, alpha))

    def test_lcm_bound_is_finite_across_a_subnormal_gap(self):
        # the hull's segment from 0 to 1e-323 is infinitely steep: evaluated
        # at the knot 5e-324 inside it, it gave an infinite bound before the
        # hull's evaluation took the fraction of the gap first
        g = ecdf([0.0, 5e-324, 1e-323, 1e-323, 1e-323], "lcm")
        assert g.hull.x.tolist() == [0.0, 1e-323, 1.0]
        est = astar_lower(g, 0.05)
        assert astar_two_sided(g, 0.05)[0] == est.value
        assert est.value == 1.0 - dkw_epsilon(5, 0.05) and est.diagnostics["argmax_t"] == 1e-323

    @pytest.mark.parametrize("call, sizes, spans", [
        (lambda p: ecdf(p), 2.125, 2),
        (lambda p: ecdf(p, "lcm"), 2, 5),
        (lambda p: astar_lower(ecdf(p), 0.05), 2.125, 4),
        (lambda p: astar_lower(ecdf(p, "floor"), 0.05), 2.125, 4),
        (lambda p: bh_threshold(p, 0.05), 1, 2.5),
    ], ids=["ecdf-plain", "ecdf-lcm", "astar", "astar-floor", "bh"])
    def test_screen_memory_budget(self, traced_memory, call, sizes, spans):
        # traced peak above the input, at most ``sizes`` input sizes plus
        # ``spans`` spans of 8-byte entries (a span is a third of this m).
        # The ECDF sorts p into its knot buffer, moves the run starts to its
        # front a span at a time and shrinks it: two buffers of at most m
        # knots, the run-start mask and two spans of indices (3.8 input sizes
        # here when it held a sorted copy and the run starts' indices too).
        # The majorant works in about 37 bytes an index of a span, over the
        # two buffers; the a* bound reads them a span at a time, the floor
        # variant's max(Ghat, t) too (3.8 when it took its objective, or that
        # floor, at every knot at once).  The step-up rule holds
        # the sorted copy and two spans of critical values and comparisons
        # (2.1 with every critical value at once)
        p = rounded_screen(200_000, seed=3)
        assert traced_memory(lambda: call(p), lambda: call(p[:10]))[1] <= sizes * p.nbytes + spans * 8 * _SPAN

    def test_majorant_memory_is_bounded_by_the_span(self, traced_memory):
        # traced peak above its inputs on 346,617 points: 2.4 MB, as at
        # 96,308 or 714,014; over the whole input at once it took 12.5 MB
        xs, ys = lcm_points(rounded_screen(400_000, seed=3))
        peak = traced_memory(lambda: _concave_majorant(xs, ys), lambda: _concave_majorant(xs[:10], ys[:10]))[1]
        assert peak <= 3e6


class TestDkw:
    def test_alpha_two_gives_zero(self):
        assert dkw_epsilon(10, 2.0) == 0.0

    def test_formula_spot_value(self):
        assert abs(dkw_epsilon(50, 0.05) - 0.19206) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            dkw_epsilon(0, 0.05)
        with pytest.raises(ValueError):
            dkw_epsilon(10, 0.0)
        with pytest.raises(ValueError):
            dkw_epsilon(10, 2.5)

    def test_band_coverage(self):
        # ~5% of uniform samples may escape the band, not more (3 sigma slack)
        m, reps, alpha = 200, 2000, 0.05
        eps = dkw_epsilon(m, alpha)
        rng = np.random.default_rng(5)
        u = np.sort(rng.uniform(0, 1, (reps, m)), axis=1)
        i = np.arange(1, m + 1)
        sup = np.maximum(i / m - u, u - (i - 1) / m).max(axis=1)
        miss = (sup > eps).mean()
        assert miss <= alpha + 3 * np.sqrt(alpha * (1 - alpha) / reps)


class TestStoreyA0:
    def test_worked_ratio(self):
        est = storey_a0([0.1, 0.2, 0.9], t0=0.5)
        assert abs(est.value - 1.0 / 3.0) < 1e-15

    def test_clamped_at_zero(self):
        est = storey_a0([0.6, 0.7, 0.9, 0.95], t0=0.5)
        assert est.value == 0.0
        assert est.diagnostics["raw"] < 0.0

    def test_t0_validated(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                storey_a0([0.5], t0=bad)


class TestRowCores:
    """The row-wise cores behind storey_a0 and QHat, which the validation
    targets run on blocks, agree with the one-sample functions row by row."""

    @pytest.mark.parametrize("m", [1, 2, 9, 200])
    def test_storey_rows_are_storey_a0(self, m):
        p = core_block(stream(920, m), m)
        for t0 in (0.25, 0.5, 0.9):
            ghat_t0, raw, value = _storey(p, t0)
            for i, row in enumerate(p):
                est = storey_a0(row, t0)
                assert (ghat_t0[i], raw[i], value[i]) == (
                    est.diagnostics["ghat_t0"], est.diagnostics["raw"], est.value)

    def test_storey_rows_check_t0(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"t0 must lie in \(0, 1\)"):
                _storey(np.full((2, 3), 0.5), bad)

    @pytest.mark.parametrize("variant", ["plain", "floor", "lcm"])
    @pytest.mark.parametrize("m", [1, 2, 9, 200])
    def test_astar_rows_are_astar_lower(self, m, variant):
        p = core_block(stream(923, m), m)
        p[2:30] = np.round(p[2:30], 2)             # heavy ties
        for alpha in (0.05, 0.5):
            want = [astar_lower(ecdf(row, variant), alpha).value for row in p]
            assert m == 1 or np.count_nonzero(want) > 0  # the bound is not always clamped at 0
            np.testing.assert_array_equal(_astar_rows(p, alpha, variant), want)

    @pytest.mark.parametrize("m", [1, 2, 9, 200])
    def test_qhat_rows_are_q_hat(self, m):
        p = core_block(stream(921, m), m)
        pts = np.array([0.0, 5e-324, 0.05, 0.25, 0.5, 0.9, 1.0])
        ahat = np.r_[0.0, 1.0, stream(922).random(p.shape[0] - 2)]
        g = np.count_nonzero(p[:, :, None] <= pts, axis=1) / m
        got = _qhat(g, pts, 1.0 - ahat[:, None])
        for i, row in enumerate(p):
            qh = q_hat(row, ahat[i])
            ok = (pts == 0.0) | (g[i] > 0.0)   # QHat refuses Ghat(t) = 0 at t > 0
            assert np.array_equal(got[i, ok], qh(pts[ok]))
            assert np.all(got[i, ~ok] == 0.0)
            for t in pts[~ok]:
                with pytest.raises(ValueError, match="estimated CDF is 0"):
                    qh(t)


class TestAstarLower:
    def test_uniformish_clamps_to_zero(self):
        p = np.linspace(0.05, 0.95, 10)
        assert astar_lower(ecdf(p), 0.05).value == 0.0

    def test_example1_matches_dense_grid_oracle(self, example1):
        got = astar_lower(ecdf(example1), 0.05)
        want = astar_dense_grid(example1, 0.05)
        assert abs(got.value - want) < 1e-9
        assert got.diagnostics["argmax_t"] in example1

    def test_monotone_in_alpha(self, example1):
        g = ecdf(example1)
        # smaller alpha -> wider band -> smaller lower bound
        assert astar_lower(g, 0.01).value <= astar_lower(g, 0.05).value <= astar_lower(g, 0.2).value

    def test_alpha_validated(self, example1):
        with pytest.raises(ValueError):
            astar_lower(ecdf(example1), 0.0)


class TestKernelA:
    def test_minimum_sample_size(self):
        for m in (1, 5, 9):
            for fn in (kernel_a_consistent, kernel_density):
                with pytest.raises(ValueError, match="at least 10 p-values"):
                    fn(np.linspace(0.1, 0.9, m))
        assert kernel_density(np.linspace(0.1, 0.9, 10))[1].size == 512

    def test_bandwidth_validated(self):
        p = np.linspace(0.01, 0.99, 50)
        for h in (0.0, -1.0, np.nan, np.inf):
            for fn in (kernel_a_consistent, kernel_density):
                with pytest.raises(ValueError, match="bandwidth must be positive"):
                    fn(p, h)

    def test_uniform_sample_near_zero(self):
        rng = stream(77, 0)
        p = uniform_open(rng, 10_000)
        assert kernel_a_consistent(p).value < 0.1

    def test_sqrt_family_recovers_floor(self):
        # a=0.5, F=sqrt(t): identifiable floor is 1 - inf g = 0.25
        rng = stream(78, 0)
        lab = uniform_open(rng, 10_000) < 0.5
        u = uniform_open(rng, 10_000)
        p = np.where(lab, BetaPower(0.5).ppf(u), u)
        assert abs(kernel_a_consistent(p).value - 0.25) < 0.1

    def test_density_integrates_to_one(self):
        rng = stream(79, 0)
        p = uniform_open(rng, 2000)
        grid, dens = kernel_density(p)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 0.01

    @pytest.mark.parametrize("h,tol", [(0.01, 1e-13), (0.05, 2e-14), (None, 2e-14), (1.5, 2e-14)])
    def test_density_matches_dense_fsum(self, h, tol):
        # the prefix-sum form against the dense sum over all 3m reflected
        # points, summed exactly per grid point
        g = stream(80, 0)
        # ten copies of the one- and two-point samples (the same density at
        # a given bandwidth) reach the minimum size of 10
        samples = [np.array(v, dtype=float) for v in (
            [0.3] * 10, [0.0] * 10, [1.0] * 10, [0.0, 1.0] * 5, [0.5] * 40, [0.0] * 25, [1.0] * 25,
        )]
        for m in (10, 60, 500, 2000):
            p = g.random(m) ** 3
            samples.append(p)
            samples.append(np.ceil(p * 20) / 20)  # ties, with some at exactly 1
            samples.append(np.r_[np.zeros(m // 5), p, np.ones(m // 5)])
        for p in samples:
            bw = p.size ** (-0.2) if h is None else h
            grid, dens = kernel_density(p, h)
            want = kernel_density_fsum(p, bw, grid)
            assert np.all(dens >= 0.0)
            assert np.max(np.abs(dens - want)) <= tol * want.max()

    def test_density_keeps_the_bits_of_the_3m_sort(self):
        # the one sort of m into the middle of [-s reversed, s, 2 - s
        # reversed] against a sort of all 3m reflected points, whose zeros
        # may take either sign: ties, atoms at 0 and 1, a -0.0, m = 10, and
        # bandwidths above 1, where a window spans all three reflections
        def sorted_3m(p, h):
            grid = np.linspace(0.0, 1.0, _KERNEL_GRID)
            x = np.sort(np.concatenate([p, -p, 2.0 - p]))
            csum = np.zeros((2, x.size + 1))
            csum[0, 1:] = np.round(x * 1024.0) / 1024.0
            csum[1, 1:] = x - csum[0, 1:]
            np.cumsum(csum, axis=1, out=csum)
            lo, mid, hi = np.searchsorted(x, [grid - h, grid, grid + h])
            n_l, n_r = mid - lo, hi - mid
            s_l, s_r = (csum[:, [mid, hi]] - csum[:, [lo, mid]]).sum(axis=0)
            dens = n_l + n_r - (grid * (n_l - n_r) - s_l + s_r) / h
            return np.maximum(dens / (p.size * h), 0.0)

        g = stream(81, 0)
        p = g.random(3000) ** 2
        samples = [
            np.linspace(0.05, 0.95, 10), np.r_[np.zeros(4), 0.5, np.ones(5)], np.r_[-0.0, 0.0, g.random(8)],
            p, np.round(p, 2), np.r_[np.zeros(300), np.round(p, 3), np.ones(200), -0.0, -0.0],
        ]
        for p in samples:
            for h in (0.01, 0.2, None, 1.0, 1.7):
                bw = p.size ** (-0.2) if h is None else h
                got = kernel_density(p, h)[1]
                assert got.tobytes() == sorted_3m(p, bw).tobytes()

    def test_density_memory_budget(self, traced_memory):
        # traced peak above the input, in input sizes: the reflected sample
        # and its two prefix sums take 9; sorting the 3m reflected points
        # took 15 (the sort's copy and the out-of-place splits)
        p = stream(82, 0).random(200_000)
        assert np.unique(p).size == p.size
        assert traced_memory(lambda: kernel_density(p), lambda: kernel_density(p[:10]))[1] <= 10 * p.nbytes


class TestQHat:
    def test_order_statistic_identity(self, example1):
        # ahat=0, plain ECDF: Qhat(P_(i)) = P_(i) * m / i
        qh = q_hat(example1, 0.0)
        srt = np.sort(example1)
        for i in (1, 4, 9, 15):
            assert abs(qh(srt[i - 1]) - srt[i - 1] * 15 / i) < 1e-12

    def test_example1_worked_value(self, example1):
        assert abs(q_hat(example1, 0.0)(0.0095) - 0.035625) < 1e-12

    def test_ahat_one_gives_zero(self, example1):
        qh = q_hat(example1, 1.0)
        assert np.all(np.asarray(qh(np.linspace(0, 1, 11))) == 0.0)

    def test_zero_by_convention_at_origin(self, example1):
        assert q_hat(example1, 0.5)(0.0) == 0.0

    def test_domain_error_below_first_point(self):
        qh = q_hat([0.4, 0.6], 0.0)
        with pytest.raises(ValueError):
            qh(0.1)
        # the floor variant removes the error
        assert q_hat([0.4, 0.6], 0.0, variant="floor")(0.1) == 1.0

    def test_ahat_validated(self, example1):
        with pytest.raises(ValueError):
            q_hat(example1, 1.2)

    def test_accepts_estimate_object(self, example1):
        est = storey_a0(example1, 0.5)
        assert q_hat(example1, est)(0.5) == q_hat(example1, est.value)(0.5)


# --- sup-norm projection -----------------------------------------------------

def brute_force_projection(p, ahat, levels=65):
    """Exhaustive search over step CDFs with values on a uniform value grid.

    Candidate CDFs jump only at the observed p-values.  The deviation
    G - (1-a)U - a*F is linear between breakpoints of the two step
    functions, so its sup norm is attained at a one-sided limit at some
    breakpoint (or at t=1); those finitely many values are evaluated for
    every nondecreasing assignment of grid values at once.
    """
    from itertools import combinations_with_replacement

    g = ecdf(p, "plain")
    grid = np.linspace(0.0, 1.0, levels)
    xs = np.unique(p)
    k = xs.size
    combos = np.array(
        list(combinations_with_replacement(range(levels), k)), dtype=np.intp
    )
    fvals = grid[combos]  # (N, k) candidate CDF values at the jumps
    gr = np.asarray(g(xs))
    gl = np.asarray(g.left(xs))
    fleft = np.concatenate([np.zeros((fvals.shape[0], 1)), fvals[:, :-1]], axis=1)
    dev_right = np.abs(gr - (1.0 - ahat) * xs - ahat * fvals)
    dev_left = np.abs(gl - (1.0 - ahat) * xs - ahat * fleft)
    dev_one = np.abs(1.0 - (1.0 - ahat) - ahat * fvals[:, -1])[:, None]
    alldev = np.concatenate([dev_right, dev_left, dev_one], axis=1)
    return float(alldev.max(axis=1).min())


def lp_projection_optimum(p, g, ahat, piecewise_linear):
    """Smallest ``||Ghat - (1 - ahat) U - ahat H||_inf`` by linear programming.

    H is a step CDF with values v_k on [xs_k, xs_{k+1}) for the distinct
    p-values xs (0 before xs_0), or a piecewise-linear CDF with H(0) = 0
    through nodes at every breakpoint of Ghat (more nodes cannot lower the
    optimum).  The deviation is linear between the breakpoints of Ghat
    (ECDF jumps, hull nodes, floor kinks) and of H, so its sup norm is the
    largest one-sided value at those points; each becomes a pair of LP rows.
    """
    from scipy.optimize import linprog

    ts = [g.base.knots, [0.0, 1.0], np.unique(p)]
    if g.variant == "lcm":
        ts.append(g.hull.x)
    if g.variant == "floor":
        ts.append(np.clip(g.base.values, 0.0, 1.0))
    ts = np.unique(np.concatenate(ts))
    xs = ts if piecewise_linear else np.unique(p)
    n = xs.size
    if piecewise_linear:
        w_right = np.column_stack([np.interp(ts, xs, col) for col in np.eye(n)])
        w_left = w_right
    else:
        def select(idx):
            return np.where((idx >= 0)[:, None], np.eye(n)[np.maximum(idx, 0)], 0.0)

        w_right = select(np.searchsorted(xs, ts, side="right") - 1)
        w_left = select(np.searchsorted(xs, ts, side="left") - 1)
    inner = ts > 0.0          # a left limit at 0 is the value at 0
    e = np.r_[np.asarray(g(ts)) - (1 - ahat) * ts,
              np.asarray(g.left(ts[inner])) - (1 - ahat) * ts[inner]]
    w = np.vstack([w_right, w_left[inner]])
    one = np.ones((e.size, 1))
    mono = np.eye(n)[:-1] - np.eye(n)[1:]
    a_ub = np.vstack([
        np.hstack([-ahat * w, -one]),      # E - a H <= D
        np.hstack([ahat * w, -one]),       # a H - E <= D
        np.hstack([mono, np.zeros((n - 1, 1))]),
    ])
    b_ub = np.r_[-e, e, np.zeros(n - 1)]
    bounds = [(0.0, 1.0)] * n + [(0.0, None)]
    if piecewise_linear:
        bounds[0] = (0.0, 0.0)
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def step_targets_by_parts(ghat, ahat):
    """Per-interval extremes of E(t) = Ghat(t) - (1 - ahat) t for step CDFs,
    as ``project_f`` read them before one list of bend points served both
    representations: the interval's right value at its start, the left limit
    at its end and the floor variant's kink, each handled on its own."""
    knots = ghat.base.knots
    grid = knots if ghat.base.values[0] > 0.0 else knots[1:]
    one_minus_a = 1.0 - ahat
    e = np.r_[grid[1:], 1.0]
    er = np.asarray(ghat(grid), dtype=float) - one_minus_a * grid
    el = np.asarray(ghat.left(e), dtype=float) - one_minus_a * e
    if grid[-1] == 1.0:
        el[-1] = er[-1]
    lo = np.minimum(er, el)
    hi = np.maximum(er, el)
    if ghat.variant == "floor":
        b = np.asarray(ghat.base(grid), dtype=float)
        kink = (grid < b) & (b < e)
        eb = b - one_minus_a * b
        lo = np.where(kink, np.minimum(lo, eb), lo)
        hi = np.where(kink, np.maximum(hi, eb), hi)
    fixed_dev = 0.0
    if grid[0] > 0.0:
        fixed_dev = abs(float(ghat.left(grid[0])) - one_minus_a * grid[0])
    return grid, lo, hi, fixed_dev


def node_targets_by_parts(ghat, ahat):
    """Per-node one-sided extremes of E for piecewise-linear CDFs, over the
    knots, 0, 1 and the floor variant's kinks, listed on their own."""
    ks = ghat.base.knots
    parts = [ks, [0.0, 1.0]]
    if ghat.variant == "floor":
        b = ghat.base.values
        parts.append(b[(ks < b) & (b < np.r_[ks[1:], 1.0])])
    nodes = np.unique(np.concatenate(parts))
    one_minus_a = 1.0 - ahat
    er = np.asarray(ghat(nodes), dtype=float) - one_minus_a * nodes
    el = np.asarray(ghat.left(nodes), dtype=float) - one_minus_a * nodes
    return nodes, np.minimum(er, el)[1:], np.maximum(er, el)[1:], abs(er[0])


def project_f_by_parts(ghat, a, piecewise_linear):
    """``project_f``'s (x, values) from the targets above and its solver."""
    targets = node_targets_by_parts if piecewise_linear else step_targets_by_parts
    x, lo, hi, fixed_dev = targets(ghat, a)
    cum_hi = np.maximum.accumulate(hi)
    d = max(fixed_dev, float(np.max(cum_hi - lo)) / 2.0, float(np.max(hi)) - a, -float(np.min(lo)))
    lower = np.clip(cum_hi - d, 0.0, a)
    upper = np.clip(np.minimum.accumulate((lo + d)[::-1])[::-1], 0.0, a)
    h = (lower + upper) / (2.0 * a)
    if piecewise_linear:
        return x, np.r_[0.0, h]
    f = StepFunction.from_pairs(x, h, value_at_zero=0.0)
    return f.knots, f.values


def objective_on_all_values(ghat, a, fhat):
    """``projection_objective`` over its former points: the knots, 0, 1, the
    hull's vertices, every step value of the floor variant (a superset of its
    kinks) and fhat's breakpoints."""
    parts = [ghat.base.knots, [0.0, 1.0]]
    if ghat.variant == "lcm":
        parts.append(ghat.hull.x)
    if ghat.variant == "floor":
        parts.append(np.clip(ghat.base.values, 0.0, 1.0))
    if isinstance(fhat, StepFunction):
        parts.append(fhat.knots)
        f_left = fhat.left
    else:
        parts.append(fhat.x)
        f_left = fhat
    ts = np.unique(np.concatenate(parts))
    dev_right = np.abs(np.asarray(ghat(ts)) - (1.0 - a) * ts - a * np.asarray(fhat(ts)))
    dev_left = np.abs(np.asarray(ghat.left(ts)) - (1.0 - a) * ts - a * np.asarray(f_left(ts)))
    return float(max(dev_right.max(), dev_left.max()))


def assert_projection_by_parts(g, ahat, piecewise_linear, f):
    """``f`` has the bits of the projection read from the separate targets,
    and its objective is no larger than over the former points (equal but
    for the floor variant, whose former points held more than its kinks)."""
    arrays = (f.x, f.y) if piecewise_linear else (f.knots, f.values)
    for got, want in zip(arrays, project_f_by_parts(g, ahat, piecewise_linear)):
        assert got.tobytes() == want.tobytes()
    obj, former = projection_objective(g, ahat, f), objective_on_all_values(g, ahat, f)
    assert obj == former if g.variant != "floor" else obj <= former
    return obj


_pvalue = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestProjectF:
    @given(
        p=st.lists(_pvalue, min_size=1, max_size=40),
        variant=st.sampled_from(["plain", "floor", "lcm"]),
        piecewise_linear=st.booleans(),
        ahat=st.floats(0.01, 1.0),
    )
    @example(p=[0.3], variant="plain", piecewise_linear=False, ahat=0.5)
    @example(p=[0.0, 1.0], variant="floor", piecewise_linear=False, ahat=0.7)
    @example(p=[0.0, 0.0], variant="lcm", piecewise_linear=True, ahat=1.0)
    @example(p=[1.0, 1.0], variant="plain", piecewise_linear=True, ahat=0.2)
    @example(p=[0.4] * 7, variant="floor", piecewise_linear=False, ahat=0.9)
    @example(p=[0.4] * 7, variant="lcm", piecewise_linear=False, ahat=0.3)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_global_optimum_matches_lp(self, p, variant, piecewise_linear, ahat):
        g = ecdf(p, variant)
        f = project_f(g, ahat, piecewise_linear=piecewise_linear)
        if piecewise_linear:
            vals = f.y
            assert f.x[0] == 0.0 and f.x[-1] == 1.0 and vals[0] == 0.0
        else:
            vals = f.values
            xs = np.unique(p)
            assert np.array_equal(f.knots[f.knots > 0.0], xs[xs > 0.0])
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0
        obj = assert_projection_by_parts(g, ahat, piecewise_linear, f)
        assert abs(obj - lp_projection_optimum(p, g, ahat, piecewise_linear)) <= 1e-12

    @pytest.mark.parametrize("p", [
        [0.3], [0.0], [-0.0], [5e-324], [1.0], [0.4] * 7, [0.0] * 3, [1.0] * 3, [0.0, 1.0],
        [-0.0, 0.0, 5e-324, 0.5, 1.0], [0.0, 5e-324, 1e-323, 1e-323, 1.0], [5e-324, 5e-324, 0.2, 1.0, 1.0],
        [0.0, 0.0, 0.25, 0.25, 0.5, 0.75, 1.0], [0.05, 0.1, 0.1, 0.6, 0.9],
    ])
    def test_edge_atoms_keep_the_bits_of_the_separate_targets(self, p):
        # atoms at 0, -0.0, 5e-324 and 1, all-tied samples and m = 1; the
        # test config makes any RuntimeWarning an error
        for variant in ("plain", "floor", "lcm"):
            g = ecdf(p, variant)
            for ahat in (0.01, 0.3, 0.5, 0.77, 1.0):
                for piecewise_linear in (False, True):
                    f = project_f(g, ahat, piecewise_linear=piecewise_linear)
                    assert math.isfinite(assert_projection_by_parts(g, ahat, piecewise_linear, f))

    @pytest.mark.parametrize("p", [
        [0.3], [0.0], [-0.0], [5e-324], [1.0], [0.0] * 3, [1.0] * 3, [0.0, 1.0],
        [-0.0, 0.0, 5e-324, 0.5, 1.0], [5e-324, 5e-324, 0.2, 1.0, 1.0], [0.05, 0.1, 0.1, 0.6, 0.9],
        np.round(np.random.default_rng(6).random(300) ** 3, 3).tolist(),
    ])
    def test_excess_reads_step_ghat_by_position(self, p):
        # the plain and floor variants read Ghat at E's points by position;
        # evaluating Ghat and its left limit there, the path it replaced, is
        # the oracle, with no extra points and with those of a step fhat, a
        # piecewise-linear one, another sample's ECDF and the edge atoms
        other = ecdf(np.random.default_rng(7).random(50) ** 2).base
        nodes = PiecewiseLinear(np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7))
        for variant, ahat in itertools.product(("plain", "floor"), (0.3, 1.0)):
            g = ecdf(p, variant)
            fs = (project_f(g, ahat), project_f(g, ahat, piecewise_linear=True), other, nodes)
            extras = [(), *[(f.knots if isinstance(f, StepFunction) else f.x,) for f in fs],
                      (np.array([0.0, -0.0, 5e-324, 1.0]),)]
            for extra in extras:
                t, er, el, at = _excess(g, ahat, *extra)
                ramp = (1.0 - ahat) * t
                assert er.tobytes() == (np.asarray(g(t)) - ramp).tobytes()
                assert el.tobytes() == (np.asarray(g.left(t)) - ramp).tobytes()
                assert np.all(np.diff(at) > 0) and np.array_equal(t[at], g.base.knots)
            for f in fs:
                t = np.unique(np.r_[_excess(g, ahat)[0], f.knots if isinstance(f, StepFunction) else f.x])
                left = f.left if isinstance(f, StepFunction) else f
                want = max(np.abs(np.asarray(g(t)) - (1.0 - ahat) * t - ahat * f(t)).max(),
                           np.abs(np.asarray(g.left(t)) - (1.0 - ahat) * t - ahat * left(t)).max())
                assert projection_objective(g, ahat, f) == want

    def test_lcm_across_a_subnormal_gap(self):
        # the hull segment from 0 to 1e-323 has a slope that overflows a
        # double; its value at 5e-324 is halfway along the segment (the edge
        # atoms above project this sample without a warning)
        g = ecdf([0.0, 5e-324, 1e-323, 1e-323, 1.0], "lcm")
        assert g(5e-324) == 0.5 and g.left(5e-324) == 0.5
        assert np.array_equal(g(np.array([0.0, 5e-324, 1e-323, 1.0])), [0.2, 0.5, 0.8, 1.0])

    def test_ahat_one_reproduces_ghat(self, example1):
        g = ecdf(example1, "plain")
        f = project_f(g, 1.0)
        assert projection_objective(g, 1.0, f) < 1e-12

    def test_output_is_cdf(self, example1):
        for a in (0.3, 0.7, 1.0):
            f = project_f(ecdf(example1), a)
            assert np.all(np.diff(f.values) >= -1e-15)
            assert f.values[0] >= 0.0 and f.values[-1] <= 1.0 + 1e-15

    def test_piecewise_linear_output_is_cdf(self, example1):
        f = project_f(ecdf(example1), 0.5, piecewise_linear=True)
        assert isinstance(f, PiecewiseLinear)
        assert np.all(np.diff(f.y) >= -1e-15)
        assert f.y[0] == 0.0 and f.y[-1] <= 1.0 + 1e-15

    def test_ahat_validated(self, example1):
        with pytest.raises(ValueError):
            project_f(ecdf(example1), 0.0)
        with pytest.raises(ValueError):
            project_f(ecdf(example1), -0.3)

    @pytest.mark.parametrize("ahat", [np.nan, 1.5, -0.2])
    def test_ahat_outside_the_unit_interval_is_refused(self, example1, ahat):
        # the objective took any ahat (nan, 0.757 and 0.358 for these); it
        # now shares the check of q_hat, plugin_threshold and project_f
        g = ecdf(example1)
        f = project_f(g, 0.5)
        for call in (lambda: projection_objective(g, ahat, f), lambda: q_hat(example1, ahat),
                     lambda: plugin_threshold(example1, ahat, 0.1)):
            with pytest.raises(ValueError, match=r"ahat must lie in \[0, 1\]"):
                call()
        with pytest.raises(ValueError, match=r"ahat must lie in \(0, 1\]"):
            project_f(g, 0.0)

    @pytest.mark.parametrize("seed,ahat", [(0, 0.5), (1, 0.5), (2, 0.8), (3, 1.0)])
    def test_m4_matches_discretized_brute_force(self, seed, ahat):
        rng = np.random.default_rng(seed)
        p = np.round(rng.uniform(0.05, 0.95, 4), 3)
        g = ecdf(p, "plain")
        ours = projection_objective(g, ahat, project_f(g, ahat))
        brute = brute_force_projection(p, ahat)
        # ours optimizes over continuous values, brute over a 1/64 value grid:
        # ours can undercut brute, and brute lies above the continuous optimum
        # by at most the grid quantization of the ahat-scaled values
        assert ours <= brute + 1e-9
        assert brute <= ours + ahat / 64 + 1e-9

    def test_objective_function_independent_eval(self, example1):
        # the reported objective agrees with a dense two-sided scan
        g = ecdf(example1)
        a = 0.5
        f = project_f(g, a)
        obj = projection_objective(g, a, f)
        ts = np.unique(np.r_[np.linspace(0, 1, 20001), example1, f.knots])
        dev = np.maximum(
            np.abs(np.asarray(g(ts)) - (1 - a) * ts - a * np.asarray(f(ts))),
            np.abs(np.asarray(g.left(ts)) - (1 - a) * ts - a * np.asarray(f.left(ts))),
        )
        assert abs(obj - dev.max()) < 1e-12


class TestMarshallAndBounds:
    def test_marshall_contract_on_concave_g(self):
        # samples from G(t)=sqrt(t) (concave): the LCM is never farther away.
        # The plain distance is exact (sup of a step vs continuous G sits at
        # a knot one-sided limit); the LCM distance is probed on a fine grid,
        # which can only understate it, so the comparison is conservative.
        fam = BetaPower(0.5)
        for seed in range(20):
            rng = stream(500 + seed, 0)
            p = fam.ppf(uniform_open(rng, 400))
            plain = ecdf(p, "plain")
            lcm = ecdf(p, "lcm")
            kn = plain.base.knots
            gk = np.asarray(fam.cdf(kn))
            d_plain = max(
                np.abs(np.asarray(plain(kn)) - gk).max(),
                np.abs(np.asarray(plain.left(kn)) - gk).max(),
            )
            ts = np.unique(np.r_[np.linspace(0, 1, 2001), kn, lcm.hull.x])
            d_lcm = np.abs(np.asarray(lcm(ts)) - np.asarray(fam.cdf(ts))).max()
            assert d_lcm <= d_plain + 1e-12

    def test_known_a_projection_bound(self):
        # reconstruction error is at most twice the ECDF error over a
        model = MixtureModel(0.5, BetaPower(0.5))
        a = 0.5
        ts = np.linspace(0.0, 1.0, 2001)
        for seed in range(10):
            rng = stream(900 + seed, 0)
            lab = uniform_open(rng, 2000) < a
            u = uniform_open(rng, 2000)
            p = np.where(lab, BetaPower(0.5).ppf(u), u)
            g = ecdf(p, "plain")
            f = project_f(g, a)
            probe = np.unique(np.r_[ts, g.base.knots, f.knots])
            dF = np.maximum(
                np.abs(np.asarray(f(probe)) - BetaPower(0.5).cdf(probe)),
                np.abs(np.asarray(f.left(probe)) - BetaPower(0.5).cdf(probe)),
            ).max()
            dG = np.maximum(
                np.abs(np.asarray(g(probe)) - model.cdf(probe)),
                np.abs(np.asarray(g.left(probe)) - model.cdf(probe)),
            ).max()
            assert dF <= 2.0 * dG / a + 1e-12
