"""Threshold-rule checks: literal step-up scans and dense grids as oracles,
plus the documented equivalences between the plug-in family and the
step-up rule."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpkit.estimation import NullFractionEstimate, ecdf, storey_a0
from fdpkit.families import UserCdf, make_family
from fdpkit.model import MixtureModel, q_inverse, q_map
from fdpkit.rng import stream
from fdpkit.simulation import purity_quantities
from fdpkit.thresholds import (
    _last_crossing,
    _step_up,
    bayes_classifier_threshold,
    bh_threshold,
    oracle_threshold,
    plugin_threshold,
    rate_ceiling_known_a,
    simple_thresholds,
)


def naive_step_up(p, alpha):
    """Scan i = m, ..., 1 for the first i with p_(i) <= alpha i / m."""
    ps = sorted(p)
    m = len(ps)
    for i in range(m, 0, -1):
        if ps[i - 1] <= alpha * i / m:
            return ps[i - 1], i
    return 0.0, 0


def random_pvalues(g, max_m=12):
    m = int(g.integers(1, max_m + 1))
    p = g.random(m)
    if g.random() < 0.5:
        p = np.ceil(p * 10) / 10  # coarse values force ties
    return np.clip(p, 1e-9, 1.0)


class TestSimpleRules:
    def test_uncorrected_on_example(self, example1):
        r = simple_thresholds(example1, 0.05, "uncorrected")
        assert r.t == 0.05
        assert r.rejected == 9

    def test_bonferroni_on_example(self, example1):
        r = simple_thresholds(example1, 0.05, "bonferroni")
        assert r.t == pytest.approx(0.05 / 15, abs=1e-12)
        assert r.rejected == 3

    def test_fixed_rule(self, example1):
        r = simple_thresholds(example1, kind="fixed", t=0.2)
        assert r.rejected == int(np.sum(example1 <= 0.2))
        with pytest.raises(ValueError):
            simple_thresholds(example1, kind="fixed", t=1.5)
        with pytest.raises(ValueError):
            simple_thresholds(example1, kind="fixed")

    def test_first_r_rule(self, example1):
        r = simple_thresholds(example1, kind="first-r", r=4)
        assert r.t == np.sort(example1)[3]
        assert r.rejected == 4
        zero = simple_thresholds(example1, kind="first-r", r=0)
        assert zero.t == 0.0 and zero.rejected == 0
        with pytest.raises(ValueError):
            simple_thresholds(example1, kind="first-r", r=16)
        with pytest.raises(ValueError):
            simple_thresholds(example1, kind="first-r")

    def test_first_r_with_boundary_ties_rejects_by_threshold(self):
        r = simple_thresholds([0.1, 0.1, 0.5], kind="first-r", r=1)
        assert r.t == 0.1
        assert r.rejected == 2  # threshold rule cannot split tied values

    def test_underscore_alias_and_unknown_kind(self, example1):
        assert simple_thresholds(example1, kind="first_r", r=2).rejected == 2
        with pytest.raises(ValueError, match="unknown rule"):
            simple_thresholds(example1, 0.05, "holm")

    def test_alpha_validation(self, example1):
        for bad in (None, 0.0, 1.0):
            with pytest.raises(ValueError):
                simple_thresholds(example1, bad, "uncorrected")


class TestStepUpRule:
    def test_matches_naive_scan_on_random_draws(self):
        g = stream(903)
        for _ in range(200):
            p = random_pvalues(g)
            alpha = float(g.uniform(0.01, 0.5))
            want_t, want_r = naive_step_up(p, alpha)
            got = bh_threshold(p, alpha)
            assert got.t == pytest.approx(want_t, abs=1e-14)
            assert got.rejected == want_r

    def test_example_pin(self, example1):
        r = bh_threshold(example1, 0.05)
        assert r.t == pytest.approx(0.0095, abs=1e-12)
        assert r.rejected == 4

    def test_nothing_rejected_at_all_ones(self):
        r = bh_threshold(np.ones(8), 0.05)
        assert r.t == 0.0 and r.rejected == 0

    def test_monotone_in_level(self):
        g = stream(904)
        for _ in range(25):
            p = random_pvalues(g)
            t1 = bh_threshold(p, 0.05).t
            t2 = bh_threshold(p, 0.2).t
            assert t1 <= t2

    def test_alpha_validation(self, example1):
        with pytest.raises(ValueError):
            bh_threshold(example1, 1.0)

    def test_rows_match_the_one_sample_rule(self):
        # one level per row, as the validation targets run it: r = 0, ties,
        # p-values of 0 and 1, an infinite level (1 - ahat = 0) and levels
        # above 1 (alpha / (1 - ahat))
        g = stream(910)
        p = np.round(g.random((7, 30)), 1)
        p[0] = np.linspace(0.5, 1.0, 30)           # nothing feasible
        p[1, :10] = 0.0
        p[2, -10:] = 1.0
        p[3] = 1.0
        levels = np.array([0.05, 0.05, 0.2, 0.3, np.inf, 1.5, 0.01])
        for rows, lv in ((p, levels), (p[1:2], levels[1:2])):
            ps, r, t = _step_up(rows, lv)
            assert ps.shape == rows.shape and r.shape == t.shape == (rows.shape[0],)
            for row, level, ri, ti in zip(rows, lv, r, t):
                want_t, want_r = naive_step_up(row, level)
                assert (ri, ti) == (want_r, want_t)
                if level < 1.0:
                    one = bh_threshold(row, level)
                    assert (ri, ti) == (one.rejected, one.t)
        assert r.dtype.kind == "i" and np.array_equal(ps, np.sort(p[1:2], axis=1))
        assert (_step_up(p, levels)[1][[0, 3, 4]] == [0, 0, 30]).all()


class TestOracleThreshold:
    def test_against_dense_grid(self):
        model = MixtureModel(0.25, make_family("one-sided-normal", {"theta": 3.0}))
        ts = np.linspace(1e-9, 1.0, 1_000_001)
        qv = (1 - model.a) * ts / model.cdf(ts)
        grid_sup = ts[qv <= 0.05].max()
        r = oracle_threshold(model, 0.05)
        assert r.t == pytest.approx(grid_sup, abs=1e-6)
        q = q_map(model)
        assert q(r.t) <= 0.05 + 1e-12
        assert q(r.t + 1e-5) > 0.05

    def test_level_above_terminal_value_gives_one(self):
        model = MixtureModel(0.25, make_family("one-sided-normal", {"theta": 3.0}))
        assert oracle_threshold(model, 0.8).t == 1.0  # map tops out at 0.75

    def test_pure_null_gives_zero(self):
        assert oracle_threshold(MixtureModel(0.0, None), 0.05).t == 0.0

    def test_all_alternatives_gives_one(self):
        model = MixtureModel(1.0, make_family("one-sided-normal", {"theta": 3.0}))
        assert oracle_threshold(model, 0.05).t == 1.0

    def test_diagnostics_and_validation(self):
        model = MixtureModel(0.25, make_family("one-sided-normal", {"theta": 3.0}))
        r = oracle_threshold(model, 0.05)
        assert r.diagnostics["q_at_t"] <= 0.05
        assert r.rejected is None
        with pytest.raises(ValueError):
            oracle_threshold(model, 0.0)

    def test_monotonicity_check_rejects_only_non_concave_g(self):
        # every built-in family and the recentered two-sided family of the
        # achievable-oracle target pass, and the threshold is the largest
        # double with Q(t) <= alpha
        concave = [
            MixtureModel(0.25, make_family(name, params))
            for name, params in [
                ("one-sided-normal", {"theta": 3.0}),
                ("one-sided-normal", {"theta": 0.5, "n": 9}),
                ("two-sided-normal", {"theta": 3.0}),
                ("two-sided-normal", {"theta": 0.5}),
                ("beta", {"beta": 0.1}),
                ("beta", {"beta": 1.0}),
                ("square-root", {}),
            ]
        ]
        pq = purity_quantities(concave[2])
        concave.append(MixtureModel(pq.a_lower, UserCdf(pq.f_lower)))
        for model in concave:
            q = q_map(model)
            for alpha in (0.01, 0.05, 0.2):
                t = oracle_threshold(model, alpha).t
                assert q(t) <= alpha and (t == 1.0 or q(np.nextafter(t, 2.0)) > alpha)
        assert 0.0 < oracle_threshold(concave[-1], 0.05).t < 1.0
        # G(t) = (t + t^2) / 2 is convex, so Q(t) = 1 / (1 + t) falls
        model = MixtureModel(0.5, UserCdf(lambda t: np.asarray(t, dtype=float) ** 2))
        with pytest.raises(ValueError, match="concave"):
            q_inverse(model, 0.3)
        with pytest.raises(ValueError, match="concave"):
            oracle_threshold(model, 0.05)
        with pytest.raises(ValueError, match="concave"):
            rate_ceiling_known_a(model, 1000, 0.05, 0.05)


class TestPluginThreshold:
    def test_zero_estimate_reduces_to_step_up(self):
        g = stream(905)
        for _ in range(100):
            p = random_pvalues(g)
            alpha = float(g.uniform(0.01, 0.5))
            pl = plugin_threshold(p, 0.0, alpha)
            su = bh_threshold(p, alpha)
            assert pl.t == su.t and pl.rejected == su.rejected

    def test_estimate_rescales_the_level(self):
        g = stream(906)
        for _ in range(50):
            p = random_pvalues(g)
            ahat = float(g.uniform(0.0, 0.7))
            alpha = 0.05
            for q in (p, np.r_[p, 0.0, 1.0, 1.0]):    # also ties at 0 and at 1
                su = bh_threshold(q, alpha / (1 - ahat))
                plain = plugin_threshold(q, ahat, alpha)
                floor = plugin_threshold(q, ahat, alpha, variant="floor")
                assert plain.t == su.t and plain.rejected == su.rejected
                assert (floor.t, floor.rejected, floor.diagnostics["sup_exact"]) == (
                    plain.t, plain.rejected, plain.diagnostics["sup_exact"])
                # 1 - ahat <= alpha: the level reaches 1 and every p-value goes
                for big, variant in itertools.product((0.96, 1.0), ("plain", "floor", "lcm")):
                    r = plugin_threshold(q, big, alpha, variant=variant)
                    assert (r.t, r.rejected, r.diagnostics["sup_exact"]) == (1.0, q.size, 1.0)

    def test_example_pin_with_exceedance_estimate(self, example1):
        ah = storey_a0(example1)
        assert ah.value == pytest.approx(7 / 15, abs=1e-12)
        r = plugin_threshold(example1, ah, 0.05)
        assert r.t == pytest.approx(0.0459, abs=1e-12)
        assert r.rejected == 9
        assert r.diagnostics["sup_exact"] == pytest.approx(0.05625, abs=1e-10)
        assert r.diagnostics["ahat_method"] == ah.method

    def test_degenerate_estimate_rejects_everything(self, example1):
        r = plugin_threshold(example1, 1.0, 0.05)
        assert r.t == 1.0 and r.rejected == example1.size
        assert r.diagnostics["sup_exact"] == 1.0

    def test_monotone_in_estimate(self):
        g = stream(907)
        for _ in range(25):
            p = random_pvalues(g)
            ts = [plugin_threshold(p, a, 0.05).t for a in (0.0, 0.3, 0.6)]
            assert ts[0] <= ts[1] <= ts[2]

    def test_exact_sup_against_dense_grid(self):
        g = stream(908)
        g_edge = stream(909)
        edge = [np.array([0.3]), np.array([0.0]), np.array([1.0]), np.array([0.2, 0.7]),
                np.array([0.0, 1.0]), np.full(6, 0.4), np.full(3, 0.0), np.full(3, 1.0),
                np.array([0.0, 0.0, 0.5, 1.0, 1.0])]
        for variant in ("plain", "floor", "lcm"):
            for k in range(10 + len(edge)):
                gk = g if k < 10 else g_edge
                p = random_pvalues(g, max_m=10) if k < 10 else edge[k - 10]
                ahat = float(gk.uniform(0.0, 0.6))
                alpha = float(gk.uniform(0.05, 0.4))
                self._check_against_dense_grid(p, ahat, alpha, variant)

    @given(
        p=st.lists(st.one_of(st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=10),
        ahat=st.floats(0.0, 0.6),
        alpha=st.floats(0.05, 0.4),
        variant=st.sampled_from(["plain", "floor", "lcm"]),
    )
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    def test_exact_sup_against_dense_grid_property(self, p, ahat, alpha, variant):
        self._check_against_dense_grid(np.array(p), ahat, alpha, variant)

    @staticmethod
    def _check_against_dense_grid(p, ahat, alpha, variant):
        # evaluate the estimated map on a dense grid (right limits plus
        # left limits at the jumps) and take the last feasible point
        r = plugin_threshold(p, ahat, alpha, variant=variant)
        sup = r.t if variant == "lcm" else r.diagnostics["sup_exact"]
        gh = ecdf(p, variant)
        ts = np.unique(np.r_[np.linspace(1e-9, 1.0, 200_001), p, np.clip(p - 1e-12, 1e-12, 1)])
        gv = np.asarray(gh.hull(ts)) if variant == "lcm" else np.where(
            np.isin(ts, p), np.asarray(gh(ts)), np.asarray(gh.left(ts)))
        with np.errstate(divide="ignore", invalid="ignore"):
            qv = np.where(gv > 0, (1 - ahat) * ts / np.where(gv > 0, gv, 1), np.inf)
        feasible = ts[qv <= alpha + 1e-12]
        grid_sup = float(feasible.max()) if feasible.size else 0.0
        assert sup == pytest.approx(grid_sup, abs=2e-5)
        assert r.diagnostics["sup_exact"] >= r.t

    def test_hull_over_a_subnormal_gap_warns_nothing(self):
        # the first hull segment spans 5e-324: an infinite slope and a NaN
        # intercept, which the segment's feasibility must absorb silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = plugin_threshold(np.array([5e-324, 1e-300, 0.5]), 0.3, 0.05, "lcm")
        assert (r.t, r.rejected) == (0.05, 2)

    def test_last_crossing_reads_the_last_feasible_piece(self):
        starts, ends = np.array([0.0, 0.2, 0.5]), np.array([0.2, 0.5, 1.0])
        assert _last_crossing(starts, ends, np.zeros(3, bool), 0.3) == (None, 0.0, False)
        # the crossing is kept inside the piece, and its open end is not attained
        assert _last_crossing(starts, ends, [True, True, False], np.array([9.0, 0.3, 9.0])) == (1, 0.3, True)
        assert _last_crossing(starts, ends, [True, True, False], np.array([9.0, 0.1, 9.0])) == (1, 0.2, True)
        assert _last_crossing(starts, ends, [True, True, False], np.inf) == (1, 0.5, False)
        # the last piece runs up to and including its end
        assert _last_crossing(starts, ends, [False, False, True], np.inf) == (2, 1.0, True)

    def test_validation(self, example1):
        with pytest.raises(ValueError):
            plugin_threshold(example1, -0.1, 0.05)
        with pytest.raises(ValueError):
            plugin_threshold(example1, 0.2, 0.0)
        est = NullFractionEstimate(value=1.2, method="bogus")
        with pytest.raises(ValueError):
            plugin_threshold(example1, est, 0.05)
        for ahat in (0.5, 1.0):
            with pytest.raises(ValueError, match="unknown ECDF variant"):
                plugin_threshold(example1, ahat, 0.05, variant="bogus")


class TestRateCeiling:
    MODEL = MixtureModel(0.25, make_family("one-sided-normal", {"theta": 3.0}))

    def test_half_level_hits_population_point_exactly(self):
        r = rate_ceiling_known_a(self.MODEL, 1000, 0.05, 0.5)
        assert r.t == r.diagnostics["t_c"]
        assert q_map(self.MODEL)(r.t) == pytest.approx(0.05, abs=1e-9)

    def test_back_off_shrinks_with_sample_size(self):
        t_small = rate_ceiling_known_a(self.MODEL, 100, 0.05, 0.05).t
        t_big = rate_ceiling_known_a(self.MODEL, 10_000, 0.05, 0.05).t
        t_c = rate_ceiling_known_a(self.MODEL, 10_000, 0.05, 0.05).diagnostics["t_c"]
        assert t_small < t_big < t_c
        t_huge = rate_ceiling_known_a(self.MODEL, 10**12, 0.05, 0.05).t
        assert t_huge == pytest.approx(t_c, abs=1e-5)

    def test_back_off_formula_components(self):
        from scipy.special import ndtri

        r = rate_ceiling_known_a(self.MODEL, 1000, 0.05, 0.05)
        d = r.diagnostics
        want = d["t_c"] - ndtri(0.95) * d["sd"] / (d["slope"] * np.sqrt(1000))
        assert r.t == pytest.approx(want, abs=1e-15)
        assert d["slope"] == pytest.approx(
            (1 - self.MODEL.a) - 0.05 * float(self.MODEL.pdf(d["t_c"])), abs=1e-12)

    def test_ceiling_above_terminal_rate_starts_from_one(self):
        r = rate_ceiling_known_a(self.MODEL, 1000, 0.8, 0.05)
        assert r.diagnostics["t_c"] == 1.0

    def test_flat_balance_is_rejected(self):
        flat = MixtureModel(0.5, make_family("square-root", {}))
        with pytest.raises(ValueError, match="decreasing"):
            rate_ceiling_known_a(flat, 1000, 0.9, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_ceiling_known_a(self.MODEL, 0, 0.05, 0.05)
        with pytest.raises(ValueError):
            rate_ceiling_known_a(self.MODEL, 100, 1.0, 0.05)
        with pytest.raises(ValueError):
            rate_ceiling_known_a(self.MODEL, 100, 0.05, 0.0)


class TestBayesClassifier:
    def test_converges_to_population_crossing(self):
        # at equal weights the marginal density crosses 1 where the
        # alternative density does; for the unit-shift-by-3 family that is
        # the standard-normal tail value at -1.5
        from fdpkit.simulation import ScenarioConfig, generate_sample

        cfg = ScenarioConfig(m=50_000, a=0.5, family="one-sided-normal",
                             params={"theta": 3.0}, seed=11)
        for rep in range(3):
            r = bayes_classifier_threshold(generate_sample(cfg, rep).pvalues)
            assert r.t == pytest.approx(0.0668072, abs=0.06)

    def test_threshold_is_last_grid_point_above_one(self):
        g = stream(909)
        p = np.clip(g.random(2000) ** 2, 1e-9, 1.0)  # skewed toward zero
        r = bayes_classifier_threshold(p, bandwidth=0.05)
        from fdpkit.estimation import kernel_density

        grid, dens = kernel_density(p, 0.05)
        assert r.t == grid[dens > 1.0].max()
        assert r.rejected == int(np.sum(p <= r.t))
        assert r.diagnostics["bandwidth"] == 0.05

    def test_bandwidth_validated(self):
        for h in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth must be positive"):
                bayes_classifier_threshold(np.linspace(0.01, 0.99, 50), h)


class TestRejectionSetNesting:
    def test_single_step_and_step_up_order(self):
        g = stream(910)
        for _ in range(50):
            m = int(g.integers(3, 40))
            p = np.clip(g.random(m) * g.random(), 1e-9, 1.0)
            bonf = simple_thresholds(p, 0.05, "bonferroni")
            bh = bh_threshold(p, 0.05)
            unc = simple_thresholds(p, 0.05, "uncorrected")
            # all three reject prefixes of the sorted sample, so count
            # ordering is set containment (thresholds need not be ordered:
            # the per-test cut can sit above an attained step-up point)
            assert bonf.rejected <= bh.rejected <= unc.rejected
            assert bh.t <= unc.t + 1e-15
