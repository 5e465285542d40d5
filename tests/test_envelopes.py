"""Envelope checks.

The exact construction is validated against brute enumeration of every
candidate labeling (2^m of them) run through an independently coded
acceptance rule, the asymptotic band against its defining algebra, and the
critical values against the closed-form order-statistic law.
"""

import importlib.util
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fdpkit import _brownian_table as table
from fdpkit import envelopes
from fdpkit.envelopes import (
    _bridge_sups,
    _geometric_grid,
    _order_quantile,
    _sup_quantile,
    asymptotic_envelope,
    brownian_sup_quantile,
    confidence_thresholds,
    exact_confidence_set,
    exact_envelope,
    m10_envelope,
    uniformity_critical_value,
    uniformity_test_second_order,
)
from fdpkit.estimation import ecdf
from fdpkit.model import fdp_process
from fdpkit.rng import stream
from fdpkit.simulation import ScenarioConfig, generate_sample


def brute_accepted_labelings(p, alpha):
    """Every 0/1 labeling whose null part passes the second-smallest rule,
    with the critical value taken straight from the order-statistic law."""
    m = len(p)
    crit = {k: stats.beta.ppf(alpha, 2, k - 1) for k in range(2, m + 1)}
    out = []
    for mask in range(2 ** m):
        lab = np.array([(mask >> i) & 1 for i in range(m)])
        nulls = np.sort(p[lab == 0])
        if nulls.size <= 1 or nulls[1] > crit[nulls.size]:
            out.append(lab)
    return out


def brute_envelope_values(p, accepted, ts):
    p = np.asarray(p)
    gammas, counts = [], []
    for t in ts:
        r = int(np.sum(p <= t))
        j = max(int(np.sum(p[lab == 0] <= t)) for lab in accepted)
        counts.append(j)
        gammas.append(j / max(r, 1))
    return np.array(gammas), np.array(counts)


_pvalue = st.one_of(st.sampled_from([0.0, 0.125, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(p=st.lists(_pvalue, min_size=1, max_size=10), alpha=st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
def test_exact_routes_match_label_enumeration(p, alpha):
    # random levels, ties and p-values of exactly 0 and 1 against every
    # labeling run through the independently coded acceptance rule
    p = np.array(p)
    m = p.size
    accepted = brute_accepted_labelings(p, alpha)
    cs = exact_confidence_set(p, alpha)
    keys = {lab.tobytes() for lab in accepted}
    for mask in range(2 ** m):
        lab = np.array([(mask >> i) & 1 for i in range(m)])
        assert cs.contains(lab) == (lab.tobytes() in keys)
    ks = sorted(m - lab.sum() for lab in accepted)
    assert cs.m0_interval == (ks[0], ks[-1])
    env = exact_envelope(cs, p)
    distinct = np.unique(p)
    ts = np.unique(np.r_[0.0, distinct, distinct - 1e-12, (distinct[:-1] + distinct[1:]) / 2, 1.0])
    ts = ts[(ts >= 0.0) & (ts <= 1.0)]
    want_g, want_j = brute_envelope_values(p, accepted, ts)
    np.testing.assert_allclose(np.asarray(env.gamma_bar(ts)), want_g, atol=1e-12)
    np.testing.assert_allclose(np.asarray(m10_envelope(env, m)(ts)), want_j, atol=1e-12)


class TestUniformityTest:
    def test_critical_value_matches_order_statistic_law(self):
        # second smallest of k uniforms follows Beta(2, k - 1)
        for k in range(2, 41):
            for alpha in (0.01, 0.05, 0.2):
                want = stats.beta.ppf(alpha, 2, k - 1)
                assert uniformity_critical_value(k, alpha) == pytest.approx(want, abs=1e-12)

    def test_critical_value_matches_mpmath_roots(self):
        # 50-digit roots of 1 - (1 - c)^k - k c (1 - c)^(k - 1) = alpha,
        # bracketed on (0, 50 / k) where the left side climbs from -alpha
        import mpmath

        for k in (2, 10, 1000, 100_000):
            for alpha in (0.01, 0.05, 0.2):
                with mpmath.workdps(50):
                    a, kk = mpmath.mpf(alpha), mpmath.mpf(k)

                    def h(c):
                        return 1 - (1 - c) ** kk - kk * c * (1 - c) ** (kk - 1) - a

                    root = mpmath.findroot(h, (mpmath.mpf(0), min(mpmath.mpf(1), 50 / kk)),
                                           solver="anderson")
                want = float(root)
                # abs=0: the default absolute slack of 1e-12 would hide any
                # relative error on critical values near 1e-6
                assert uniformity_critical_value(k, alpha) == pytest.approx(want, rel=1e-13, abs=0)

    def test_pair_critical_value_is_root_alpha(self):
        assert uniformity_critical_value(2, 0.05) == pytest.approx(np.sqrt(0.05), abs=1e-12)

    def test_small_subsets_never_rejected(self):
        assert uniformity_critical_value(0, 0.05) == -np.inf
        assert uniformity_critical_value(1, 0.05) == -np.inf
        assert uniformity_test_second_order(np.array([]), 0.05).accept
        assert uniformity_test_second_order(np.array([0.001]), 0.05).accept

    def test_borderline_pair_is_rejected(self):
        r = uniformity_test_second_order(np.array([0.1, 0.2]), 0.05)
        assert not r.accept
        assert r.statistic == 0.2
        assert r.critical == pytest.approx(np.sqrt(0.05), abs=1e-12)

    def test_size_at_ten(self):
        # rejection rate of a true uniform sample sits at the level
        g = stream(77)
        second = np.partition(g.random((100_000, 10)), 1, axis=1)[:, 1]
        rate = np.mean(second <= uniformity_critical_value(10, 0.05))
        assert rate == pytest.approx(0.05, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniformity_critical_value(-1, 0.05)
        with pytest.raises(ValueError):
            uniformity_critical_value(5, 1.0)
        with pytest.raises(ValueError):
            uniformity_test_second_order(np.array([[0.1]]), 0.05)
        with pytest.raises(ValueError):
            uniformity_test_second_order(np.array([0.1, 1.5]), 0.05)


class TestExactConfidenceSet:
    def test_membership_matches_brute_enumeration(self):
        g = stream(911)
        for _ in range(12):
            m = int(g.integers(4, 9))
            p = np.clip(g.random(m) * float(g.uniform(0.2, 1.0)), 1e-9, 1.0)
            if g.random() < 0.4:
                p = np.ceil(p * 8) / 8  # ties
            cs = exact_confidence_set(p, 0.1)
            accepted = brute_accepted_labelings(p, 0.1)
            keys = {lab.tobytes() for lab in accepted}
            for mask in range(2 ** m):
                lab = np.array([(mask >> i) & 1 for i in range(m)])
                assert cs.contains(lab) == (lab.tobytes() in keys)
            assert set(cs.accepted_summaries) == {int(m - lab.sum()) for lab in accepted}
            ks = sorted(m - lab.sum() for lab in accepted)
            assert cs.m0_interval == (ks[0], ks[-1])

    def test_all_alternatives_always_contained(self):
        g = stream(912)
        for _ in range(10):
            p = np.clip(g.random(8), 1e-9, 1.0)
            cs = exact_confidence_set(p, 0.05)
            assert cs.contains(np.ones(8, dtype=int))
            assert 0 in cs.accepted_summaries

    def test_example_accepted_sizes(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        assert cs.accepted_summaries == tuple(range(8))
        assert cs.m0_interval == (0, 7)

    def test_contains_validation(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        with pytest.raises(ValueError):
            cs.contains(np.zeros(7))
        with pytest.raises(ValueError):
            cs.contains(np.full(15, 2))

    def test_alpha_validation(self, example1):
        with pytest.raises(ValueError):
            exact_confidence_set(example1, 0.0)


class TestExactEnvelope:
    def test_matches_brute_enumeration(self):
        g = stream(913)
        samples = []
        for _ in range(10):
            m = int(g.integers(4, 11))
            p = np.clip(g.random(m) * float(g.uniform(0.2, 1.0)), 1e-9, 1.0)
            if g.random() < 0.4:
                p = np.ceil(p * 8) / 8
            samples.append(p)
        # edge inputs: m in {1, 2}, p-values of exactly 0 and 1, all values tied
        samples += [np.array(v, dtype=float) for v in (
            [0.3], [0.0], [1.0], [0.0, 1.0], [0.2, 0.2], [0.0, 0.0, 0.4, 1.0, 1.0],
            [0.001] * 7, [1.0] * 5,
        )]
        for p in samples:
            m = p.size
            cs = exact_confidence_set(p, 0.1)
            env = exact_envelope(cs, p)
            accepted = brute_accepted_labelings(p, 0.1)
            distinct = np.unique(p)
            ts = np.unique(np.r_[0.0, distinct, distinct - 1e-12, (distinct[:-1] + distinct[1:]) / 2, 1.0])
            ts = ts[(ts >= 0.0) & (ts <= 1.0)]
            want_g, want_j = brute_envelope_values(p, accepted, ts)
            np.testing.assert_allclose(np.asarray(env.gamma_bar(ts)), want_g, atol=1e-12)
            j_fn = m10_envelope(env, m)
            np.testing.assert_allclose(np.asarray(j_fn(ts)), want_j, atol=1e-12)
            np.testing.assert_allclose(np.asarray(env.v_fn(ts)), want_j / m, atol=1e-12)

    def test_example_envelope_values(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        env = exact_envelope(cs, example1)
        gam = env.gamma_bar
        assert gam(0.0095) == pytest.approx(0.25, abs=1e-12)
        assert gam(0.324) == pytest.approx(0.2, abs=1e-12)
        assert gam(0.4262 - 1e-9) == pytest.approx(0.2, abs=1e-12)
        assert gam(0.4262) == pytest.approx(3 / 11, abs=1e-12)
        # never below 0.05 anywhere in the envelope's domain
        lo = env.meta["domain"][0]
        ts = np.unique(np.r_[np.linspace(lo, 1.0, 4001), example1])
        assert np.min(np.asarray(gam(ts))) >= 0.05
        assert env.t_min == example1.min()

    def test_envelope_dominates_realized_fdp_when_truth_is_contained(self):
        cfg = ScenarioConfig(m=60, a=0.3, family="one-sided-normal",
                             params={"theta": 2.5}, seed=22)
        checked = 0
        for rep in range(20):
            s = generate_sample(cfg, rep)
            cs = exact_confidence_set(s.pvalues, 0.05)
            if not cs.contains(s.labels):
                continue
            checked += 1
            env = exact_envelope(cs, s.pvalues)
            fdp = fdp_process(s)
            ts = np.unique(np.r_[s.pvalues, s.pvalues - 1e-12, 0.0, 1.0])
            ts = ts[(ts >= 0) & (ts <= 1)]
            assert np.all(np.asarray(env.gamma_bar(ts)) >= np.asarray(fdp(ts)) - 1e-12)
        assert checked > 10  # the guarantee makes non-containment rare

    def test_mismatched_pvalues_rejected(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        with pytest.raises(ValueError, match="different p-values"):
            exact_envelope(cs, np.clip(example1 / 2, 1e-9, 1.0))

    def test_count_mismatch_rejected(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        env = exact_envelope(cs, example1)
        with pytest.raises(ValueError, match="m="):
            m10_envelope(env, 14)


class TestExactThresholds:
    def test_example_min_rate(self, example1):
        env = exact_envelope(exact_confidence_set(example1, 0.05), example1)
        r = confidence_thresholds(env)
        assert r.t == pytest.approx(0.324, abs=1e-12)
        assert r.z == pytest.approx(1 / 9, abs=1e-12)
        assert not r.inclusive
        assert r.rejected == 9
        assert r.method == "min-rate"

    def test_example_rate_ceilings(self, example1):
        env = exact_envelope(exact_confidence_set(example1, 0.05), example1)
        quarter = confidence_thresholds(env, 0.25)
        assert quarter.t == pytest.approx(0.4262, abs=1e-12)
        assert not quarter.inclusive
        assert quarter.rejected == 10
        everything = confidence_thresholds(env, 1.0)
        assert everything.t == 1.0 and everything.inclusive and everything.rejected == 15
        nothing = confidence_thresholds(env, 0.05)
        assert nothing.t == 0.0 and not nothing.inclusive and nothing.rejected == 0

    def test_degenerate_sample_keeps_rate_one(self):
        p = np.full(10, 0.9)
        env = exact_envelope(exact_confidence_set(p, 0.05), p)
        r = confidence_thresholds(env)
        assert r.z == 1.0 and r.t == 1.0 and r.inclusive
        assert confidence_thresholds(env, 0.5).t == 0.0

    def test_min_rate_matches_brute_scan(self):
        g = stream(914)
        for _ in range(10):
            m = int(g.integers(4, 11))
            p = np.clip(g.random(m) * float(g.uniform(0.2, 1.0)), 1e-9, 1.0)
            cs = exact_confidence_set(p, 0.1)
            env = exact_envelope(cs, p)
            r = confidence_thresholds(env)
            lo = env.meta["domain"][0]
            ts = np.unique(np.r_[np.linspace(lo, 1.0, 3001), p[p >= lo]])
            vals = np.asarray(env.gamma_bar(ts))
            assert r.z == pytest.approx(vals.min(), abs=1e-12)
            # nothing beyond t attains the minimum
            assert np.all(vals[ts > r.t] > r.z - 1e-12)
            if not r.inclusive:
                assert np.all(vals[ts > r.t] > r.z)


class TestBrownianQuantile:
    def test_reproducible_spot_value(self):
        got = brownian_sup_quantile(0.025, 1e-4, 256, 10_000, seed=0)
        assert got == pytest.approx(3.093699921707, abs=1e-9)

    def test_seed_stability(self):
        ws = [brownian_sup_quantile(0.025, 0.001, 1024, 20_000, seed=s) for s in range(3)]
        assert all(2.95 <= w <= 3.11 for w in ws)
        assert max(ws) - min(ws) < 0.06

    def test_monotone_in_tail_level(self):
        lo = brownian_sup_quantile(0.05, 0.001, 512, 10_000, seed=3)
        hi = brownian_sup_quantile(0.01, 0.001, 512, 10_000, seed=3)
        assert hi > lo

    def test_bridge_pins_to_zero_at_one(self):
        assert brownian_sup_quantile(0.025, 1.0, 1, 10_000) == 0.0

    def test_cache_is_bounded(self):
        from fdpkit.envelopes import _brownian_sup_mc

        first = brownian_sup_quantile(0.025, 0.01, 4, 10_000, seed=100)
        for seed in range(101, 112):
            brownian_sup_quantile(0.025, 0.01, 4, 10_000, seed=seed)
            assert _brownian_sup_mc.cache_info().currsize <= 8
        assert brownian_sup_quantile(0.025, 0.01, 4, 10_000, seed=100) == first  # evicted, recomputed
        hits = _brownian_sup_mc.cache_info().hits
        assert brownian_sup_quantile(0.025, 0.01, 4, 10_000, seed=100) == first
        assert _brownian_sup_mc.cache_info().hits == hits + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.0, 0.001)
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.025, 0.0)
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.025, 0.001, 0)
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.025, 0.001, 256, 5000)


def _generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "brownian_table.py"
    spec = importlib.util.spec_from_file_location("brownian_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FLOORS = np.array([row[0] for row in table.ROWS])
W = np.array([row[1] for row in table.ROWS])        # floors x levels
W_SE = np.array([row[2] for row in table.ROWS])


class TestBrownianTable:
    def test_recorded_parameters_match_the_generator(self):
        gen = _generator()
        assert (table.SEED, table.REPS, table.GRID_LO, table.GRID_SIZE, table.FLOOR_STEP,
                table.ALPHA_HALF) == (gen.SEED, gen.REPS, gen.GRID_LO, gen.GRID_SIZE,
                                      gen.FLOOR_STEP, gen.ALPHA_HALF)
        assert table.REPS >= 200_000
        grid = _geometric_grid(table.GRID_LO, table.GRID_SIZE)
        assert np.diff(np.log(grid)).max() <= 1e-3
        np.testing.assert_array_equal(FLOORS, grid[:: table.FLOOR_STEP])
        assert FLOORS[-1] == 1.0
        # the committed text is exactly what the generator writes
        assert gen.render(table.ROWS) == Path(table.__file__).read_text()

    def test_monotone_in_floor_and_level(self):
        assert np.all(np.diff(W, axis=0) <= 0.0)      # a later floor, a shorter window
        assert np.all(np.diff(W[:-1], axis=1) < 0.0)  # ALPHA_HALF rises, so w falls
        assert np.all(W[-1] == 0.0)                   # the bridge is pinned at 1

    def test_standard_error_is_under_half_that_of_20000_replicates(self):
        # An order-statistic standard error is sqrt(q (1 - q) / n) / f, so the
        # table's should be sqrt(20000 / REPS) = 0.32 times that of a
        # 20000-replicate estimate at every floor and level.  The latter is
        # taken from independent 20000-replicate simulations with the same
        # floors, four grid points apart, averaged over four seeds: one
        # seed's estimate varies by about 16 % at alpha = 0.01 (its interval
        # spans 39 order statistics), too much to hold each floor to 0.5.
        step = 4
        size = (table.GRID_SIZE - 1) // table.FLOOR_STEP * step + 1
        grid = _geometric_grid(table.GRID_LO, size)
        fresh = np.zeros_like(W_SE)
        for seed in range(1, 5):
            sups = np.sort(_bridge_sups(grid, np.arange(0, size, step), 20_000, seed), axis=0)
            fresh += [[_order_quantile(col, 1.0 - a)[1] for a in table.ALPHA_HALF]
                      for col in sups.T]
        ratio = W_SE[:-1] / (fresh[:-1] / 4)    # the last floor, t = 1, has w = 0 exactly
        assert np.all(ratio <= 0.5), ratio.max(axis=0)
        med = np.median(ratio, axis=0)
        assert np.all((0.25 <= med) & (med <= 0.4)), med

    @pytest.mark.parametrize("t_min", [1e-4, 0.0364, 0.176])
    def test_agrees_with_a_fresh_monte_carlo(self, t_min):
        w, se, source = _sup_quantile(0.025, t_min, None, None, 0)
        assert source == "table"
        assert w == brownian_sup_quantile(0.025, t_min)
        w_mc, se_mc, source_mc = _sup_quantile(0.025, t_min, 2048, 20_000, 0)
        assert source_mc == "monte-carlo"
        assert abs(w - w_mc) <= 3.0 * np.hypot(se, se_mc)

    def test_between_floors_reads_the_lower_one(self):
        for k in (0, 96, 150, 191):
            lo, hi = FLOORS[k], FLOORS[k + 1]
            for t in (np.sqrt(lo * hi), np.nextafter(hi, 0.0)):
                assert brownian_sup_quantile(0.025, t) == W[k, 1]
                assert _sup_quantile(0.005, t, None, None, 0)[1] == W_SE[k, 0]
            assert brownian_sup_quantile(0.1, hi) == W[k + 1, 3]
        assert brownian_sup_quantile(0.025, 1.0) == 0.0

    def test_every_fallback_runs_the_monte_carlo(self, monkeypatch):
        calls = []

        def fake(*args):
            calls.append(args)
            return 1.5, 0.25

        monkeypatch.setattr(envelopes, "_brownian_sup_mc", fake)
        cases = [
            ((0.03, 1e-3, None, None, 0), (0.03, 1e-3, 2048, 20000, 0)),      # another level
            ((0.025, 5e-9, None, None, 0), (0.025, 5e-9, 2048, 20000, 0)),    # below the first floor
            ((0.025, 1e-3, 512, None, 0), (0.025, 1e-3, 512, 20000, 0)),      # explicit grid
            ((0.025, 1e-3, None, 30_000, 7), (0.025, 1e-3, 2048, 30000, 7)),  # explicit reps
        ]
        for args, want in cases:
            assert _sup_quantile(*args) == (1.5, 0.25, "monte-carlo")
            assert calls[-1] == want
        for seed in (0, 7):                     # a seed alone keeps the table
            assert _sup_quantile(0.025, 1e-3, None, None, seed)[2] == "table"
        assert len(calls) == len(cases)
        p = np.linspace(0.01, 0.99, 100)
        env = asymptotic_envelope(p, t_min=1e-3, enforce_floor=False,
                                  quantile_grid_size=512, quantile_seed=3)
        assert (env.meta["w"], env.meta["w_se"], env.meta["w_source"]) == (1.5, 0.25, "monte-carlo")
        assert calls[-1] == (0.025, 1e-3, 512, 20000, 3)
        env = asymptotic_envelope(p, t_min=1e-3, enforce_floor=False, quantile_seed=3)
        assert env.meta["w_source"] == "table"

    def test_envelope_reads_w_through_the_public_quantile(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return brownian_sup_quantile(*args)

        monkeypatch.setattr(envelopes, "brownian_sup_quantile", spy)
        env = asymptotic_envelope(np.linspace(0.01, 0.99, 100), t_min=1e-3, enforce_floor=False)
        assert calls == [(0.025, 1e-3, None, None, 0)]
        assert env.meta["w"] == brownian_sup_quantile(0.025, 1e-3)

    def test_generator_at_tiny_size_reproduces_the_monte_carlo(self):
        rows = _generator().build(grid_lo=1e-4, grid_size=256, floor_step=256, reps=10_000,
                                  seed=0, alpha_half=(0.025,))
        assert len(rows) == 1 and rows[0][0] == 1e-4
        assert rows[0][1][0] == brownian_sup_quantile(0.025, 1e-4, 256, 10_000, seed=0)


@pytest.fixture(scope="module")
def asym_sample():
    cfg = ScenarioConfig(m=5000, a=0.25, family="one-sided-normal",
                         params={"theta": 3.0}, seed=21)
    return generate_sample(cfg, 0).pvalues


@pytest.fixture(scope="module")
def asym_env(asym_sample):
    return asymptotic_envelope(asym_sample, t_min=1e-4, enforce_floor=False)


class TestAsymptoticEnvelope:
    def test_band_recomputes_from_documented_pieces(self, asym_sample, asym_env):
        meta = asym_env.meta
        gh = ecdf(asym_sample, "plain")
        m = asym_sample.size
        for t in (1e-4, 0.001, 0.01, 0.2, 0.7, 1.0):
            v = meta["one_minus_a0"] * t + meta["delta"] * np.sqrt(t / m)
            want = min(v / float(gh(t)), 1.0) if gh(t) > 0 else np.inf
            assert asym_env.gamma_at(t) == pytest.approx(want, rel=1e-12)
            assert asym_env.count_bound_at(t) == pytest.approx(m * asym_env.v_at(t), rel=1e-12)

    def test_half_width_constant_take_the_larger_term(self, asym_sample):
        env = asymptotic_envelope(asym_sample, t_min=1e-4, enforce_floor=False, w=10.0)
        meta = env.meta
        tail = np.sqrt(2.0) / 0.5 * np.sqrt(np.log(4.0 / 0.05))
        assert meta["delta"] == pytest.approx(max(2 * meta["one_minus_a0"] * 10.0, tail), abs=1e-12)

    def test_tail_term_dominates_when_no_large_pvalues(self):
        p = np.linspace(0.001, 0.4, 500)  # empirical CDF hits 1 before t0
        env = asymptotic_envelope(p, t_min=1e-3, enforce_floor=False, w=3.0)
        assert env.meta["one_minus_a0"] == 0.0
        tail = np.sqrt(2.0) / 0.5 * np.sqrt(np.log(80.0))
        assert env.meta["delta"] == pytest.approx(tail, abs=1e-12)
        assert env.meta["delta"] == pytest.approx(5.9207, abs=1e-3)

    def test_band_never_exceeds_one_and_is_undefined_below_floor(self, asym_env):
        ts = np.linspace(1e-4, 1.0, 2001)
        vals = np.asarray(asym_env.gamma_bar(ts))
        assert np.all(vals <= 1.0 + 1e-15)
        assert np.isnan(asym_env.gamma_at(1e-5))
        with pytest.raises(ValueError):
            asym_env.gamma_at(1.5)

    def test_count_path_identity(self, asym_sample, asym_env):
        m = asym_sample.size
        meta = asym_env.meta
        counts = m10_envelope(asym_env, m)
        for t in (0.001, 0.05, 0.3):
            gap = counts(t) - m * meta["one_minus_a0"] * t
            assert gap == pytest.approx(meta["delta"] * np.sqrt(t * m), rel=1e-12)
        with pytest.raises(ValueError):
            m10_envelope(asym_env, m + 1)

    def test_duplicating_the_sample_tightens_the_band(self):
        g = stream(915)
        p = np.clip(g.random(300), 1e-9, 1.0)
        kw = dict(t_min=0.01, enforce_floor=False, w=3.0)
        env1 = asymptotic_envelope(p, **kw)
        env4 = asymptotic_envelope(np.tile(p, 4), **kw)
        ts = np.linspace(0.01, 1.0, 400)
        v1 = np.asarray(env1.gamma_bar(ts))
        v4 = np.asarray(env4.gamma_bar(ts))
        assert np.all(v4 <= v1 + 1e-12)

    def test_meta_records_where_w_came_from(self, asym_sample, asym_env):
        row = table.ROWS[np.searchsorted(FLOORS, 1e-4, side="right") - 1]
        assert row[0] == 1e-4
        assert asym_env.meta["w_source"] == "table"
        assert (asym_env.meta["w"], asym_env.meta["w_se"]) == (row[1][1], row[2][1])
        given = asymptotic_envelope(asym_sample, t_min=1e-4, enforce_floor=False, w=3.0)
        assert (given.meta["w"], given.meta["w_se"], given.meta["w_source"]) == (3.0, None, "given")

    def test_floor_enforcement(self):
        p = np.linspace(0.01, 0.99, 1000)  # (log m)^4 / m > 1 at m = 1000
        with pytest.raises(ValueError, match="no valid evaluation window") as window:
            asymptotic_envelope(p)
        with pytest.raises(ValueError, match="small-t floor") as below:
            asymptotic_envelope(p, t_min=np.float64(0.001))
        assert "= 2.2769" in str(window.value)
        for err in (window, below):
            assert "np.float64" not in str(err.value)
        with pytest.raises(ValueError, match="explicit t_min"):
            asymptotic_envelope(p, enforce_floor=False)
        env = asymptotic_envelope(p, t_min=0.001, enforce_floor=False)
        assert env.t_min == 0.001
        # at m = 1 the floor is 0: the error names it, not a t_min never given
        with pytest.raises(ValueError, match=r"small-t floor \(log m\)\^4 / m = 0\.0 "):
            asymptotic_envelope([0.3])
        assert asymptotic_envelope([0.3], t_min=0.01, w=3.0).t_min == 0.01
        # a floor below 1 with a given t_min of 1 or more: the error names t_min
        with pytest.raises(ValueError, match=r"^t_min must lie in \(0, 1\)$"):
            asymptotic_envelope(np.linspace(0.001, 1.0, 10_000), t_min=1.5)

    def test_floor_default_when_attainable(self):
        g = stream(916)
        p = np.clip(g.random(200_000), 1e-12, 1.0)
        env = asymptotic_envelope(p, quantile_reps=10_000, quantile_grid_size=512)
        want = np.log(200_000) ** 4 / 200_000
        assert env.t_min == pytest.approx(want, rel=1e-12)

    def test_parameter_validation(self, asym_sample):
        with pytest.raises(ValueError):
            asymptotic_envelope(asym_sample, t0=1.0, t_min=1e-4, enforce_floor=False)
        with pytest.raises(ValueError):
            asymptotic_envelope(asym_sample, alpha=0.0, t_min=1e-4, enforce_floor=False)
        with pytest.raises(ValueError):
            asymptotic_envelope(asym_sample, t_min=1.5, enforce_floor=False)


class TestAsymptoticThresholds:
    def test_rate_ceiling_solves_the_crossing(self, asym_env):
        r = confidence_thresholds(asym_env, 0.05)
        assert 0.0 < r.t < 1.0
        band_at = asym_env.gamma_at(r.t)
        if r.inclusive:
            assert band_at == pytest.approx(0.05, rel=1e-9)
        else:
            assert asym_env.gamma_at(r.t - 1e-9) <= 0.05 + 1e-9
            assert band_at > 0.05
        assert r.method == "rate-ceiling"
        assert r.z == 0.05

    def test_rate_ceiling_extremes(self, asym_env):
        assert confidence_thresholds(asym_env, 0.999).t == 1.0
        ts = np.linspace(1e-4, 1.0, 2001)
        floor_val = float(np.nanmin(np.asarray(asym_env.gamma_bar(ts))))
        assert confidence_thresholds(asym_env, floor_val / 10).t == 0.0

    def test_ceiling_at_or_above_one_takes_everything(self):
        # the band is clipped at 1, so a ceiling c >= 1 holds on all of
        # [t_min, 1]; the crossing of the unclipped curve must not be used
        p = np.random.default_rng(5).uniform(size=50)
        asym = asymptotic_envelope(p, t_min=0.01, w=3.0, enforce_floor=False)
        exact = exact_envelope(exact_confidence_set(p, 0.05), p)
        for env in (asym, exact):
            for c in (1.0, 2.0):
                r = confidence_thresholds(env, c)
                assert (r.t, r.inclusive, r.rejected, r.z) == (1.0, True, 50, c)

    def test_ceiling_at_or_below_zero_rejects_nothing(self):
        # the band is positive, so no piece meets c <= 0; at c < 0 the
        # root has no real solution and must stay silent
        p = np.random.default_rng(5).uniform(size=50)
        asym = asymptotic_envelope(p, t_min=0.01, w=3.0, enforce_floor=False)
        exact = exact_envelope(exact_confidence_set(p, 0.05), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for env, c in itertools.product((asym, exact), (-0.1, 0.0)):
                r = confidence_thresholds(env, c)
                assert (r.t, r.inclusive, r.rejected, r.z) == (0.0, False, 0, c)

    def test_non_finite_ceiling_is_refused(self):
        p = np.random.default_rng(5).uniform(size=50)
        asym = asymptotic_envelope(p, t_min=0.01, w=3.0, enforce_floor=False)
        exact = exact_envelope(exact_confidence_set(p, 0.05), p)
        for env in (asym, exact):
            for c in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    confidence_thresholds(env, c)

    def test_min_rate_attains_the_minimum(self, asym_env):
        r = confidence_thresholds(asym_env)
        assert r.method == "min-rate"
        assert asym_env.gamma_at(r.t) == pytest.approx(r.z, rel=1e-12)
        ts = np.linspace(1e-4, 1.0, 5001)
        assert float(np.nanmin(np.asarray(asym_env.gamma_bar(ts)))) >= r.z - 1e-12

    def test_crossing_matches_mpmath_root(self):
        # every inclusive interior ceiling threshold is the root of
        # (1 - a0) t + delta sqrt(t / m) = c Ghat(t), here solved to 50 digits
        import mpmath

        g = stream(917)
        checked = 0
        for _ in range(60):
            m = int(g.choice([30, 100, 1000, 10_000]))
            p = g.random(m) ** float(g.uniform(1.0, 6.0))
            t_min = float(g.choice([1e-8, 1e-6, 1e-4, 1e-2]))
            env = asymptotic_envelope(p, t_min=t_min, enforce_floor=False, w=float(g.uniform(2.0, 4.0)),
                                      t0=float(g.uniform(0.2, 0.8)))
            gh = ecdf(p, "plain")
            for c in (0.01, 0.05, 0.2, 0.6):
                r = confidence_thresholds(env, c)
                if not (r.inclusive and t_min < r.t < 1.0) or np.any(p == r.t):
                    continue  # not interior: 0, 1, a piece start or a jump
                with mpmath.workdps(50):
                    a = mpmath.mpf(env.meta["one_minus_a0"])
                    b = mpmath.mpf(env.meta["delta"]) / mpmath.sqrt(m)
                    rhs = mpmath.mpf(c) * mpmath.mpf(float(gh(r.t)))
                    y = rhs / b if a == 0 else (mpmath.sqrt(b * b + 4 * a * rhs) - b) / (2 * a)
                    want = float(y * y)
                assert r.t == pytest.approx(want, rel=1e-14, abs=0)
                checked += 1
        assert checked >= 100

    def test_thresholds_against_dense_grid(self):
        # the band on a dense grid of [t_min, 1] with every jump of Ghat,
        # plus its left limits at the jumps, as a brute-force oracle
        g = stream(918)
        edge = [
            (np.array([0.3]), 0.01),
            (np.array([0.0, 1.0]), 0.01),
            (np.array([0.0]), 0.2),
            (np.array([1.0]), 0.2),
            (np.full(7, 0.4), 0.05),
            (np.full(5, 1.0), 0.05),
            (np.array([0.0, 0.0, 0.3, 1.0, 1.0]), 1e-6),
            (np.linspace(0.01, 0.3, 40), 0.5),      # t_min above every p-value
            (np.linspace(0.001, 0.4, 200), 1e-4),   # 1 - a0 = 0
            (np.r_[np.linspace(1e-4, 0.4, 8800), np.ones(1200)], 1e-3),  # c = 0.3 feasible only at 1
        ]
        cases = list(edge)
        for _ in range(40):
            p = g.random(int(g.integers(1, 5000))) ** float(g.uniform(1.0, 8.0))
            if g.random() < 0.5:
                p = np.round(p, int(g.integers(2, 5)))  # ties, exact 0s and 1s
            cases.append((p, float(g.choice([1e-6, 1e-3, 0.05, 0.3]))))
        n = 20_001
        for p, t_min in cases:
            env = asymptotic_envelope(p, t_min=t_min, enforce_floor=False, w=float(g.uniform(2.0, 4.0)))
            if p is edge[-2][0]:
                assert env.meta["one_minus_a0"] == 0.0
            gh = ecdf(p, "plain")
            step = (1.0 - t_min) / (n - 1)
            jumps = np.unique(p[p > t_min])
            ts = np.unique(np.r_[np.linspace(t_min, 1.0, n), jumps])
            gl = np.asarray(gh.left(jumps))
            with np.errstate(divide="ignore"):
                left = np.minimum(np.asarray(env.v_at(jumps)) / gl, 1.0)
            pts = np.r_[ts, jumps]
            vals = np.r_[np.asarray(env.gamma_bar(ts)), np.where(gl > 0, left, np.inf)]

            r = confidence_thresholds(env)
            assert r.z == pytest.approx(vals.min(), abs=1e-12)
            assert env.gamma_at(r.t) == r.z
            assert np.all(vals[pts > r.t] >= r.z)

            for c in (0.02, 0.1, 0.3, 0.7):
                r = confidence_thresholds(env, c)
                feasible = pts[vals <= c]
                last = float(feasible.max()) if feasible.size else 0.0
                assert abs(r.t - last) <= step
                if r.t == 0.0:          # no t meets c: nothing is rejected
                    assert (r.inclusive, r.rejected) == (False, 0)
                elif r.inclusive:
                    assert env.gamma_at(r.t) <= c * (1 + 1e-12)
                else:
                    assert env.gamma_at(r.t) > c
