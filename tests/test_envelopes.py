"""Envelope checks.

The exact construction is validated against brute enumeration of every
candidate labeling (2^m of them) run through an independently coded
acceptance rule, the asymptotic band against its defining algebra, and the
critical values against the closed-form order-statistic law.
"""

import importlib.util
import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fdpkit import _brownian_table as table
from fdpkit import envelopes
from fdpkit.envelopes import (
    _AsymptoticCurve,
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
from fdpkit.estimation import EcdfEstimate, ecdf
from fdpkit.model import fdp_process
from fdpkit.rng import stream, uniform_open
from fdpkit.simulation import ScenarioConfig, _blocks, generate_sample

from test_spans import masked_thresholds


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


def mp_root(k, alpha, start):
    """The root c_k of h(x) = n log1p(-x) + log1p(n x) - log1p(-alpha),
    n = k - 1, by mpmath's Newton steps from ``start``.  h's terms are about
    sqrt(alpha) and its value about alpha, so the steps run at 50 digits
    beyond the -log10(alpha) that cancel."""
    import mpmath

    with mpmath.workdps(50 + int(-np.log10(alpha))):
        n, L = mpmath.mpf(k - 1), -mpmath.log1p(-mpmath.mpf(alpha))
        x = mpmath.mpf(start)
        for _ in range(6):
            x += (n * mpmath.log1p(-x) + mpmath.log1p(n * x) + L) * (1 - x) * (1 + n * x) / ((n + 1) * n * x)
        return x


def near_root_points(alpha):
    """For 43 sizes k from 2 to 1e6: the doubles x within 4 ulps of the one
    nearest the 50-digit root c_k, their offsets j in ulps, their k, and the
    true verdict x > c_k."""
    import mpmath

    xs, js, ks, truth = [], [], [], []
    for k in np.unique(np.geomspace(2, 1e6, 44).astype(int)):
        root = mp_root(int(k), alpha, uniformity_critical_value(int(k), alpha))
        below = above = float(root)
        x = [below]
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            x = [below, *x, above]
        with mpmath.workdps(50 + int(-np.log10(alpha))):
            truth += [mpmath.mpf(v) > root for v in x]
        xs += x
        js += range(-4, 5)
        ks += [k] * 9
    return np.array(xs), np.array(js), np.array(ks), np.array(truth)


class TestUniformityTest:
    def test_critical_value_matches_order_statistic_law(self):
        # second smallest of k uniforms follows Beta(2, k - 1)
        for k in range(2, 41):
            for alpha in (0.01, 0.05, 0.2):
                want = stats.beta.ppf(alpha, 2, k - 1)
                assert uniformity_critical_value(k, alpha) == pytest.approx(want, abs=1e-12)

    def test_critical_value_matches_mpmath_roots(self):
        # 50-digit roots of 1 - (1 - c)^k - k c (1 - c)^(k - 1) = alpha,
        # bracketed on (0, min(1, 50 / k)) where the left side climbs from
        # -alpha (an unbracketed search can wander off to a complex root, and
        # Anderson's bracketed one stalls at alpha = 0.9); alpha = 1e-10 is
        # where n log1p(-c) + log1p(n c), whose n c terms cancel, is 8e-12 off
        import mpmath

        for k in (2, 3, 10, 1000, 100_000, 1_000_000):
            for alpha in (1e-10, 0.01, 0.05, 0.2, 0.5, 0.9):
                with mpmath.workdps(50):
                    a, kk = mpmath.mpf(alpha), mpmath.mpf(k)

                    def h(c):
                        return 1 - (1 - c) ** kk - kk * c * (1 - c) ** (kk - 1) - a

                    root = mpmath.findroot(h, (mpmath.mpf(0), min(mpmath.mpf(1), 50 / kk)),
                                           solver="illinois")
                want = float(root)
                # abs=0: the default absolute slack of 1e-12 would hide any
                # relative error on critical values near 1e-6
                assert uniformity_critical_value(k, alpha) == pytest.approx(want, rel=1e-13, abs=0)

    def test_critical_value_at_tiny_alpha_is_the_quadratic_root(self):
        # 1 - S(c) = n (n + 1) c^2 / 2 + O(n^3 c^3), so at alpha <= 1e-100 the
        # root is sqrt(2 alpha / (n (n + 1))) to far below double precision
        # (taken as a quotient of roots: 2 alpha / n^2 is subnormal at 1e-300)
        for alpha in (1e-100, 1e-200, 1e-300):
            for k in (2, 10, 1000, 1_000_000):
                n = k - 1
                want = np.sqrt(2.0 * alpha) / np.sqrt(n * (n + 1.0))
                assert uniformity_critical_value(k, alpha) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [1e-305, 1e-307, 2.2250738585072014e-308, 1e-310, 5e-324])
    def test_critical_value_below_1e300_matches_mpmath_roots(self, alpha):
        # h is solved in its scaled form, every term of which stays normal;
        # unscaled, lpm(-x) (about alpha / n^2) was subnormal and the root at
        # k = 1e6 was 4.4e-11 off at 2.2e-308.  A subnormal alpha is a level
        # like any other.
        for k in (2, 3, 10, 1000, 100_000, 1_000_000):
            got = uniformity_critical_value(k, alpha)
            assert got == pytest.approx(float(mp_root(k, alpha, got)), rel=4e-16, abs=0)

    def test_sign_of_h_matches_mpmath_near_each_root(self):
        # the verdict at x = c_k + j ulps, j = -4..4, around the double nearest
        # each 50-digit root of 43 sizes from 2 to 1e6: wrong only within 2 ulps
        # of the root, at every level down to a subnormal one
        wrong_at_five = 0
        for alpha in (0.05, 0.01, 0.5, 1e-10, 1e-300, 1e-305, 1e-307, 2.2250738585072014e-308, 5e-324, 0.9):
            x, j, k, truth = near_root_points(alpha)
            wrong = envelopes._accepts(x, k, alpha) != truth
            assert not np.any(wrong & (np.abs(j) > 2)), (alpha, k[wrong], j[wrong])
            if alpha in (0.05, 0.01, 0.5, 1e-10, 1e-300):
                wrong_at_five += np.count_nonzero(wrong)
        # the comparison it replaced, x > c_k with c_k solved by Newton's method
        # on the unscaled h, was wrong on 170 of these 1935 points
        assert wrong_at_five <= 170

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(2, 1_000_000), min_size=2, max_size=2, unique=True),
           st.lists(st.integers(1, 999), min_size=2, max_size=2, unique=True),
           st.integers(0, 12))
    def test_critical_value_falls_in_k_and_rises_in_alpha(self, ks, levels, scale):
        # distinct k differ by a relative 1e-6 or more in c_k, distinct
        # alphas on this grid by 1e-3: far beyond the 1e-15 error
        k1, k2 = sorted(ks)
        a1, a2 = (v / 1000 * 10.0**-scale for v in sorted(levels))
        assert uniformity_critical_value(k2, a1) < uniformity_critical_value(k1, a1)
        assert uniformity_critical_value(k1, a1) < uniformity_critical_value(k1, a2)

    def test_scalar_critical_value_is_the_confidence_set_entry(self):
        p = stream(5).random(600)
        for alpha in (1e-10, 0.05, 0.5, 0.9):
            crit = exact_confidence_set(p, alpha).crit
            scalar = [uniformity_critical_value(k, alpha) for k in range(p.size + 1)]
            assert np.array_equal(crit, scalar)

    def test_pair_critical_value_is_root_alpha(self):
        assert uniformity_critical_value(2, 0.05) == pytest.approx(np.sqrt(0.05), abs=1e-12)

    def test_small_subsets_never_rejected(self):
        assert uniformity_critical_value(0, 0.05) == -np.inf
        assert uniformity_critical_value(1, 0.05) == -np.inf
        # the vectorized values own sizes 0 and 1, with no warning, and the
        # larger sizes keep their bits
        crit = envelopes._critical_values(np.arange(50), 0.05)
        assert np.array_equal(crit[:2], [-np.inf, -np.inf])
        assert np.array_equal(crit[2:], envelopes._critical_values(np.arange(2, 50), 0.05))
        assert uniformity_test_second_order(np.array([]), 0.05).accept
        assert uniformity_test_second_order(np.array([0.001]), 0.05).accept

    def test_a_pvalue_of_one_is_accepted_without_a_warning(self):
        # h(1) is -inf through log1p(-1), which warns unless silenced
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ([0.3, 1.0], [1.0, 1.0], [0.0, 1.0, 1.0, 1.0]):
                assert uniformity_test_second_order(np.array(p), 0.05).accept
            cs = exact_confidence_set(np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]), 1e-10)
            assert cs.feasible.tolist() == [True] * 6 + [False]
            assert cs.contains(np.array([0, 1, 0, 0, 1, 0]))

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
        for k in (2.5, 3.0, True, False):     # True read as size 1 gave -inf
            with pytest.raises(ValueError, match=f"k must be an integer >= 0, got {k!r}"):
                uniformity_critical_value(k, 0.05)
        assert uniformity_critical_value(np.int64(5), 0.05) == uniformity_critical_value(5, 0.05)
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

    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_rows_are_the_one_subset_rule(self, m, monkeypatch):
        # each row's nulls padded with +inf, its size the count of its nulls
        g, alpha = stream(913, m), 0.2
        p = g.random((120, m))
        p[:40] = np.round(p[:40], 2)               # heavy ties
        p[40:50, 0], p[50:60, -1] = 0.0, 1.0
        lab = g.random((120, m)) < 0.5
        lab[60:70] = True                          # no null
        lab[70:80] = True
        lab[70:80, -1] = False                     # one null
        lab[80:90] = False                         # no alternative
        seen, h_over_y2 = [], envelopes._h_over_y2

        def spy(x, n, L):
            seen.append(x)
            return h_over_y2(x, n, L)

        monkeypatch.setattr(envelopes, "_h_over_y2", spy)
        stat, accept = envelopes._second_order_check(np.where(lab, np.inf, p), alpha)
        # rows of at most one null are accepted before h, which sees no padding
        assert all(np.all(np.isfinite(x)) for x in seen)
        want = [exact_confidence_set(row, alpha).contains(h.astype(int)) for row, h in zip(p, lab)]
        np.testing.assert_array_equal(accept, want)
        if m > 1:
            assert 0 < np.count_nonzero(accept) < len(p)
            tests = [uniformity_test_second_order(row[~h], alpha) for row, h in zip(p, lab)]
            np.testing.assert_array_equal(accept, [r.accept for r in tests])
            big = np.count_nonzero(~lab, axis=-1) >= 2
            np.testing.assert_array_equal(stat[big], [r.statistic for r, b in zip(tests, big) if b])
        else:
            assert stat is None

    def test_contains_validation(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        with pytest.raises(ValueError):
            cs.contains(np.zeros(7))
        with pytest.raises(ValueError):
            cs.contains(np.full(15, 2))

    def test_alpha_validation(self, example1):
        with pytest.raises(ValueError):
            exact_confidence_set(example1, 0.0)

    def test_set_refers_to_the_callers_array(self, example1):
        # a float64 array is kept as given, not copied; a list is read into one
        p = np.asarray(example1, dtype=float)
        cs = exact_confidence_set(p, 0.05)
        assert cs.pvalues is p
        listed = exact_confidence_set(p.tolist(), 0.05)
        assert np.array_equal(listed.pvalues, p) and np.array_equal(listed.feasible, cs.feasible)
        lab = np.zeros(p.size, dtype=int)
        lab[np.argsort(p)[:8]] = 1
        assert listed.contains(lab) == cs.contains(lab) == cs.contains(lab.tolist())


def _tied_samples():
    """Tied inputs over atoms at 0, -0.0, 5e-324 and 1 and on a 0.01 grid,
    with m = 1 and all-tied inputs among them."""
    g = np.random.default_rng(28)
    atoms = np.array([0.0, -0.0, 5e-324, 1.0, 0.125, 0.5])
    samples = [np.array(v, dtype=float) for v in (
        [0.0], [-0.0], [5e-324], [1.0], [0.3], [0.2] * 9, [0.0] * 4, [1.0] * 6,
        [5e-324] * 3, [-0.0, 0.0, 0.0], [0.0, 5e-324, 1e-323, 1.0, 1.0],
    )]
    for _ in range(200):
        m = int(g.integers(1, 40))
        samples.append(np.where(g.random(m) < 0.5, g.choice(atoms, m), np.round(g.random(m), 2)))
    return samples


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

    def test_pairing_is_the_multiset_of_the_pvalues(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        shuffled = np.random.default_rng(3).permutation(example1)
        got, want = exact_envelope(cs, shuffled), exact_envelope(cs, example1)
        knots = want.ghat.base.knots
        np.testing.assert_array_equal(got.ghat.base.knots, knots)
        np.testing.assert_array_equal(got.gamma_bar(knots), want.gamma_bar(knots))
        for other in (example1[1:], np.sort(example1)[:-1], np.r_[example1, 0.7], np.r_[example1, 1.0],
                      np.r_[example1, example1[0]]):
            with pytest.raises(ValueError, match="different p-values"):
                exact_envelope(cs, other)
        # the same distinct values with other tie counts: a run that ends,
        # or one that starts, off its value in the set's sorted p-values
        for built, given_p in (
            ([0.1, 0.1, 0.5], [0.1, 0.5, 0.5]),
            ([0.1, 0.2, 0.2, 0.5], [0.1, 0.1, 0.2, 0.5]),
            ([0.1, 0.1, 0.2, 0.5], [0.1, 0.2, 0.2, 0.5]),
        ):
            with pytest.raises(ValueError, match="different p-values"):
                exact_envelope(exact_confidence_set(np.array(built), 0.05), np.array(given_p))
        # 0.0 and -0.0 are one value, as np.array_equal has them
        zeros = exact_confidence_set(np.array([0.0, 0.0, 0.3]), 0.05)
        for given_p in ([-0.0, 0.0, 0.3], [0.3, -0.0, -0.0]):
            assert exact_envelope(zeros, np.array(given_p)).gamma_bar(0.0) == 0.5

    def test_bits_match_a_unique_built_oracle(self):
        for p in _tied_samples():
            m = p.size
            for alpha in (0.05, 0.5):
                cs = exact_confidence_set(p, alpha)
                env = exact_envelope(cs, p)
                distinct, counts = np.unique(p, return_counts=True)
                r = counts.cumsum()
                j = np.maximum(r - (m - cs.m0_interval[1]), 1).astype(float)
                lead = [] if distinct[0] == 0.0 else [0.0]
                knots = env.ghat.base.knots
                np.testing.assert_array_equal(knots, np.r_[lead, distinct])
                for f, want in ((env.gamma_bar, j / r), (env.v_fn, j / m), (env.count_bound_at, j)):
                    np.testing.assert_array_equal(f(knots), np.r_[lead, want])

    def test_count_mismatch_rejected(self, example1):
        cs = exact_confidence_set(example1, 0.05)
        env = exact_envelope(cs, example1)
        with pytest.raises(ValueError, match="m="):
            m10_envelope(env, 14)


def test_rejected_counts_the_pvalues_up_to_t():
    # both envelopes read rejected off their ECDF; counted here from p
    for p in _tied_samples():
        envs = [exact_envelope(exact_confidence_set(p, alpha), p) for alpha in (0.05, 0.5)]
        envs += [asymptotic_envelope(p, t_min=t_min, w=2.0, enforce_floor=False)
                 for t_min in (5e-324, 0.01, 0.3)]
        for env, c in itertools.product(envs, (None, 0.0, 0.1, 0.3, 0.6, 1.0)):
            r = confidence_thresholds(env, c)
            assert r.rejected == np.count_nonzero(p <= r.t if r.inclusive else p < r.t)


def test_thresholds_match_the_masked_reader():
    # t_min on a knot, below the first knot and at 5e-324, over p-values
    # of exactly 0 and 1 and all-tied inputs
    for p in _tied_samples():
        inner = np.unique(p[(p > 0.0) & (p < 1.0)])
        t_mins = [t for t in (5e-324, 0.01, 0.3, *inner[:1] / 2, *inner[::3]) if t > 0.0]
        envs = [exact_envelope(exact_confidence_set(p, alpha), p) for alpha in (0.05, 0.5)]
        envs += [asymptotic_envelope(p, t0=0.3, t_min=t_min, w=2.0, enforce_floor=False) for t_min in t_mins]
        for env, c in itertools.product(envs, (None, -1.0, 0.0, 0.05, 0.1, 0.3, 0.6, 0.999, 1.0, 2.0)):
            assert confidence_thresholds(env, c) == masked_thresholds(env, c)


def distinct_pvalues():
    """2e5 distinct p-values, a fifth of them crowded towards 0."""
    g = np.random.default_rng(3)
    p = np.where(g.random(200_000) < 0.2, g.random(200_000) ** 6, g.random(200_000))
    assert np.unique(p).size == p.size
    return p


@pytest.mark.parametrize("method, c, budget", [
    ("exact", None, 2), ("exact", 0.3, 2), ("asymptotic", 0.3, 1.5),
], ids=["exact-min-rate", "exact-ceiling", "band-ceiling"])
def test_threshold_memory_budget(traced_memory, method, c, budget):
    # traced peak above the envelope, in input sizes, on distinct p-values:
    # a few spans of the bound and its temporaries, read a span of pieces at
    # a time.  Masking all pieces took 5.3 (exact) and the band's solve on
    # every piece 8.2; whole arrays of the pieces' starts and ends, 2.25
    # (exact) and 2.9 (band)
    p = distinct_pvalues()
    if method == "exact":
        env = exact_envelope(exact_confidence_set(p, 0.05), p)
    else:
        env = asymptotic_envelope(p, t_min=0.01, enforce_floor=False)
    assert confidence_thresholds(env, c).rejected > 0
    assert traced_memory(lambda: confidence_thresholds(env, c))[1] <= budget * p.nbytes


def test_exact_envelope_memory_budget(traced_memory):
    # in input sizes on distinct p-values: the result holds the ECDF's knots
    # and values and no array beside them, and the pairing check works a span
    # of knots at a time (5.0 held and 6.1 at the peak with three stored step
    # functions and whole-array gathers)
    p = distinct_pvalues()
    cs = exact_confidence_set(p, 0.05)
    held, peak = traced_memory(lambda: exact_envelope(cs, p))
    assert exact_envelope(cs, p).t_min == p.min()
    assert held <= 2.25 * p.nbytes
    assert peak <= 3.5 * p.nbytes


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


def _generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "brownian_table.py"
    spec = importlib.util.spec_from_file_location("brownian_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _generator()


def _simulated_quantile(alpha_half, t_floor, grid_size, reps, seed):
    """(w, standard error) of one Monte Carlo with the given settings."""
    sups = gen.bridge_sups(gen.geometric_grid(t_floor, grid_size), [0], reps, seed)
    return gen.order_quantile(np.sort(sups[:, 0]), 1.0 - alpha_half)


class TestStandardNormal:
    def test_top_draw_gives_a_finite_normal(self):
        # random() at its top double, 1 - 2^-53, makes uniform_open exactly 1;
        # standard_normal clips that to 1 - 2^-53 instead of returning inf
        class Top:
            def random(self, size=None):
                return np.full(size, 1.0 - 2.0**-53)

        assert np.array_equal(uniform_open(Top(), 3), np.ones(3))
        z = gen.standard_normal(Top(), (2, 3))
        assert np.all(z == pytest.approx(8.2095361516013868))

    def test_bits_are_the_inverse_cdf_of_uniform_open(self):
        from scipy.special import ndtri

        for size in (None, 1000, (40, 25)):
            assert np.array_equal(gen.standard_normal(stream(9, 2), size),
                                  ndtri(uniform_open(stream(9, 2), size)))


class TestBrownianQuantile:
    def test_reproducible_spot_value(self):
        got = _simulated_quantile(0.025, 1e-4, 256, 10_000, 0)[0]
        assert got == pytest.approx(3.093699921707, abs=1e-9)

    def test_bridge_pins_to_zero_at_one(self):
        assert _sup_quantile(0.015, 1.0) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.0, 0.001)
        with pytest.raises(ValueError):
            brownian_sup_quantile(0.025, 0.0)
        with pytest.raises(TypeError):
            brownian_sup_quantile(0.025, 0.001, 256)
        with pytest.raises(TypeError):
            brownian_sup_quantile(0.025, 0.001, reps=20_000)
        with pytest.raises(TypeError):
            asymptotic_envelope([0.3], t_min=0.01, enforce_floor=False, quantile_seed=3)

    def test_below_the_table_is_an_error_that_names_w(self):
        # each names the smallest value the table serves, as the CLI option too
        with pytest.raises(ValueError, match=r"below the smallest level .* alpha \(--alpha\) it serves is 0\.002; .* w="):
            brownian_sup_quantile(5e-5, 0.01)
        with pytest.raises(ValueError, match=r"below the first floor .* t_min \(--t-min\) it serves is 1e-08; .* w="):
            brownian_sup_quantile(0.025, 5e-9)
        with pytest.raises(ValueError, match="w="):
            asymptotic_envelope(np.linspace(0.01, 0.99, 100), alpha=1e-4, t_min=0.01,
                                enforce_floor=False)


FLOORS, W, W_SE = table.FLOORS, table.W, table.W_SE    # floors x levels


def _level(alpha_half):
    return table.ALPHA_HALF.index(alpha_half)


class TestBrownianTable:
    def test_recorded_parameters_match_the_generator(self):
        assert (table.SEED, table.REPS, table.GRID_LO, table.GRID_SIZE, table.FLOOR_STEP,
                table.ALPHA_HALF) == (gen.SEED, gen.REPS, gen.GRID_LO, gen.GRID_SIZE,
                                      gen.FLOOR_STEP, gen.ALPHA_HALF)
        assert table.REPS >= 200_000
        grid = gen.geometric_grid(table.GRID_LO, table.GRID_SIZE)
        assert np.diff(np.log(grid)).max() <= 1e-3
        np.testing.assert_array_equal(FLOORS, grid[:: table.FLOOR_STEP])
        assert FLOORS[-1] == 1.0
        assert W.shape == W_SE.shape == (FLOORS.size, len(table.ALPHA_HALF))
        # the committed text is exactly what the generator writes, and it
        # reads back to the same doubles; compared line by line, as pytest
        # spends about 38 s diffing the two 127 KB texts when one == fails
        want = gen.render(zip(FLOORS, W, W_SE)).splitlines(keepends=True)
        got = Path(table.__file__).read_text().splitlines(keepends=True)
        for lineno, (wrote, held) in enumerate(itertools.zip_longest(want, got), start=1):
            assert held == wrote, f"line {lineno} of the committed table differs from the generator's"
        cells = [float(x) for x in table._TEXT.split()]
        np.testing.assert_array_equal(np.hstack([FLOORS[:, None], W, W_SE]).ravel(), cells)

    @pytest.mark.parametrize("alpha_half, floor, w, se", [
        (0.005, 1e-8, "3.927307101905487", "0.010865349749961494"),
        (0.025, 1e-4, "3.186789211003235", "0.005017623343972354"),
        (0.05, 0.01, "2.5939353800741163", "0.003729945271793811"),
        (0.1, 1e-6, "2.828604423781731", "0.00278138550189736"),
    ])
    def test_pinned_cells(self, alpha_half, floor, w, se):
        # cells of the four levels the table held before it grew; a rebuild
        # that drifts fails here
        k = int(np.flatnonzero(FLOORS == floor)[0])
        cell = float(W[k, _level(alpha_half)]), float(W_SE[k, _level(alpha_half)])
        assert tuple(map(repr, cell)) == (w, se)
        assert repr(brownian_sup_quantile(alpha_half, floor)) == w

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
        grid = gen.geometric_grid(table.GRID_LO, size)
        fresh = np.zeros_like(W_SE)
        for seed in range(1, 5):
            sups = np.sort(gen.bridge_sups(grid, np.arange(0, size, step), 20_000, seed), axis=0)
            fresh += [[gen.order_quantile(col, 1.0 - a)[1] for a in table.ALPHA_HALF]
                      for col in sups.T]
        ratio = W_SE[:-1] / (fresh[:-1] / 4)    # the last floor, t = 1, has w = 0 exactly
        assert np.all(ratio <= 0.5), ratio.max(axis=0)
        med = np.median(ratio, axis=0)
        assert np.all((0.25 <= med) & (med <= 0.4)), med

    @pytest.mark.parametrize("t_min", [1e-4, 0.0364, 0.176])
    def test_agrees_with_a_fresh_monte_carlo(self, t_min):
        w, se = _sup_quantile(0.025, t_min)
        assert w == brownian_sup_quantile(0.025, t_min)
        w_mc, se_mc = _simulated_quantile(0.025, t_min, 2048, 20_000, 0)
        assert abs(w - w_mc) <= 3.0 * np.hypot(se, se_mc)

    @pytest.mark.parametrize("alpha_half", [0.015, 0.025])
    def test_covers_the_scaled_null_empirical_process(self, alpha_half):
        # A check free of the bridge simulator: for m = 1e4 pure-null
        # p-values, sqrt(m) (G(t) - t) is close to a Brownian bridge, so the
        # sup S of sqrt(m) (G(t) - t) / sqrt(t) over [t_min, 1], reached at
        # t_min or at a p-value p_(i) >= t_min where G = i / m, is at most w
        # with chance near 1 - alpha_half.  At t_min = 0.01, a table floor,
        # m t_min = 100.  The share over 4000 rows must be within three
        # binomial standard errors; w scaled by 0.95 gives z = -6.3 at 0.025.
        t_min, m, reps = 0.01, 10_000, 4000
        w = brownian_sup_quantile(alpha_half, t_min)
        scen = ScenarioConfig(m=m, a=0.0)
        i = np.arange(1, m + 1) / m
        hits = 0
        for p, _ in _blocks(scen, scen.model(), reps):
            p.sort(axis=1)
            jumps = np.where(p >= t_min, (i - p) / np.sqrt(p), -np.inf).max(axis=1)
            at_floor = ((p <= t_min).sum(axis=1) / m - t_min) / np.sqrt(t_min)
            hits += int((np.sqrt(m) * np.maximum(jumps, at_floor) <= w).sum())
        z = (hits / reps - (1.0 - alpha_half)) / np.sqrt(alpha_half * (1.0 - alpha_half) / reps)
        assert abs(z) <= 3.0, z

    def test_between_floors_reads_the_lower_one(self):
        for k in (0, 96, 150, 191):
            lo, hi = FLOORS[k], FLOORS[k + 1]
            for t in (np.sqrt(lo * hi), np.nextafter(hi, 0.0)):
                assert brownian_sup_quantile(0.025, t) == W[k, _level(0.025)]
                assert _sup_quantile(0.005, t)[1] == W_SE[k, _level(0.005)]
            assert brownian_sup_quantile(0.1, hi) == W[k + 1, _level(0.1)]
        assert brownian_sup_quantile(0.025, 1.0) == 0.0

    def test_between_levels_reads_the_lower_one(self):
        k = int(np.flatnonzero(FLOORS == 0.01)[0])
        # halving is exact, so each of these alphas reads its own level
        alphas = (0.002, 0.005, 0.01, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.15,
                  0.2, 0.3, 0.4, 0.5)
        assert [brownian_sup_quantile(a / 2.0, 0.01) for a in alphas] == W[k].tolist()
        assert brownian_sup_quantile(0.035 / 2.0, 0.01) == W[k, _level(0.015)]
        for alpha in (0.6, 0.9, np.nextafter(1.0, 0.0)):
            assert brownian_sup_quantile(alpha / 2.0, 0.01) == W[k, _level(0.25)]
        assert brownian_sup_quantile(np.nextafter(0.001, 1.0), 0.01) == W[k, _level(0.001)]

    def test_envelope_asks_for_the_quantile_once(self, monkeypatch):
        quantiles = []

        def spy_quantile(*args):
            quantiles.append((args, _sup_quantile(*args)))
            return quantiles[-1][1]

        monkeypatch.setattr(envelopes, "_sup_quantile", spy_quantile)
        env = asymptotic_envelope(np.linspace(0.01, 0.99, 100), alpha=0.03, t_min=1e-3,
                                  enforce_floor=False)
        assert [args for args, _ in quantiles] == [(0.015, 1e-3)]
        w, w_se = quantiles[0][1]
        assert (env.meta["w"], env.meta["w_se"], env.meta["w_source"]) == (w, w_se, "table")

    def test_generator_at_tiny_size_reproduces_the_monte_carlo(self):
        rows = gen.build(grid_lo=1e-4, grid_size=256, floor_step=256, reps=10_000,
                         seed=0, alpha_half=(0.025,))
        assert len(rows) == 1 and rows[0][0] == 1e-4
        assert rows[0][1][0] == _simulated_quantile(0.025, 1e-4, 256, 10_000, 0)[0]


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

    def test_band_and_count_path_refuse_nan(self, asym_env):
        for evaluate in (asym_env.gamma_bar, asym_env.v_fn, asym_env.count_bound_at):
            for t in (np.nan, [0.01, np.nan]):
                with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                    evaluate(t)

    def test_count_path_reads_no_ghat(self, monkeypatch, asym_env):
        # V(t) = (1 - a0) t + delta sqrt(t / m) is a function of t alone: only the band's gamma reads Ghat
        calls, ghat_eval = [], EcdfEstimate._eval
        monkeypatch.setattr(EcdfEstimate, "_eval", lambda self, *args: calls.append(self) or ghat_eval(self, *args))
        ts = np.linspace(0.0, 1.0, 101)
        for kind, evaluate in (("v", asym_env.v_fn), ("j", asym_env.count_bound_at)):
            want = replace(asym_env.gamma_bar, kind=kind).values(ts, None)
            assert np.asarray(evaluate(ts)).tobytes() == want.tobytes() and evaluate(0.3) == want[30]
        assert calls == []
        asym_env.gamma_at(0.3)
        assert calls == [asym_env.ghat]

    def test_count_bound_is_m_times_the_count_path(self, asym_sample, asym_env):
        # bit for bit, NaN below t_min included, as an array and as a float
        m = asym_sample.size
        ts = np.r_[0.0, 5e-324, 1e-5, np.linspace(1e-4, 1.0, 501)]
        got = np.asarray(asym_env.count_bound_at(ts))
        assert np.isnan(got[:3]).all() and got.tobytes() == (m * np.asarray(asym_env.v_fn(ts))).tobytes()
        for t in (1e-5, 1e-4, 0.3, 1.0):
            got, want = asym_env.count_bound_at(t), m * asym_env.v_fn(t)
            assert type(got) is float and np.array([got]).tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0])
    def test_w_must_be_positive_and_finite(self, asym_sample, w):
        with pytest.raises(ValueError, match="w must be positive and finite"):
            asymptotic_envelope(asym_sample, t_min=1e-4, enforce_floor=False, w=w)

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
        k = int(np.searchsorted(FLOORS, 1e-4, side="right")) - 1
        assert FLOORS[k] == 1e-4
        assert asym_env.meta["w_source"] == "table"
        assert (asym_env.meta["w"], asym_env.meta["w_se"]) == (W[k, _level(0.025)], W_SE[k, _level(0.025)])
        given = asymptotic_envelope(asym_sample, t_min=1e-4, enforce_floor=False, w=3.0)
        assert (given.meta["w"], given.meta["w_se"], given.meta["w_source"]) == (3.0, None, "given")

    def test_floor_enforcement(self):
        p = np.linspace(0.01, 0.99, 1000)  # (log m)^4 / m > 1 at m = 1000
        with pytest.raises(ValueError, match="no valid evaluation window") as window:
            asymptotic_envelope(p)
        with pytest.raises(ValueError, match="small-t floor") as below:
            asymptotic_envelope(p, t_min=np.float64(0.001))
        assert "= 2.2769" in str(window.value)
        with pytest.raises(ValueError, match=r"= 1\.34\d* is not in \(0, 1\) at m=5"):   # the first m with no window
            asymptotic_envelope(np.linspace(0.1, 0.9, 5))
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
        # the floor is below 1 at m = 2, 3 and 4 too (0.115, 0.486, 0.923), so the band has a window there
        for m in (200_000, 2, 3, 4):
            p = np.clip(g.random(m), 1e-12, 1.0)
            env = asymptotic_envelope(p)
            want = np.log(m) ** 4 / m
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


def test_confidence_set_memory_budget(traced_memory):
    # in input sizes, on distinct p-values: the set holds p's sort and the
    # verdicts, 1.125 (2.125 with a copy of p beside them), and peaks with
    # the verdicts of one span of sizes.  Solving c_k for every size first
    # took 16.3 at the peak
    p = distinct_pvalues()
    held, peak = traced_memory(lambda: exact_confidence_set(p, 0.05))
    assert exact_confidence_set(p, 0.05).m0_interval[1] < p.size
    assert held <= 1.25 * p.nbytes
    assert peak <= 7 * p.nbytes


def band_values_out_of_place(curve, t, g):
    """``_AsymptoticCurve.values`` as whole-array expressions: the oracle
    for its in-place form."""
    out = curve.one_minus_a0 * t + curve.delta * np.sqrt(t / curve.m)
    if curve.kind == "gamma":
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(g > 0.0, out / np.where(g > 0.0, g, 1.0), np.inf)
        out = np.minimum(out, 1.0)
    return np.where(t < curve.t_min, np.nan, out)


def test_band_values_keep_the_out_of_place_bits():
    # over t = 0 and 5e-324 (where V is 0 or underflows) and g = 0, for one
    # curve, one with 1 - a0 = 0 and one row per sample
    g = np.random.default_rng(4)
    t = np.r_[0.0, 5e-324, 1e-300, 1e-12, np.sort(g.random(300)), 1.0]
    ghat = np.r_[0.0, 0.0, 0.001, 0.0, np.sort(np.round(g.random(300), 2)), 1.0]
    curves = [_AsymptoticCurve.fit(v, 1000, 0.5, 0.05, 0.01, 2.0) for v in (0.3, 1.0)]
    curves.append(_AsymptoticCurve.fit(np.array([[0.1], [0.6], [1.0]]), 1000, 0.5, 0.05, 0.01, 2.0))
    # the count path V (kind "v") reads no g
    for curve, (kind, gv) in itertools.product(curves, (("v", ghat), ("gamma", ghat), ("gamma", ghat[::-1]))):
        curve = replace(curve, kind=kind)
        got = curve.values(t, gv)
        want = band_values_out_of_place(curve, t, gv)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["v", "gamma"], ids=["count", "band"])
def test_band_values_memory_budget(traced_memory, kind):
    # traced peak in sizes of the result: itself and one temporary.  The
    # whole-array expressions held 3.0 (count) and 3.1 (band)
    g = np.random.default_rng(5)
    t, ghat = np.sort(g.random(200_000)), np.sort(np.round(g.random(200_000), 3))
    curve = replace(_AsymptoticCurve.fit(0.6, t.size, 0.5, 0.05, 0.01, 2.0), kind=kind)
    assert traced_memory(lambda: curve.values(t, ghat))[1] <= 2.25 * t.nbytes
