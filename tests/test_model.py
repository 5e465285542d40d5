import mpmath
import numpy as np
import pytest

from fdpkit import (
    CountsTable,
    LabeledSample,
    MixtureModel,
    UserCdf,
    classify,
    expected_fdp_fnp,
    fdp_process,
    fnp_process,
    q_derivative,
    q_inverse,
    q_map,
    qtilde_map,
)
from fdpkit import model as model_module
from fdpkit.families import BetaPower, OneSidedNormal, TwoSidedNormal


# --- independent counting oracles -----------------------------------------

def naive_fdp(p, h, t):
    rej = [i for i in range(len(p)) if p[i] <= t]
    if not rej:
        return 0.0
    false = sum(1 for i in rej if h[i] == 0)
    return false / len(rej)


def naive_fnp(p, h, t):
    kept = [i for i in range(len(p)) if p[i] > t]
    if not kept:
        return 0.0
    missed = sum(1 for i in kept if h[i] == 1)
    return missed / len(kept)


def naive_classify(p, h, t):
    m00 = m10 = m01 = m11 = 0
    for pi, hi in zip(p, h):
        if pi <= t:
            if hi:
                m11 += 1
            else:
                m10 += 1
        else:
            if hi:
                m01 += 1
            else:
                m00 += 1
    return m00, m10, m01, m11


def tricdf(t):
    # F(t) = min(2t, 1), the triangular-ish alternative used in worked examples
    t = np.asarray(t, dtype=float)
    out = np.minimum(2.0 * t, 1.0)
    return out if out.ndim else float(out)


# --- MixtureModel ----------------------------------------------------------

class TestMixtureModel:
    def test_weight_validated(self):
        with pytest.raises(ValueError):
            MixtureModel(-0.1, OneSidedNormal(2.0))
        with pytest.raises(ValueError):
            MixtureModel(1.5, OneSidedNormal(2.0))

    def test_family_required_when_mixed(self):
        with pytest.raises(ValueError):
            MixtureModel(0.5, None)
        # a pure null is fine without a family: its alternative is the
        # uniform, and a family given is kept
        assert MixtureModel(0.0, None).F is model_module._UNIFORM
        fam = OneSidedNormal(2.0)
        assert MixtureModel(0.0, fam).F is fam

    def test_cdf_mixture_algebra(self):
        m = MixtureModel(0.5, UserCdf(tricdf))
        ts = np.linspace(0, 1, 21)
        assert np.allclose(m.cdf(ts), 0.5 * ts + 0.5 * np.minimum(2 * ts, 1.0), atol=0)
        assert isinstance(m.cdf(0.3), float)

    def test_cdf_dominates_identity(self):
        m = MixtureModel(0.25, OneSidedNormal(3.0))
        ts = np.linspace(0, 1, 101)
        assert np.all(np.asarray(m.cdf(ts)) >= ts - 1e-15)

    def test_pure_null_cdf_pdf(self):
        m = MixtureModel(0.0, None)
        assert m.cdf(0.3) == 0.3
        assert m.pdf(0.7) == 1.0
        assert np.array_equal(m.pdf(np.array([0.2, 0.9])), np.ones(2))

    @pytest.mark.parametrize("fam", [OneSidedNormal(3.0), TwoSidedNormal(3.0), BetaPower(0.5)], ids=repr)
    def test_pure_null_density_ignores_the_family(self, fam):
        # f is infinite at t = 0 for each family; at a = 0 it takes no weight,
        # so g is 1 there too, with no 0 * inf
        ts = np.array([0.0, 1e-300, 0.3, 1.0])
        assert MixtureModel(0.0, fam).pdf(0.0) == 1.0
        assert np.array_equal(MixtureModel(0.0, fam).pdf(ts), np.ones(ts.size))
        # and at a > 0 the density is the weighted sum, to the bit
        m = MixtureModel(0.25, fam)
        assert np.array_equal(m.pdf(ts[1:]), 0.75 + 0.25 * np.asarray(fam.pdf(ts[1:]), dtype=float))

    def test_pdf_scalar_and_vector(self):
        m = MixtureModel(0.25, OneSidedNormal(3.0))
        v = m.pdf(0.5)
        assert isinstance(v, float)
        assert np.allclose(m.pdf(np.array([0.5])), [v])

    def test_outside_unit_interval(self):
        # G is 0 below 0 and 1 above 1, and g is 0 outside [0, 1], as for
        # the families
        out = np.array([-1.0, -0.1, -1e-300, 1.0 + 1e-15, 1.5])
        for m in (MixtureModel(0.25, OneSidedNormal(3.0)), MixtureModel(0.0, None)):
            assert np.array_equal(m.cdf(out), (out > 1.0).astype(float))
            assert np.array_equal(m.pdf(out), np.zeros(out.size))
            assert m.cdf(1.5) == 1.0 and m.cdf(-0.1) == 0.0
            assert m.pdf(1.5) == 0.0 and m.pdf(-0.1) == 0.0

    def test_pdf_requires_density(self):
        for a in (0.5, 0.0):
            m = MixtureModel(a, UserCdf(tricdf))
            assert not m.has_density
            with pytest.raises(ValueError, match="^alternative family has no density$"):
                m.pdf(0.5)


# --- classify / process paths ----------------------------------------------

class TestClassify:
    def test_two_point_example(self):
        s = LabeledSample(np.array([0.01, 0.2]), np.array([1, 0]))
        c = classify(s, 0.05)
        assert (c.m00, c.m10, c.m01, c.m11) == (1, 0, 0, 1)
        assert c.r == 1

    def test_everything_rejected_at_one(self):
        rng = np.random.default_rng(0)
        s = LabeledSample(rng.uniform(0, 1, 10), rng.integers(0, 2, 10))
        assert classify(s, 1.0).r == 10

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        p = rng.choice(np.linspace(0, 1, 11), size=10)  # force ties
        h = rng.integers(0, 2, 10)
        s = LabeledSample(p, h)
        for t in np.r_[0.0, p, 0.5, 1.0]:
            c = classify(s, float(t))
            assert (c.m00, c.m10, c.m01, c.m11) == naive_classify(p, h, t)
            assert c.m00 + c.m10 + c.m01 + c.m11 == 10
            assert c.m10 + c.m11 == c.r

    def test_counts_table_derives_r(self):
        c = CountsTable(m00=3, m10=2, m01=1, m11=4)
        assert (c.r, c.m) == (6, 10)
        with pytest.raises(TypeError):
            CountsTable(3, 2, 1, 4, r=6)
        with pytest.raises(TypeError):
            CountsTable(3, 2, 1, 4, 6)
        for counts in ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                CountsTable(*counts)

    def test_labels_required(self):
        s = LabeledSample(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            classify(s, 0.5)
        with pytest.raises(ValueError):
            classify(LabeledSample(np.array([0.1]), np.array([0])), 1.5)
        # labels are 0/1 (bool, int or float) and aligned with the p-values
        for h in ([0, 1], [True, False], [1.0, 0.0], np.array([0, 1], dtype=np.int8)):
            assert LabeledSample(np.array([0.1, 0.2]), h).labels.dtype == np.int8
        for h in ([0, 2], [-1, 0], [0.5, 1], [np.nan, 0], [0, 1, 0], [[0, 1]], [0]):
            with pytest.raises(ValueError, match="labels must be 0/1 and aligned"):
                LabeledSample(np.array([0.1, 0.2]), h)


class TestProcessPaths:
    def test_fdp_two_point_values(self):
        s = LabeledSample(np.array([0.01, 0.2]), np.array([1, 0]))
        g = fdp_process(s)
        assert g(0.005) == 0.0
        assert g(0.3) == 0.5
        assert g(0.01) == 0.0
        assert g(0.2) == 0.5

    def test_all_null_paths(self):
        s = LabeledSample(np.array([0.1, 0.4, 0.7]), np.array([0, 0, 0]))
        g = fdp_process(s)
        assert g(0.05) == 0.0
        for t in (0.1, 0.4, 0.9):
            assert g(t) == 1.0  # every rejection is false
        assert np.all(np.asarray(fnp_process(s)(np.linspace(0, 1, 11))) == 0.0)

    def test_fnp_two_point_values(self):
        s = LabeledSample(np.array([0.01, 0.2]), np.array([1, 0]))
        assert fnp_process(s)(0.05) == 0.0
        s2 = LabeledSample(np.array([0.01, 0.2]), np.array([0, 1]))
        assert fnp_process(s2)(0.05) == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_rationals_match_naive_oracle(self, seed):
        # m <= 20 with ties: the paths must agree with per-point counting at
        # breakpoints, midpoints and both endpoints, as exact rationals
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 21))
        p = rng.choice(np.round(np.linspace(0, 1, 21), 3), size=m)
        h = rng.integers(0, 2, m)
        s = LabeledSample(p, h)
        g, x = fdp_process(s), fnp_process(s)
        distinct = np.unique(p)
        probes = np.unique(np.r_[0.0, distinct, (distinct[:-1] + distinct[1:]) / 2 if m > 1 else [], 1.0])
        for t in probes:
            assert g(float(t)) == naive_fdp(p, h, t)
            assert x(float(t)) == naive_fnp(p, h, t)
        # breakpoints only at observed values
        assert set(g.knots[1:]).issubset(set(distinct))
        vals = np.asarray(g(probes))
        assert np.all((vals >= 0.0) & (vals <= 1.0))


# --- population maps --------------------------------------------------------

class TestPopulationMaps:
    def test_q_uniform_only(self):
        q = q_map(MixtureModel(0.0, None))
        assert q(0.0) == 0.0
        for t in (0.01, 0.5, 1.0):
            assert q(t) == 1.0

    def test_q_worked_value(self):
        q = q_map(MixtureModel(0.5, UserCdf(tricdf)))
        assert abs(q(0.25) - 1.0 / 3.0) < 1e-15

    def test_qtilde_worked_value(self):
        qt = qtilde_map(MixtureModel(0.5, UserCdf(tricdf)))
        assert abs(qt(0.25) - 0.4) < 1e-15

    def test_qtilde_domain_error_where_g_is_one(self):
        qt = qtilde_map(MixtureModel(0.5, UserCdf(tricdf)))
        with pytest.raises(ValueError):
            qt(1.0)

    def test_q_bounded_by_one(self):
        q = q_map(MixtureModel(0.25, OneSidedNormal(3.0)))
        ts = np.linspace(1e-6, 1, 200)
        v = np.asarray(q(ts))
        assert np.all((v >= 0.0) & (v <= 1.0 + 1e-15))

    def test_expected_fdp_fnp_trivia(self):
        # single test, pure null: E FDP at t is t itself
        eg, ex = expected_fdp_fnp(MixtureModel(0.0, None), 1, 0.5)
        assert abs(eg - 0.5) < 1e-15
        # the m -> infinity limit recovers (Q, Qtilde)
        model = MixtureModel(0.5, UserCdf(tricdf))
        eg, ex = expected_fdp_fnp(model, 10_000, 0.25)
        assert abs(eg - q_map(model)(0.25)) < (1.0 - model.cdf(0.25)) ** 10_000 + 1e-12
        assert abs(ex - qtilde_map(model)(0.25)) < model.cdf(0.25) ** 10_000 + 1e-12

    def test_q_derivative_matches_finite_differences(self):
        model = MixtureModel(0.25, OneSidedNormal(3.0))
        q = q_map(model)
        for t in (0.05, 0.2, 0.6):
            hstep = 1e-6
            numeric = (q(t + hstep) - q(t - hstep)) / (2 * hstep)
            assert abs(q_derivative(model, t) - numeric) < 1e-5 * max(1.0, abs(numeric))

    def test_q_inverse_round_trip(self):
        model = MixtureModel(0.25, OneSidedNormal(3.0))
        q = q_map(model)
        for u in (0.05, 0.2, 0.5, 0.7):
            t = q_inverse(model, u)
            assert abs(q(t) - u) < 1e-9

    def test_q_inverse_matches_mpmath_root(self):
        # one-sided normal: Q(Phi(z)) = u solved for z to 50 digits, so no
        # normal quantile enters the reference; beta: Q(t) = u in closed form
        def one_sided(a, mu, u):
            def f(z):
                t = mpmath.ncdf(z)
                return mpmath.log((1 - a) * t / ((1 - a) * t + a * mpmath.ncdf(mu + z)) / u)

            return mpmath.ncdf(mpmath.findroot(f, (-30, 10), solver="illinois"))

        def beta_power(a, beta, u):
            return ((1 - a) * (1 - u) / (a * u)) ** (1 / (beta - 1))

        us = np.array([0.01, 0.05, 0.2, 0.45])
        cases = [
            (MixtureModel(0.25, OneSidedNormal(3.0)), lambda u: one_sided(0.25, 3, u)),
            (MixtureModel(0.1, OneSidedNormal(2.0)), lambda u: one_sided(0.1, 2, u)),
            (MixtureModel(0.5, BetaPower(0.5)), lambda u: beta_power(0.5, 0.5, u)),
            (MixtureModel(0.25, BetaPower(0.2)), lambda u: beta_power(0.25, 0.2, u)),
        ]
        for model, ref in cases:
            got = q_inverse(model, us)  # array in, array out
            assert got.shape == us.shape
            with mpmath.workdps(50):
                want = [float(ref(mpmath.mpf(u))) for u in us]
            assert got == pytest.approx(want, rel=1e-14, abs=0)
            assert q_inverse(model, 0.2) == got[2]

    def test_q_inverse_is_the_largest_feasible_double(self):
        model = MixtureModel(0.25, OneSidedNormal(3.0))
        q = q_map(model)
        for u in (1e-6, 0.05, 0.5, 0.75):
            t = q_inverse(model, u)
            assert q(t) <= u
            assert t == 1.0 or q(np.nextafter(t, 2.0)) > u
        with pytest.raises(ValueError, match="range"):
            q_inverse(model, np.array([0.1, 0.8]))
        with pytest.raises(ValueError, match="range"):
            q_inverse(model, 0.0)
