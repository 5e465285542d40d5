"""Sampling and validation-harness checks: distributional correctness of
the generator against classical bounds, closed-form purity quantities, and
the named validation registry."""

import numpy as np
import pytest
from scipy import integrate, stats

from fdpkit.estimation import dkw_epsilon
from fdpkit.families import UserCdf, make_family
from fdpkit.model import LabeledSample, MixtureModel, fdp_process, fnp_process
from fdpkit.rng import stream, uniform_open
from fdpkit.simulation import (
    VALIDATION_TARGETS,
    ScenarioConfig,
    _blocks,
    _rates,
    generate_sample,
    purity_quantities,
    pvalue_density_two_sided_normal,
    run_validation,
)


class TestScenarioConfig:
    def test_roundtrip(self):
        cfg = ScenarioConfig(m=50, a=0.3, family="two-sided-normal",
                             params={"theta": 2.0}, seed=9)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_defaults(self):
        cfg = ScenarioConfig.from_dict({"m": 10, "a": 0.0})
        assert cfg.family == "one-sided-normal"
        assert cfg.params == {} and cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(m=0, a=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(m=10, a=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(m=10, a=1.1)

    def test_pure_null_needs_no_family(self):
        model = ScenarioConfig(m=10, a=0.0, family="no-such-family").model()
        assert model.a == 0.0 and model.F is None

    def test_unknown_family_raises_when_mixed(self):
        with pytest.raises(ValueError):
            ScenarioConfig(m=10, a=0.5, family="no-such-family").model()


class TestGenerateSample:
    def test_deterministic_per_rep(self):
        cfg = ScenarioConfig(m=100, a=0.4, params={"theta": 3.0}, seed=5)
        s1 = generate_sample(cfg, 7)
        s2 = generate_sample(cfg, 7)
        assert np.array_equal(s1.pvalues, s2.pvalues)
        assert np.array_equal(s1.labels, s2.labels)
        s3 = generate_sample(cfg, 8)
        assert not np.array_equal(s1.pvalues, s3.pvalues)

    def test_pure_null_is_uniform(self):
        cfg = ScenarioConfig(m=1000, a=0.0, seed=6)
        pooled = np.concatenate([generate_sample(cfg, i).pvalues for i in range(100)])
        assert np.all(generate_sample(cfg, 0).labels == 0)
        assert stats.kstest(pooled, "uniform").pvalue > 0.01

    def test_pure_alternative_matches_family_cdf(self):
        cfg = ScenarioConfig(m=100_000, a=1.0, params={"theta": 3.0}, seed=7)
        s = generate_sample(cfg, 0)
        assert np.all(s.labels == 1)
        F = make_family("one-sided-normal", {"theta": 3.0}).cdf
        grid = np.linspace(1e-6, 1.0, 2001)
        emp = np.searchsorted(np.sort(s.pvalues), grid, side="right") / s.pvalues.size
        assert np.max(np.abs(emp - F(grid))) < dkw_epsilon(s.pvalues.size, 0.001)

    def test_mixture_matches_marginal_cdf(self):
        cfg = ScenarioConfig(m=100_000, a=0.25, params={"theta": 3.0}, seed=8)
        s = generate_sample(cfg, 0)
        model = cfg.model()
        grid = np.linspace(1e-6, 1.0, 2001)
        emp = np.searchsorted(np.sort(s.pvalues), grid, side="right") / s.pvalues.size
        assert np.max(np.abs(emp - model.cdf(grid))) < dkw_epsilon(s.pvalues.size, 0.001)

    def test_label_frequency(self):
        cfg = ScenarioConfig(m=50_000, a=0.3, params={"theta": 3.0}, seed=9)
        lab = generate_sample(cfg, 0).labels
        se = np.sqrt(0.3 * 0.7 / lab.size)
        assert abs(lab.mean() - 0.3) < 5 * se


class TestUniformOpen:
    @pytest.mark.parametrize("size", [None, 1000, (40, 25)])
    def test_bits_and_stream_position_match_the_integer_form(self, size):
        # the integer form it replaced, (k + 0.5) 2^-53 with k drawn by
        # integers(0, 2^53), is the reference; both streams must stay in step
        for key in ((0,), (7, 3), (2024, 1, 5)):
            a, b = stream(*key), stream(*key)
            for _ in range(3):
                got = uniform_open(a, size)
                want = (b.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) * 2.0**-53
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
            assert a.random() == b.random()


class TestSharedParts:
    @staticmethod
    def _rows():
        rng = np.random.default_rng(4)
        p = np.round(rng.uniform(size=(6, 40)), 1)  # heavy ties
        p[0, :3] = 0.0
        p[1, -3:] = 1.0
        lab = rng.uniform(size=p.shape) < 0.4
        lab[2] = False  # all null
        lab[3] = True  # all alternative
        return p, lab

    def _by_process(self, p, lab, ts):
        fdp, fnp = [], []
        for row, h, t in zip(p, lab, ts):
            s = LabeledSample(row, h.astype(np.int8))
            fdp.append(fdp_process(s)(t))
            fnp.append(fnp_process(s)(t))
        return np.array(fdp), np.array(fnp)

    @pytest.mark.parametrize("t", [0.0, 1.0, 0.3, 0.35, 0.7])
    def test_rates_match_processes_at_scalar_t(self, t):
        p, lab = self._rows()
        want = self._by_process(p, lab, [t] * p.shape[0])
        got = _rates(p, lab, t)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_rates_match_processes_at_per_row_t(self):
        p, lab = self._rows()
        ts = np.array([0.0, 1.0, p[2, 5], p[3, 0], 0.45, p[5, 17]])  # some exactly a p-value
        want = self._by_process(p, lab, ts)
        got = _rates(p, lab, ts)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_rates_on_one_row(self):
        p, lab = self._rows()
        for t in (0.0, p[4, 9], 1.0):
            got = _rates(p[4], lab[4].astype(np.int8), t)  # as LabeledSample holds them
            want = self._by_process(p[4:5], lab[4:5], [t])
            assert np.shape(got[0]) == ()
            np.testing.assert_array_equal([got[0], got[1]], [want[0][0], want[1][0]])

    def test_generate_sample_is_first_row_of_a_one_row_block(self):
        scen = ScenarioConfig(m=300, a=0.3, params={"theta": 3.0}, seed=12)
        p, lab = next(_blocks(scen, scen.model(), 1))
        samp = generate_sample(scen, 0)
        assert p.shape == (1, 300)
        np.testing.assert_array_equal(samp.pvalues, p[0])
        np.testing.assert_array_equal(samp.labels, lab[0].astype(np.int8))


class TestPurityQuantities:
    def test_square_root_family_split(self):
        model = MixtureModel(0.4, make_family("square-root", {}))
        pur = purity_quantities(model)
        assert pur.zeta == pytest.approx(0.5, abs=1e-9)
        assert pur.a_lower == pytest.approx(0.2, abs=1e-9)
        assert pur.f_lower(0.25) == pytest.approx(2 * 0.5 - 0.25, abs=1e-9)
        ts = np.linspace(0.0, 1.0, 101)
        vals = np.asarray(pur.f_lower(ts))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_vanishing_tail_density_keeps_everything(self):
        fam = make_family("one-sided-normal", {"theta": 3.0})
        model = MixtureModel(0.25, fam)
        pur = purity_quantities(model)
        assert pur.zeta == pytest.approx(1.0, abs=1e-9)
        assert pur.a_lower == pytest.approx(0.25, abs=1e-9)
        for t in (0.1, 0.5, 0.9):
            assert pur.f_lower(t) == pytest.approx(float(fam.cdf(t)), abs=1e-9)

    def test_two_sided_pins(self):
        model = MixtureModel(0.25, make_family("two-sided-normal", {"theta": 3.0}))
        pur = purity_quantities(model)
        assert pur.zeta == pytest.approx(1 - np.exp(-4.5), abs=1e-9)
        assert pur.zeta == pytest.approx(0.9888910034617577, abs=1e-9)
        assert pur.a_lower == pytest.approx(0.24722275086543943, abs=1e-9)

    def test_uniform_alternative_has_no_identifiable_part(self):
        model = MixtureModel(0.5, make_family("beta", {"beta": 1.0}))
        pur = purity_quantities(model)
        assert pur.zeta == 0.0
        assert pur.a_lower == 0.0
        assert pur.f_lower is None

    def test_missing_density_is_rejected(self):
        fam = UserCdf(lambda t: np.asarray(t, dtype=float) ** 2)
        with pytest.raises(ValueError, match="density"):
            purity_quantities(MixtureModel(0.5, fam))


class TestPvalueDensity:
    def test_endpoint_value(self):
        # at p = 1 the two-sided density collapses to the pure Gaussian
        # factor exp(-n theta^2 / 2)
        assert pvalue_density_two_sided_normal(3.0, 1, 1.0) == pytest.approx(
            np.exp(-4.5), rel=1e-12)
        assert pvalue_density_two_sided_normal(1.5, 4, 1.0) == pytest.approx(
            np.exp(-0.5 * 4 * 1.5**2), rel=1e-12)

    def test_zero_effect_is_uniform(self):
        ts = np.linspace(0.01, 1.0, 25)
        np.testing.assert_allclose(pvalue_density_two_sided_normal(0.0, 3, ts), 1.0, atol=1e-12)

    def test_integrates_to_one(self):
        val, err = integrate.quad(
            lambda t: pvalue_density_two_sided_normal(2.0, 2, t), 0.0, 1.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain_validation(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError, match="p must lie"):
                pvalue_density_two_sided_normal(2.0, 1, bad)


class TestValidationHarness:
    def test_registry_names(self):
        assert set(VALIDATION_TARGETS) == {
            "fdp-mean", "fnp-mean", "storey-clt", "storey-degenerate",
            "null-floor-coverage", "projection-bound", "lcm-contraction",
            "fdp-kernel", "qhat-kernel", "qinv-kernel-identity",
            "storey-kernel", "plugin-known-a", "plugin-estimated-a",
            "rate-ceiling-known-a", "envelope-coverage",
            "count-envelope-coverage", "label-set-coverage",
            "achievable-oracle",
        }

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown validation target"):
            run_validation({}, "no-such-check")

    def test_deterministic_reports(self):
        cfg = {"reps": 30, "m": 300}
        r1 = run_validation(cfg, "projection-bound")
        r2 = run_validation(cfg, "projection-bound")
        assert r1 == r2

    def test_exact_identity_target(self):
        r = run_validation({}, "qinv-kernel-identity")
        assert r["passed"] is True
        assert r["worst_abs_diff"] < 1e-10

    def test_storey_degenerate_expected_mass_matches_mpmath(self):
        # P(Bin(m, t0) <= floor(m t0)) at the target's defaults m = 1e4, t0 = 0.5
        import mpmath

        r = run_validation({"reps": 100}, "storey-degenerate")
        m = 10_000
        with mpmath.workdps(50):
            half = mpmath.mpf(1) / 2
            want = mpmath.fsum(mpmath.binomial(m, i) for i in range(m // 2 + 1)) * half**m
        assert r["expected_mass_at_zero"] == pytest.approx(float(want), rel=1e-13, abs=0)
        with pytest.raises(ValueError, match="t0"):
            run_validation({"t0": 1.0}, "storey-degenerate")

    @pytest.mark.parametrize("reps", [0, 1, -5, 2.5, 10.0, True, "100", None])
    def test_reps_must_be_an_integer_of_at_least_two(self, reps):
        for name in ("projection-bound", "fdp-mean", "storey-clt"):
            with pytest.raises(ValueError, match="reps must be an integer >= 2"):
                run_validation({"reps": reps, "m": 60}, name)

    def test_two_reps_run(self):
        assert run_validation({"reps": 2, "m": 60}, "projection-bound")["reps"] == 2

    @pytest.mark.parametrize("cfg, name", [({"a": 1.0}, "fdp-mean"), ({"a": 0.0}, "fnp-mean")])
    def test_zero_variance_mean_scores_zero(self, cfg, name):
        # every replicate's rate is exactly 0, and so is the expected mean
        r = run_validation({**cfg, "reps": 200}, name)
        assert r["passed"] is True
        for pt in r["points"]:
            assert pt["mean"] == pt["expected"] == 0.0 and pt["zscore"] == 0.0

    def test_reduced_scale_targets_pass(self):
        quick = [
            ("fdp-mean", {"reps": 2000, "m": 100}),
            ("projection-bound", {"reps": 30, "m": 300}),
            ("lcm-contraction", {"reps": 30, "m": 300}),
            ("null-floor-coverage", {"reps": 300, "m": 400}),
        ]
        for name, cfg in quick:
            r = run_validation(cfg, name)
            assert r["passed"] is True, (name, r)
            assert r["target"] == name
