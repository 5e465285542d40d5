"""Sampling and validation-harness checks: distributional correctness of
the generator against classical bounds, closed-form purity quantities, and
the named validation registry."""

import functools
import hashlib
import inspect
import json
import math
import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

import fdpkit
from fdpkit.envelopes import uniformity_critical_value
from fdpkit.estimation import dkw_epsilon
from fdpkit.families import OneSidedNormal, TwoSidedNormal, UserCdf, make_family
from fdpkit.model import LabeledSample, MixtureModel, expected_fdp_fnp, fdp_process, fnp_process
from fdpkit.rng import _in_parts, _uniform_into, stream, uniform_open
from fdpkit import model as model_module
from fdpkit import simulation
from fdpkit.simulation import (
    VALIDATION_TARGETS,
    ScenarioConfig,
    _blocks,
    _draw,
    _rate_se,
    _rep_blocks,
    _rates,
    generate_sample,
    purity_quantities,
    pvalue_density_two_sided_normal,
    run_validation,
)
from fdpkit.thresholds import rate_ceiling_known_a


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

    def test_pure_null_needs_no_family(self, monkeypatch):
        # a pure null builds no family: its alternative is the uniform
        def refuse(*args, **kwargs):
            raise AssertionError("a pure null built a family")

        monkeypatch.setattr(simulation, "make_family", refuse)
        model = ScenarioConfig(m=10, a=0.0, family="no-such-family").model()
        x = np.array([0.0, 5e-324, 0.3, 1.0])
        np.testing.assert_array_equal(model.cdf(x), x)
        assert model.a == 0.0 and model.F is model_module._UNIFORM

    def test_unknown_family_raises_when_mixed(self, monkeypatch):
        with pytest.raises(ValueError):
            ScenarioConfig(m=10, a=0.5, family="no-such-family").model()
        # so does a parameter the family does not read, which once ran at n = 1
        with pytest.raises(ValueError, match=r"^alternative family 'one-sided-normal': .*unexpected keyword argument 'N'$"):
            run_validation({"reps": 20, "m": 200, "params": {"theta": 3.0, "N": 50}}, "fdp-mean")
        # a config's family other than the default's brings its own params, or none
        small = {"reps": 20, "m": 200}
        r = run_validation({**small, "family": "square-root"}, "fdp-mean")
        assert r["scenario"]["family"] == "square-root" and r["scenario"]["params"] == {}
        # the default's family keeps the default's params unless the config gives its own
        assert run_validation({**small, "family": "one-sided-normal"}, "fdp-mean")["scenario"]["params"] == {"theta": 3.0}
        assert run_validation({**small, "params": {"theta": 2.0}}, "fdp-mean")["scenario"]["params"] == {"theta": 2.0}
        # so a family that needs a theta and was given none is refused before sampling
        no_sampling(monkeypatch)
        for cfg, name in [({"family": "two-sided-normal"}, "fdp-mean"), ({"family": "one-sided-normal"}, "projection-bound")]:
            with pytest.raises(ValueError, match=rf"^alternative family '{cfg['family']}': missing .*'theta'$"):
                run_validation({**small, **cfg}, name)


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

    @pytest.mark.parametrize("scen", [
        ScenarioConfig(2500, 0.3, "one-sided-normal", {"theta": 3.0}, seed=12),
        ScenarioConfig(2500, 0.3, "two-sided-normal", {"theta": 2.0}, seed=12),
        ScenarioConfig(2500, 0.5, "square-root", seed=12),
        ScenarioConfig(2500, 0.0, seed=12),
        ScenarioConfig(2500, 1.0, "two-sided-normal", {"theta": 3.0}, seed=12),
        ScenarioConfig(1, 0.5, "two-sided-normal", {"theta": 3.0}, seed=12),
    ], ids=["one-sided", "two-sided", "square-root", "a=0", "a=1", "m=1"])
    def test_rep_keyed_rows_are_the_samples_of_their_index(self, scen):
        # at m = 2500 a block holds 10 rows, so 12 rows cross a block
        # boundary; row i is read from the stream (seed, i), labels first,
        # with one ppf call per row, and is generate_sample(scen, i)
        model = scen.model()
        blocks = list(_rep_blocks(scen, model, 12))
        assert [len(p) for p, _ in blocks] == ([10, 2] if scen.m == 2500 else [12])
        rows = [row for p, lab in blocks for row in zip(p, lab)]
        for i, (p, lab) in enumerate(rows):
            rng = stream(scen.seed, i)
            want_lab = uniform_open(rng, scen.m) < scen.a
            want_p = uniform_open(rng, scen.m)
            want_p[want_lab] = model.F.ppf(want_p[want_lab])
            np.testing.assert_array_equal(lab, want_lab)
            np.testing.assert_array_equal(p, want_p)
            samp = generate_sample(scen, i)
            np.testing.assert_array_equal(samp.pvalues, p)
            np.testing.assert_array_equal(samp.labels, lab.astype(np.int8))

    def test_label_frequency(self):
        cfg = ScenarioConfig(m=50_000, a=0.3, params={"theta": 3.0}, seed=9)
        lab = generate_sample(cfg, 0).labels
        se = np.sqrt(0.3 * 0.7 / lab.size)
        assert abs(lab.mean() - 0.3) < 5 * se


class TestDraw:
    @pytest.mark.parametrize("shape", [1, 4, 5, 6, 7, 1000, 1001, 1002, 1003, (3, 5), (2, 7), (4, 3)])
    def test_pure_null_skips_the_label_draws_in_step(self, shape):
        # every label is False at a = 0, so the stream moves past the label
        # uniforms without drawing them; the p-values that follow are the
        # ones a drawn label block leaves (size % 4 in {0, 1, 2, 3} above)
        cfg = ScenarioConfig(m=10, a=0.0, seed=6)
        rng = stream(6, 2)
        want_lab = uniform_open(rng, shape) < 0.0
        want_p = uniform_open(rng, shape)
        p, lab = _draw(cfg, cfg.model(), 2, shape)
        assert lab.dtype == bool and lab.shape == want_lab.shape and not lab.any()
        assert p.shape == want_p.shape
        np.testing.assert_array_equal(p, want_p)

    # SHA-256 of the p-value and label bytes of a block of 3 rows of m, as
    # recorded with the sampler that drew the labels at a = 0, scattered the
    # alternatives through a boolean mask and found the two-sided quantile
    # by bisection over all of [0, 1]
    @pytest.mark.parametrize("cfg, digest", [
        (ScenarioConfig(1003, 0.0, seed=4),
         "7a6bc7169cae931469fe6683498f5f016d77ad8c94ffc873cd35a5f866920500"),
        (ScenarioConfig(1000, 0.25, "one-sided-normal", {"theta": 3.0}, seed=4),
         "8940746026d2aef07439070f747c46ea343a3ed3129c5dcf265e1f60905ffe47"),
        (ScenarioConfig(1000, 0.25, "two-sided-normal", {"theta": 3.0}, seed=4),
         "8b66a258a216584d771191692710987dfee179e72c0400b04160b441a49e2e3c"),
    ], ids=["pure-null", "one-sided", "two-sided"])
    def test_block_bits_are_pinned(self, cfg, digest):
        p, lab = _draw(cfg, cfg.model(), 5, (3, cfg.m))
        assert hashlib.sha256(p.tobytes() + lab.tobytes()).hexdigest() == digest

    # a block's rows are drawn in parts, one per CPU: k parts must give the
    # bits of one stream read in turn, for blocks with fewer rows than k and
    # for sizes and part starts at every position in a Philox step of four
    SHAPES = [(1, 9), (2, 7), (3, 5), (4, 3), (5, 5), (7, 4), (9, 13), (10, 6), (6, 50)]

    @staticmethod
    def _cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 45])
    def test_parts_read_one_stream(self, monkeypatch, k, offset):
        self._cpus(monkeypatch, k)
        for shape in self.SHAPES:
            want = uniform_open(stream(8, 3), offset + shape[0] * shape[1])[offset:].reshape(shape)
            got = np.empty(shape)
            _in_parts(shape[0], lambda lo, hi: _uniform_into(got[lo:hi], 8, 3, offset + lo * shape[1]))
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def _spy_ppf(monkeypatch, model, fail=None):
        """Record (thread, input size) of every call of model.F.ppf; raise on the thread `fail` picks."""
        calls, ppf = [], model.F.ppf

        def spy(u):
            calls.append((threading.current_thread(), np.size(u)))
            if fail is not None and fail(threading.current_thread()):
                raise RuntimeError("ppf failed")
            return ppf(u)

        monkeypatch.setattr(model.F, "ppf", spy)
        return calls

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(10, 0.0, seed=4),
        ScenarioConfig(10, 0.25, "one-sided-normal", {"theta": 3.0}, seed=4),
        ScenarioConfig(10, 0.25, "two-sided-normal", {"theta": 3.0}, seed=4),
    ], ids=["pure-null", "one-sided", "two-sided"])
    def test_block_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, cfg):
        # each part also takes the quantiles of its own labelled values on
        # its own thread, the first part on the calling one
        model = cfg.model()
        for shape in self.SHAPES:
            rng = stream(cfg.seed, 2)  # the labels, then the p-values, from one stream
            lab = uniform_open(rng, shape) < cfg.a
            p = uniform_open(rng, shape)
            if cfg.a:
                p[lab] = model.F.ppf(p[lab])
            for k in (1, 2, 3, 7):
                self._cpus(monkeypatch, k)
                calls = self._spy_ppf(monkeypatch, model)
                threads = threading.active_count()
                got_p, got_lab = _draw(cfg, model, 2, shape)
                assert threading.active_count() == threads  # every part's thread is joined
                np.testing.assert_array_equal(got_lab, lab)
                np.testing.assert_array_equal(got_p, p)
                parts = min(k, shape[0])
                cuts = [shape[0] * i // parts for i in range(parts + 1)]
                per_part = [int(lab[lo:hi].sum()) for lo, hi in zip(cuts, cuts[1:])]
                per_thread = {}
                for thread, size in calls:
                    per_thread[thread] = per_thread.get(thread, 0) + size
                assert sorted(per_thread.values()) == sorted(n for n in per_part if n)
                assert per_thread.get(threading.current_thread(), 0) == per_part[0]
                if cfg.a and shape == (6, 50):  # every part holds labelled values
                    assert len(per_thread) == parts

    def test_quantiles_are_taken_in_slices(self, monkeypatch):
        # at most 2^14 values a call, with the bits of one call on all of them
        cfg = ScenarioConfig(80_000, 0.5, "two-sided-normal", {"theta": 2.0}, seed=3)
        model = cfg.model()
        rng = stream(cfg.seed, 0)
        lab = uniform_open(rng, (1, cfg.m)) < cfg.a
        p = uniform_open(rng, (1, cfg.m))
        p[lab] = model.F.ppf(p[lab])
        calls = self._spy_ppf(monkeypatch, model)
        got_p, got_lab = _draw(cfg, model, 0, (1, cfg.m))
        assert [size for _, size in calls] == [2**14, 2**14] + [int(lab.sum()) - 2**15]
        np.testing.assert_array_equal(got_lab, lab)
        np.testing.assert_array_equal(got_p, p)

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_a_failed_part_raises_on_the_calling_thread(self, monkeypatch, failing):
        cfg = ScenarioConfig(50, 0.25, "one-sided-normal", {"theta": 3.0}, seed=4)
        model = cfg.model()
        caller = threading.current_thread()
        self._cpus(monkeypatch, 2)
        calls = self._spy_ppf(monkeypatch, model, lambda thread: (thread is caller) == (failing == "first"))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^ppf failed$"):
            _draw(cfg, model, 2, (6, cfg.m))
        assert threading.active_count() == threads
        assert len({thread for thread, _ in calls}) == 2  # the other part ran to its end

    @pytest.mark.parametrize("a", [0.0, 0.25], ids=["pure-null", "one-sided"])
    def test_blocks_are_drawn_into_one_buffer(self, a):
        # 7 rows in blocks of 3 end in a short block of 1; each block holds a
        # fresh draw of its key, even after the last one was scribbled over
        cfg = ScenarioConfig(50, a, "one-sided-normal", {"theta": 3.0}, seed=4)
        model = cfg.model()
        first = None
        for key, (p, lab) in enumerate(_blocks(cfg, model, 7, block=3)):
            want_p, want_lab = _draw(cfg, model, key, (min(3, 7 - 3 * key), cfg.m))
            assert p.tobytes() == want_p.tobytes() and lab.tobytes() == want_lab.tobytes()
            first = p if first is None else first
            assert p.flags.c_contiguous and np.shares_memory(p, first)
            p.sort(axis=1)  # as a caller may, within its loop step
            p[:, ::2] = np.nan
        assert key == 2

    def test_block_memory_budget(self, monkeypatch, traced_memory):
        # in block sizes: a bare loop holds one block and the draw's scratch,
        # and both plug-in targets add only a span of sorted rows and their
        # critical values (2.57 and 3.25 when each block was a fresh array and
        # the step-up compared a whole block at once; 2.26 and 2.20 while the
        # step-up sorted a whole block); one CPU, so the scratch of the parts
        # drawn at once does not depend on the machine
        self._cpus(monkeypatch, 1)
        scen = simulation._standard(5000)  # blocks of 200 rows; 650 rows end in a short block
        size = 200 * scen.m * 8
        model = scen.model()

        def loop():
            for _ in _blocks(scen, model, 650):
                pass

        assert traced_memory(loop)[1] <= 1.5 * size
        for name in ("plugin-known-a", "plugin-estimated-a"):
            assert traced_memory(lambda: run_validation({"reps": 650}, name))[1] <= 1.6 * size


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

    def test_pure_null_has_no_identifiable_part(self, monkeypatch):
        pur = purity_quantities(MixtureModel(0.0, None))
        assert (pur.zeta, pur.a_lower, pur.f_lower) == (0.0, 0.0, None)
        # so null-floor-coverage runs at a = 0, against a floor of 0, and
        # achievable-oracle, which needs a floor above 0, refuses before sampling
        r = run_validation({"a": 0.0, "reps": 200, "m": 200}, "null-floor-coverage")
        assert r["a_lower_true"] == 0.0 and r["passed"] is True
        no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=r"^achievable-oracle needs a weight floor above 0, and it is 0 at a = 0\.0$"):
            run_validation({"a": 0.0}, "achievable-oracle")
        # and so does projection-bound, which divides by a
        with pytest.raises(ValueError, match=r"^projection-bound divides by the weight a, and it is 0 at a = 0\.0$"):
            run_validation({"a": 0.0}, "projection-bound")

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


_COVERAGE = {"alpha": 0.05, "t0": 0.5, "t_min": 1e-4, "reps": 1000, "gate": 0.94}
_KERNEL = {"reps": 2000, "points": (0.05, 0.1, 0.2), "rel_tol": 0.15, "t0": 0.5}
_PLUGIN = {"reps": 2000, "alpha": 0.05, "t0": 0.5, "tol": 0.01}
_MEAN = {"reps": 100_000, "ts": (0.01, 0.05, 0.2), "sigmas": 3.0}
# each target's own settings with their defaults, in signature order; every
# target also takes the scenario keys m, a, family, params and seed
SETTINGS = {
    "fdp-mean": _MEAN,
    "fnp-mean": _MEAN,
    "storey-clt": {"reps": 2000, "t0": 0.5, "rel_tol": 0.10, "sigmas": 3.0},
    "storey-degenerate": {"reps": 10_000, "t0": 0.5, "half_tol": 0.02, "sigmas": 4.0},
    "null-floor-coverage": {"alpha": 0.05, "variant": "plain", "reps": 1000, "gate": 0.94},
    "projection-bound": {"reps": 100},
    "lcm-contraction": {"reps": 100, "cushion": 1e-6},
    "fdp-kernel": _KERNEL,
    "qhat-kernel": _KERNEL,
    "storey-kernel": _KERNEL,
    "qinv-kernel-identity": {"tol": 1e-10, "points": (0.1, 0.2, 0.3)},
    "plugin-known-a": _PLUGIN,
    "plugin-estimated-a": _PLUGIN,
    "rate-ceiling-known-a": {"reps": 5000, "c": 0.05, "alpha": 0.05, "band": (0.93, 0.97)},
    "envelope-coverage": _COVERAGE,
    "count-envelope-coverage": _COVERAGE,
    "label-set-coverage": {"alpha": 0.05, "reps": 1000, "gate": 0.94},
    "achievable-oracle": {"reps": 300, "alpha": 0.05, "tol": 0.02},
}


def _plain_json(x):
    """Whether x is built of JSON's own Python types only, with no NumPy scalar."""
    if type(x) is dict:
        return all(type(k) is str and _plain_json(v) for k, v in x.items())
    if type(x) in (list, tuple):
        return all(map(_plain_json, x))
    return type(x) in (str, int, float, bool, type(None))


def no_sampling(monkeypatch):
    """Make any draw of a sample or of a block fail: rep-keyed rows open a
    `stream` each, and a block runs its parts through `_in_parts`."""
    monkeypatch.setattr(simulation, "stream", None)
    monkeypatch.setattr(simulation, "_in_parts", None)
    monkeypatch.setattr(simulation, "_uniform_into", None)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_no_sampling_stops_every_draw(monkeypatch, a):
    cfg = ScenarioConfig(20, a, "one-sided-normal", {"theta": 3.0}, seed=1)
    no_sampling(monkeypatch)
    for draw in (lambda: next(_blocks(cfg, cfg.model(), 4)), lambda: next(_rep_blocks(cfg, cfg.model(), 4)),
                 lambda: generate_sample(cfg, 0)):
        with pytest.raises(TypeError, match="not callable"):
            draw()


# one count rule: each integer argument, with a working value, and what it gives
_MODEL = MixtureModel(0.25, make_family("one-sided-normal", {"theta": 3.0}))
_SCEN = ScenarioConfig(20, 0.25, "one-sided-normal", {"theta": 3.0})
COUNTS = [
    ("dkw_epsilon", "m", 50, lambda v: dkw_epsilon(v, 0.05)),
    ("expected_fdp_fnp", "m", 50, lambda v: expected_fdp_fnp(_MODEL, v, 0.05)),
    ("rate_ceiling_known_a", "m", 500, lambda v: rate_ceiling_known_a(_MODEL, v, 0.05, 0.05)),
    ("ScenarioConfig", "m", 50, lambda v: ScenarioConfig(v, 0.25)),
    ("OneSidedNormal", "n", 3, lambda v: OneSidedNormal(1.0, v).cdf(0.1)),
    ("TwoSidedNormal", "n", 3, lambda v: TwoSidedNormal(1.0, v).cdf(0.1)),
    ("pvalue_density_two_sided_normal", "n", 3, lambda v: pvalue_density_two_sided_normal(1.0, v, 0.1)),
    ("uniformity_critical_value", "k", 5, lambda v: uniformity_critical_value(v, 0.05)),
    ("stream-seed", "seed", 7, lambda v: stream(v).random(3).tolist()),
    ("stream-key", "key", 7, lambda v: stream(1, 2, v).random(3).tolist()),
    ("generate_sample", "rep_index", 2, lambda v: generate_sample(_SCEN, v).pvalues.tolist()),
    ("scenario-seed", "seed", 2, lambda v: generate_sample(replace(_SCEN, seed=v), 0).pvalues.tolist()),
]


@pytest.mark.parametrize("name, good, call", [pytest.param(*c[1:], id=c[0]) for c in COUNTS])
def test_every_count_takes_only_an_integer(name, good, call):
    # no truncation (2.5 ran as 2), no bool (True ran as 1), no string; NumPy integers are integers
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {re.escape(repr(bad))}$"):
            call(bad)
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("target, config, key", [
    pytest.param("label-set-coverage", {"a": True}, "a", id="a"),
    pytest.param("label-set-coverage", {"gate": True}, "gate", id="gate"),
    pytest.param("label-set-coverage", {"alpha": "0.1"}, "alpha", id="alpha"),
    pytest.param("fdp-kernel", {"points": [0.1, True, 0.3]}, r"points\[1\]", id="points"),
    pytest.param("label-set-coverage", {"family": "two-sided-normal", "params": {"theta": 3.0, "n": 2.5}}, "n", id="n"),
])
def test_config_numbers_take_no_bool_or_string(monkeypatch, target, config, key):
    # a float key took True as 1.0 and "0.1" as 0.1; a family's n = 2.5 ran at n = 2
    no_sampling(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{key} must be an? (integer|number)"):
        run_validation({**config, "reps": 20}, target)


@pytest.mark.parametrize("config, message", [
    ({"points": 0.1}, "points must be a list of numbers, got 0.1"),
    ({"points": "0.1"}, "points must be a list of numbers, got '0.1'"),
    ({"points": {"s": 0.1}}, "points must be a list of numbers, got {'s': 0.1}"),
    ({"params": True}, "params must be a dict, got True"),
    ({"params": [["theta", 3.0]]}, "params must be a dict, got [['theta', 3.0]]"),
])
def test_config_lists_and_params_take_only_their_own_kind(monkeypatch, config, message):
    # a float for a tuple key and a bool for params raised a bare TypeError that named no key
    no_sampling(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_validation({**config, "reps": 20}, "fdp-kernel")


# the targets that run the library's Storey, Qhat and plug-in cores, with
# the cores each one calls
REWIRED = {
    "storey-clt": {"_storey"},
    "storey-degenerate": {"_storey"},
    "qhat-kernel": {"_qhat"},
    "storey-kernel": {"_storey", "_qhat"},
    "plugin-known-a": {"_plugin"},
    "plugin-estimated-a": {"_storey", "_plugin"},
}

# SHA-256 of json.dumps(report, sort_keys=True) per (target, config), or the
# error the target raises there.  The six block targets were re-pinned when
# the reports began to echo every setting, the scenario and the version:
# without those keys each report kept the bytes it had, and those were
# recorded before the targets ran the library's cores (the plug-in reports
# then also carried a "spot_check_passed" key, left out here).  The seven
# per-replicate targets were recorded while they still looped over
# generate_sample and built one ECDF, envelope or confidence set per sample
_PIN = {"reps": 40, "m": 300, "seed": 3}
_M1 = {"reps": 5, "m": 1, "seed": 1}
_A1 = {"reps": 20, "m": 200, "a": 1.0}
PINNED = [
    ("storey-clt", _PIN, "2554c103db95ef5a72fefb3f2ec7893fd54d4ba6241f27a43860336bb5130c7a"),
    ("storey-degenerate", _PIN, "16682c7c5fc931e47355a146601e52aa1763db3e212cfc5de61a06c532d58c2d"),
    ("qhat-kernel", _PIN, "108962001264ef06ebc7c068c05d6ca94a38cd3d06f44cdfeed4b65e0bec290e"),
    ("storey-kernel", _PIN, "6cbd7622177d12164a7eb7ced03cb3ab709a3e0eb4e83d337a149c91df61eebe"),
    ("plugin-known-a", _PIN, "e818ba1708adf0c4ff187ee7249eb2dbade6103a9ca8113bade868749c7b6337"),
    ("plugin-estimated-a", _PIN, "769aae011dc5406e774437d98483a9506fce5fcf0626fffb66474507ab013f25"),
    ("envelope-coverage", _PIN, "e60c86f326854fa7b406cb883069f7d5dfb12d01168ce06c96d15c9c8f1ae1b8"),
    ("count-envelope-coverage", _PIN, "630f0d97529151735c2b9bffd8435e4625f14b59e4599a658818a639336c41fb"),
    ("null-floor-coverage", _PIN, "97cf1ad2025a2b0a095efb22424be8914ac87fc7792f85b830856dd1f8d2d39e"),
    ("label-set-coverage", _PIN, "48732d3f9e17d828944684a747717affaba386061d283cb98dc828aa97dd26fd"),
    ("achievable-oracle", _PIN, "019caf14861e85a62747d5ac216924805a0a1aa3664faafefe6ceb1314068843"),
    ("projection-bound", _PIN, "eac1999683a878f138a73c951eb861c542548c1509baf37e6922e54355e9e916"),
    ("lcm-contraction", _PIN, "e58c4fd69b1719cc3588afd48cb87e00fd636646dcfb2345c6262f8b71bf411b"),
    ("envelope-coverage", _M1, "4f8b7f7593d56592d274f039731eda6d0af501ed14e9bd9fffa2193c739001cf"),
    ("count-envelope-coverage", _M1, "a3041d7db2e4fc896e5622ede0c43d323a852400a4f3eb4a222cf1f4f6843ef2"),
    ("null-floor-coverage", _M1, "3bc1bb173fe6961f113ce74eaddb83a50e259312cb7b76094150b1aa8399a177"),
    ("label-set-coverage", _M1, "21d12a8df82d39ddc7f7887ee87d30be3459d3668f89dbb496b6ee42ea6bf0e4"),
    ("achievable-oracle", _M1, ValueError("need at least 10 p-values for the kernel estimate")),
    ("projection-bound", _M1, "67758a644c62945060fb7e753235437bc3411af653a75c416732ca1ec09b11bd"),
    ("lcm-contraction", _M1, "c91fcabca7ecde884378ea122741819708ccf2897fdd48849191c5052d8abe14"),
    ("envelope-coverage", _A1, "02ae31acddbea49e4397874d7248ed6bac7bea9d17acf193f8cb8005f0f0b512"),
    ("count-envelope-coverage", _A1, "e8e688d79c2bd17c8210a2dfc3150461f094bc39c8c398991ac85f99ced87507"),
    ("null-floor-coverage", _A1, "30fc9183e0b0150fe058fbf927c182fcc92d821807f0a321d67214eaa721a7d6"),
    ("label-set-coverage", _A1, "3a7d5b70d9e59f6e45fd69bd9c49cda660791d6bdfe3961007188120c7ee2625"),
    ("achievable-oracle", _A1, "bcfc57526b06134986a0156abfd563fc770f7393b0042d09f210124695121749"),
    ("projection-bound", _A1, "56b6f242c611a6fc1ff1050e6858da099b125a58ed48438771eb4909bebf0d05"),
    ("lcm-contraction", _A1, "9a8030e57d09ee242c69813a5b4d61826c66e5c18bb37a8b604ec48b8d9d1ed0"),
    ("projection-bound", {**_A1, "a": 0.0},
     ValueError("projection-bound divides by the weight a, and it is 0 at a = 0.0")),
    ("qinv-kernel-identity", {"a": 0.0},
     ValueError("qinv-kernel-identity inverts Q, and Q is 1 everywhere at a = 0.0")),
    ("qinv-kernel-identity", {"a": 1.0},
     ValueError("qinv-kernel-identity inverts Q on (0, 1 - a), and that range is empty at a = 1.0")),
    ("rate-ceiling-known-a", {**_A1, "a": 0.0},
     ValueError("rate-ceiling-known-a has threshold 0 and coverage 1 by construction at a = 0.0")),
    ("rate-ceiling-known-a", _A1,
     ValueError("rate-ceiling-known-a bounds false discoveries, and no p-value is null at a = 1.0")),
    ("plugin-known-a", _A1,
     ValueError("plugin-known-a expects a mean FDP of alpha, but with no nulls it is 0 at a = 1.0")),
    ("storey-degenerate", _A1,
     ValueError("storey-degenerate checks the pure null, and no p-value is null at a = 1.0")),
    ("storey-kernel", {"a": 0.0},
     ValueError("storey-kernel has no Gaussian limit where the tail-count estimate's clamp at 0 "
                "binds about half the time, as it does at a = 0.0")),
    ("null-floor-coverage", {"reps": 30, "m": 300, "variant": "lcm"},
     "929988b06e5b7f0fffd838cd3be282bbc43cb48fe55d288fc878e73b0018f93a"),
    ("null-floor-coverage", {"reps": 30, "m": 300, "variant": "floor"},
     "c55c6570ddaa7bec4949c07e7db3d33edecbf3031d098b32ca508c649a7d88ee"),
]

# the pinned runs refused at the model's boundary, a = 0 or a = 1
BOUNDARY_REFUSALS = [pin for pin in PINNED if isinstance(pin[2], Exception) and " at a = " in str(pin[2])]


class TestRewiredTargets:
    @pytest.mark.parametrize("name", sorted(REWIRED))
    def test_target_calls_the_library_cores(self, monkeypatch, name):
        called = set()
        for core in ("_storey", "_qhat", "_plugin"):
            body = getattr(simulation, core)

            def spy(*args, _core=core, _body=body):
                called.add(_core)
                return _body(*args)

            monkeypatch.setattr(simulation, core, spy)
        assert run_validation({"reps": 4, "m": 50}, name)["reps"] == 4
        assert called == REWIRED[name]

    @pytest.mark.parametrize("name, config, want", PINNED, ids=[
        "-".join([name, *(f"{k}={v}" for k, v in config.items())]) for name, config, _ in PINNED
    ])
    def test_report_bytes_are_pinned(self, name, config, want):
        if isinstance(want, Exception):
            with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                run_validation(config, name)
            return
        report = run_validation(config, name)
        assert "spot_check_passed" not in report
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == want

    @pytest.mark.parametrize("name, config, want", BOUNDARY_REFUSALS, ids=[
        f"{name}-a={config['a']}" for name, config, _ in BOUNDARY_REFUSALS
    ])
    def test_boundary_runs_are_refused_before_sampling(self, monkeypatch, name, config, want):
        no_sampling(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(want))}$"):
                run_validation(config, name)

    @pytest.mark.parametrize("t0", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("name", ["storey-clt", "storey-degenerate", "storey-kernel", "plugin-estimated-a"])
    def test_t0_is_checked_before_sampling(self, monkeypatch, name, t0):
        no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=r"^t0 must lie in \(0, 1\)$"):
            run_validation({"t0": t0, "reps": 20, "m": 200}, name)


class TestAsymptoticCoverage:
    @pytest.mark.parametrize("config, match", [
        pytest.param({"alpha": 1.0}, r"^alpha must lie in \(0, 1\)$", id="alpha"),
        pytest.param({"t_min": 1.0}, r"^t_min must lie in \(0, 1\)$", id="t_min"),
        pytest.param({"alpha": 1e-4}, r"below the smallest level .* w=", id="alpha-off-the-table"),
        pytest.param({"t_min": 5e-9}, r"below the first floor .* w=", id="t_min-off-the-table"),
    ])
    @pytest.mark.parametrize("name", ["envelope-coverage", "count-envelope-coverage"])
    def test_alpha_and_t_min_are_checked_before_sampling(self, monkeypatch, name, config, match):
        no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_validation({**config, "reps": 5}, name)


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

    @pytest.mark.parametrize("name", sorted(VALIDATION_TARGETS))
    def test_signature_declares_the_settings_and_other_keys_raise(self, monkeypatch, name):
        scen, *params = inspect.signature(VALIDATION_TARGETS[name]).parameters.values()
        assert isinstance(scen.default, ScenarioConfig)
        assert all(q.kind is q.KEYWORD_ONLY for q in params)
        assert {q.name: q.default for q in params} == SETTINGS[name]
        # the registry entry wrapped the way a profiler wraps it
        calls = []
        body = VALIDATION_TARGETS[name]

        @functools.wraps(body)
        def wrapped(*args, **kwargs):
            calls.append((args, kwargs, body(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setitem(VALIDATION_TARGETS, name, wrapped)
        # at a small config the report echoes every setting the target
        # received, and the scenario it ran, next to what it measured
        small = {"seed": 1, "m": 60, **({} if name == "qinv-kernel-identity" else {"reps": 4})}
        report = run_validation(small, name)
        [((scen_run,), settings, measured)] = calls
        assert settings == {**SETTINGS[name], **{k: v for k, v in small.items() if k in SETTINGS[name]}}
        assert (scen_run.m, scen_run.seed) == (60, 1)
        assert not set(measured) & set(settings)
        assert report == {**settings, **measured, "scenario": scen_run.to_dict(), "target": name,
                          "version": fdpkit.__version__}
        assert _plain_json(report)
        # the report names the run it made: its scenario and settings, read
        # back from its JSON as a config, make the same report
        echoed = json.loads(json.dumps(report))
        assert run_validation({**echoed["scenario"], **{k: echoed[k] for k in settings}}, name) == report
        # an alpha, t0 or t_min outside (0, 1) is refused before anything is drawn
        calls.clear()
        no_sampling(monkeypatch)
        for key in {"alpha", "t0", "t_min"} & set(settings):
            with pytest.raises(ValueError, match=rf"^{key} must lie in \(0, 1\)$"):
                run_validation({key: 1.5}, name)
        accepted = ", ".join(["m", "a", "family", "params", "seed", *SETTINGS[name]])
        with pytest.raises(ValueError) as info:
            run_validation({"seed": 1, "tolerance": 0.0}, name)
        msg = str(info.value)
        assert f"{name!r} takes no key 'tolerance'; it accepts {accepted}" in msg
        assert calls == []

    def test_reps_is_refused_where_nothing_is_sampled(self):
        with pytest.raises(ValueError, match="'qinv-kernel-identity' takes no key 'reps'"):
            run_validation({"reps": 3}, "qinv-kernel-identity")
        with pytest.raises(ValueError, match="takes no key 'rep', 'tolerance';"):
            run_validation({"rep": 5, "tolerance": 0.0}, "qinv-kernel-identity")

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

    @pytest.mark.parametrize("key, value", [("m", 50.9), ("m", 50.0), ("m", True), ("m", "50"),
                                            ("seed", 2.7), ("seed", False), ("seed", None)])
    def test_scenario_integers_are_not_truncated(self, key, value):
        # int() would run m = 50.9 at m = 50 and echo the truncated value
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
            run_validation({key: value, "reps": 20}, "label-set-coverage")

    def test_numpy_integer_scenario_keys_run(self):
        r = run_validation({"m": np.int64(50), "seed": np.int32(2), "reps": 20}, "label-set-coverage")
        assert (r["scenario"]["m"], r["scenario"]["seed"]) == (50, 2)
        assert r == run_validation({"m": 50, "seed": 2, "reps": 20}, "label-set-coverage")

    def test_two_reps_run(self):
        assert run_validation({"reps": 2, "m": 60}, "projection-bound")["reps"] == 2

    @pytest.mark.parametrize("cfg, name", [({"a": 1.0}, "fdp-mean"), ({"a": 0.0}, "fnp-mean")])
    def test_zero_variance_mean_scores_zero(self, cfg, name):
        # every replicate's rate is exactly 0, and so is the expected mean
        r = run_validation({**cfg, "reps": 200}, name)
        assert r["passed"] is True
        for pt in r["points"]:
            assert pt["mean"] == pt["expected"] == 0.0 and pt["zscore"] == 0.0

    @pytest.mark.parametrize("cfg, name, t", [({"a": 0.0}, "fdp-mean", 0.2), ({"a": 1.0}, "fnp-mean", 0.01)])
    def test_equal_replicates_are_scored_with_the_model_se(self, cfg, name, t):
        # at m = 100 every replicate's rate at t is 1 (it is 0 with chance 2e-10 or 3e-13), so the
        # sample SE is 0; the model's SE scores the mean's tiny gap to the expected one
        r = run_validation(cfg, name)
        assert r["passed"] is True
        pt = next(pt for pt in r["points"] if pt["t"] == t)
        assert pt["mean"] == 1.0 > pt["expected"] and 0.0 < pt["zscore"] < 0.01

    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("t", [0.05, 0.4])
    def test_model_se_matches_enumeration(self, a, t):
        # each of m values is a rejected null, a rejected alternative, an
        # unrejected null or an unrejected alternative: sum over the counts
        m, reps = 6, 7
        model = ScenarioConfig(m, a, "one-sided-normal", {"theta": 1.0}).model()
        f = float(model.F.cdf(t))
        probs = [(1 - a) * t, a * f, (1 - a) * (1 - t), a * (1 - f)]
        moments = {"fdp": [0.0, 0.0], "fnp": [0.0, 0.0]}
        for v in range(m + 1):
            for s in range(m + 1 - v):
                for w in range(m + 1 - v - s):
                    counts = [v, s, w, m - v - s - w]
                    pr = math.factorial(m) * math.prod(q**k / math.factorial(k) for q, k in zip(probs, counts))
                    for which, x in (("fdp", v / (v + s) if v + s else 0.0),
                                     ("fnp", counts[3] / (w + counts[3]) if w + counts[3] else 0.0)):
                        moments[which][0] += pr * x
                        moments[which][1] += pr * x * x
        for which, (mean, sq) in moments.items():
            want = math.sqrt(max(sq - mean**2, 0.0) / reps)
            assert _rate_se(model, m, t, which, reps) == pytest.approx(want, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("cfg, name", [({"a": 0.0}, "fdp-kernel"), ({"a": 1.0}, "fdp-kernel"), ({"a": 1.0}, "qhat-kernel")])
    def test_zero_kernel_scores_zero(self, cfg, name):
        # every replicate's value is the same, so the empirical kernel is 0,
        # as is the true one, and 0 of 0 is no error
        r = run_validation({**cfg, "reps": 40, "m": 300}, name)
        assert r["passed"] is True
        for e in r["entries"]:
            assert e["empirical"] == e["expected"] == 0.0 and e["rel_error"] == 0.0

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_storey_clt_with_equal_replicates(self, seed):
        # at m = 1 both replicates give the same estimate, so the standard
        # error of their mean is 0 and the mean, 1.0, is infinitely far off
        r = run_validation({"m": 1, "reps": 2, "seed": seed}, "storey-clt")
        assert r["observed_variance"] == 0.0 and r["observed_mean"] == 1.0
        assert r["mean_zscore"] == np.inf and r["passed"] is False

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
