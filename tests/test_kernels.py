"""Covariance-kernel checks.

Every closed form is re-derived through an independent route: the matrix
entries against indicator covariances from a large simulated sample (plus
the exact additivity identity that ties the four entries to the ECDF
bridge), and each plug-in kernel against a finite-difference delta-method
assembly that never touches the closed form under test.
"""

import numpy as np
import pytest

from fdpkit.families import BetaPower, OneSidedNormal, TwoSidedNormal, make_family
from fdpkit.kernels import KernelSpec, eval_kernel, storey_population_q
from fdpkit.model import MixtureModel, q_derivative, q_inverse, q_map
from fdpkit.rng import stream


def mixed_model(a=0.25, theta=3.0):
    return MixtureModel(a, make_family("one-sided-normal", {"theta": theta}))


def bridge(model, s, t):
    return model.cdf(np.minimum(s, t)) - model.cdf(s) * model.cdf(t)


def fd_partials(f, x, y, h=1e-5):
    """Central-difference gradient of f(x, y)."""
    dx = (f(x + h, y) - f(x - h, y)) / (2 * h)
    dy = (f(x, y + h) - f(x, y - h)) / (2 * h)
    return dx, dy


GRID = np.linspace(0.04, 0.96, 20)


class TestMatrixKernel:
    def test_entries_match_indicator_covariances(self):
        # one observation's (null count, alt count) indicators at a few
        # cutoffs; their exact covariances are what the kernel claims
        model = mixed_model()
        g = stream(901)
        n = 400_000
        u = g.random(n)
        lab = g.random(n) < model.a
        p = np.where(lab, model.F.ppf(u), u)
        cuts = np.array([0.05, 0.2, 0.5])
        rows = [((~lab) & (p <= s)).astype(float) for s in cuts]
        rows += [(lab & (p <= s)).astype(float) for s in cuts]
        emp = np.cov(np.vstack(rows))
        for i, s in enumerate(cuts):
            for j, t in enumerate(cuts):
                pairs = {(0, 0): emp[i, j], (0, 1): emp[i, 3 + j],
                         (1, 0): emp[3 + i, j], (1, 1): emp[3 + i, 3 + j]}
                for comp, observed in pairs.items():
                    spec = KernelSpec("matrix", model, component=comp)
                    assert eval_kernel(spec, s, t) == pytest.approx(observed, abs=5e-3)

    def test_entries_sum_to_ecdf_bridge(self):
        # null + alt indicators add up to the plain ECDF indicator
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        total = sum(
            eval_kernel(KernelSpec("matrix", model, component=c), s, t)
            for c in ((0, 0), (0, 1), (1, 0), (1, 1))
        )
        np.testing.assert_allclose(total, bridge(model, s, t), atol=1e-12)

    def test_pure_cases_reduce_to_single_bridges(self):
        model0 = MixtureModel(0.0, make_family("one-sided-normal", {"theta": 3.0}))
        s, t = np.meshgrid(GRID, GRID)
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("matrix", model0, component=(0, 0)), s, t),
            np.minimum(s, t) - s * t, atol=1e-12)
        model1 = MixtureModel(1.0, make_family("one-sided-normal", {"theta": 3.0}))
        F = model1.F.cdf
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("matrix", model1, component=(1, 1)), s, t),
            F(np.minimum(s, t)) - F(s) * F(t), atol=1e-12)

    def test_cross_symmetry_and_diagonal(self):
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        r01 = eval_kernel(KernelSpec("matrix", model, component=(0, 1)), s, t)
        r10 = eval_kernel(KernelSpec("matrix", model, component=(1, 0)), t, s)
        np.testing.assert_allclose(r01, r10, atol=1e-14)
        for comp in ((0, 0), (1, 1)):
            k = eval_kernel(KernelSpec("matrix", model, component=comp), s, t)
            np.testing.assert_allclose(k, k.T, atol=1e-14)
            assert np.all(np.diag(k) >= 0.0)


class TestRejectionBalanceKernel:
    def test_matches_expanded_form(self):
        # the same covariance written out with minima and products only
        model = mixed_model()
        a, c = model.a, 0.05
        F = model.F.cdf
        s, t = np.meshgrid(GRID, GRID)
        expanded = (1 - a) * (1 - c) * (
            (1 - c) * (np.minimum(s, t) - (1 - a) * s * t)
            + a * c * (t * F(s) + s * F(t))
        ) + a * c * (c * F(np.minimum(s, t)) - a * c * F(s) * F(t))
        got = eval_kernel(KernelSpec("rejection-balance", model, c=c), s, t)
        np.testing.assert_allclose(got, expanded, rtol=1e-12, atol=1e-14)

    def test_matches_weighted_indicator_covariance(self):
        model = mixed_model()
        c = 0.05
        g = stream(902)
        n = 400_000
        u = g.random(n)
        lab = g.random(n) < model.a
        p = np.where(lab, model.F.ppf(u), u)
        cuts = np.array([0.05, 0.2, 0.5])
        rows = [(1 - c) * ((~lab) & (p <= s)) - c * (lab & (p <= s)) for s in cuts]
        emp = np.cov(np.vstack(rows).astype(float))
        spec = KernelSpec("rejection-balance", model, c=c)
        for i, s in enumerate(cuts):
            for j, t in enumerate(cuts):
                assert eval_kernel(spec, s, t) == pytest.approx(emp[i, j], abs=5e-3)

    def test_positive_semidefinite_on_grid(self):
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        k = eval_kernel(KernelSpec("rejection-balance", model, c=0.05), s, t)
        assert np.linalg.eigvalsh(k).min() > -1e-10


class TestFdpKernel:
    def test_delta_method_assembly(self):
        # ratio map h(n0, n1) = n0 / (n0 + n1) applied to the counting
        # pair: gradient (by finite differences) against the matrix kernel
        model = mixed_model()
        a = model.a
        F = model.F.cdf
        h = lambda x, y: x / (x + y)
        spec = {c: KernelSpec("matrix", model, component=c)
                for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
        for s in (0.05, 0.2, 0.5, 0.9):
            gs = fd_partials(h, (1 - a) * s, a * F(s))
            for t in (0.05, 0.2, 0.5, 0.9):
                gt = fd_partials(h, (1 - a) * t, a * F(t))
                assembled = (
                    gs[0] * gt[0] * eval_kernel(spec[0, 0], s, t)
                    + gs[0] * gt[1] * eval_kernel(spec[0, 1], s, t)
                    + gs[1] * gt[0] * eval_kernel(spec[1, 0], s, t)
                    + gs[1] * gt[1] * eval_kernel(spec[1, 1], s, t)
                )
                got = eval_kernel(KernelSpec("fdp", model), s, t)
                assert got == pytest.approx(assembled, rel=1e-6)

    def test_pure_null_weight_kills_kernel(self):
        model = MixtureModel(0.0, make_family("one-sided-normal", {"theta": 3.0}))
        s, t = np.meshgrid(GRID, GRID)
        np.testing.assert_allclose(
            eval_kernel(KernelSpec("fdp", model), s, t), 0.0, atol=1e-15)

    def test_symmetry_and_psd(self):
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        k = eval_kernel(KernelSpec("fdp", model), s, t)
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_spot_value(self):
        # regression pin, validated against simulated covariances
        model = mixed_model()
        got = eval_kernel(KernelSpec("fdp", model), 0.05, 0.05)
        assert got == pytest.approx(0.4566005939, abs=1e-9)


class TestQhatKernel:
    def test_delta_method_assembly(self):
        model = mixed_model()
        a = model.a
        for s in (0.05, 0.2, 0.5, 0.9):
            for t in (0.05, 0.2, 0.5, 0.9):
                h = 1e-6
                ds = ((1 - a) * s / (model.cdf(s) + h) - (1 - a) * s / (model.cdf(s) - h)) / (2 * h)
                dt = ((1 - a) * t / (model.cdf(t) + h) - (1 - a) * t / (model.cdf(t) - h)) / (2 * h)
                assembled = ds * dt * bridge(model, s, t)
                got = eval_kernel(KernelSpec("qhat", model), s, t)
                assert got == pytest.approx(assembled, rel=1e-6)

    def test_symmetry_and_psd(self):
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        k = eval_kernel(KernelSpec("qhat", model), s, t)
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_spot_value(self):
        model = mixed_model()
        got = eval_kernel(KernelSpec("qhat", model), 0.05, 0.05)
        assert got == pytest.approx(0.0551351346, abs=1e-9)


class TestQhatInverseKernel:
    def test_change_of_variables_identity(self):
        # pushing the inverse-map kernel back through the derivative must
        # recover the forward-map kernel
        model = mixed_model()
        Q = q_map(model)
        spec_inv = KernelSpec("qhat-inverse", model)
        spec_fwd = KernelSpec("qhat", model)
        for s in (0.03, 0.1, 0.3, 0.7):
            for t in (0.03, 0.1, 0.3, 0.7):
                u, v = Q(s), Q(t)
                lhs = eval_kernel(spec_inv, u, v) * q_derivative(model, s) * q_derivative(model, t)
                assert lhs == pytest.approx(eval_kernel(spec_fwd, s, t), rel=1e-10)

    def test_arguments_map_back_through_inverse(self):
        model = mixed_model()
        Q = q_map(model)
        for s in (0.05, 0.4):
            assert q_inverse(model, Q(s)) == pytest.approx(s, abs=1e-9)

    def test_domain_is_open_range_of_map(self):
        model = mixed_model()
        spec = KernelSpec("qhat-inverse", model)
        with pytest.raises(ValueError):
            eval_kernel(spec, 0.0, 0.1)
        with pytest.raises(ValueError):
            eval_kernel(spec, 0.1, 1.0 - model.a)


class TestStoreyKernel:
    def test_delta_method_assembly(self):
        # map psi(x, y) = t (1 - x) / ((1 - t0) y) of (ECDF at t0, ECDF at
        # t); gradient by finite differences against the ECDF bridge
        model = mixed_model()
        t0 = 0.5
        G0 = model.cdf(t0)
        spec = KernelSpec("qhat-storey", model, t0=t0)
        for s in (0.05, 0.2, 0.5, 0.9):
            psi_s = lambda x, y, s=s: s * (1 - x) / ((1 - t0) * y)
            gs = fd_partials(psi_s, G0, model.cdf(s))
            for t in (0.05, 0.2, 0.5, 0.9):
                psi_t = lambda x, y, t=t: t * (1 - x) / ((1 - t0) * y)
                gt = fd_partials(psi_t, G0, model.cdf(t))
                sigma = np.array([
                    [bridge(model, t0, t0), bridge(model, t0, t)],
                    [bridge(model, s, t0), bridge(model, s, t)],
                ])
                assembled = np.array(gs) @ sigma @ np.array(gt)
                assert eval_kernel(spec, s, t) == pytest.approx(assembled, rel=1e-6)

    def test_nonzero_under_pure_null(self):
        # estimating the null weight keeps fluctuating even when a = 0
        model = MixtureModel(0.0, make_family("one-sided-normal", {"theta": 3.0}))
        t0 = 0.5
        got = eval_kernel(KernelSpec("qhat-storey", model, t0=t0), 0.2, 0.2)
        sigma = np.array([[t0 * (1 - t0), t0 * (1 - 0.2) * 0 + (min(t0, 0.2) - t0 * 0.2)],
                          [min(0.2, t0) - 0.2 * t0, 0.2 * (1 - 0.2)]])
        g = np.array([-0.2 / ((1 - t0) * 0.2), -0.2 * (1 - t0) / ((1 - t0) * 0.2**2)])
        assert got == pytest.approx(float(g @ sigma @ g), rel=1e-12)
        assert got > 0.0

    def test_symmetry_and_psd(self):
        model = mixed_model()
        s, t = np.meshgrid(GRID, GRID)
        k = eval_kernel(KernelSpec("qhat-storey", model, t0=0.5), s, t)
        np.testing.assert_allclose(k, k.T, rtol=1e-12, atol=1e-14)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_spot_value(self):
        model = mixed_model()
        got = eval_kernel(KernelSpec("qhat-storey", model, t0=0.5), 0.05, 0.05)
        assert got == pytest.approx(0.1284232675, abs=1e-9)


class TestStoreyPopulationMap:
    def test_pure_null_centering_is_one(self):
        model = MixtureModel(0.0, make_family("one-sided-normal", {"theta": 3.0}))
        q_st = storey_population_q(model, 0.5)
        ts = np.linspace(0.01, 1.0, 50)
        np.testing.assert_allclose(q_st(ts), 1.0, atol=1e-12)
        assert q_st(0.0) == 0.0
        # t (1 - G(t0)) underflowed to 0 against (1 - t0) G(t), which gave 0/0
        assert q_st(5e-324) == 1.0

    def test_mixed_model_value(self):
        model = mixed_model()
        q_st = storey_population_q(model, 0.5)
        t = 0.3
        expected = t * (1 - model.cdf(0.5)) / ((1 - 0.5) * model.cdf(t))
        assert q_st(t) == pytest.approx(expected, rel=1e-14)

    def test_t0_validation(self):
        with pytest.raises(ValueError):
            storey_population_q(mixed_model(), 0.0)
        with pytest.raises(ValueError):
            storey_population_q(mixed_model(), 1.0)


class TestPureNull:
    # at a = 0 the alternative has no effect: the pure null's kernels, whose
    # alternative is the uniform, are those of any family at weight 0
    S, T = np.meshgrid([0.01, 0.2, 0.5, 0.9, 1.0], [0.05, 0.3, 0.7, 1.0], indexing="ij")

    @pytest.mark.parametrize("family", [OneSidedNormal(3.0), TwoSidedNormal(2.0), BetaPower(0.5)], ids=repr)
    @pytest.mark.parametrize("kind, settings", [
        *(("matrix", {"component": c}) for c in ((0, 0), (0, 1), (1, 0), (1, 1))),
        ("rejection-balance", {"c": 0.05}), ("fdp", {}), ("qhat", {}), ("qhat-storey", {"t0": 0.5}),
    ])
    def test_family_has_no_effect_at_weight_zero(self, kind, settings, family):
        want = eval_kernel(KernelSpec(kind, MixtureModel(0.0), **settings), self.S, self.T)
        got = eval_kernel(KernelSpec(kind, MixtureModel(0.0, family), **settings), self.S, self.T)
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(got, want)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KernelSpec("mystery", mixed_model())

    def test_matrix_needs_component(self):
        with pytest.raises(ValueError, match="component"):
            KernelSpec("matrix", mixed_model())

    def test_balance_needs_weight(self):
        with pytest.raises(ValueError):
            KernelSpec("rejection-balance", mixed_model())
        with pytest.raises(ValueError):
            KernelSpec("rejection-balance", mixed_model(), c=1.0)

    def test_storey_needs_t0(self):
        with pytest.raises(ValueError, match=r"^t0 must lie in \(0, 1\)$"):
            KernelSpec("qhat-storey", mixed_model())

    def test_process_kernels_reject_zero_and_past_one(self):
        model = mixed_model()
        for kind in ("fdp", "qhat", "qhat-storey"):
            spec = KernelSpec(kind, model, t0=0.5 if kind == "qhat-storey" else None)
            with pytest.raises(ValueError):
                eval_kernel(spec, 0.0, 0.5)
            with pytest.raises(ValueError):
                eval_kernel(spec, 0.5, 1.5)
