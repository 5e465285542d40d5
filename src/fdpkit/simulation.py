"""Scenario sampling and the named Monte Carlo validation targets.

Each target checks one quantitative claim of the toolkit (a mean formula, a
limiting covariance, a coverage level, a deterministic bound) against an
independent route — closed forms against simulation, estimators against the
truth they estimate — and returns a small JSON-friendly report.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import get_type_hints

import numpy as np

from . import __version__
from .envelopes import _AsymptoticCurve, _second_order_check, brownian_sup_quantile
from .estimation import (_astar_rows, _is_integer, _qhat, _require_open_unit, _storey, ecdf, kernel_a_consistent,
                         project_f)
from .families import TwoSidedNormal, UserCdf, make_family
from .kernels import KernelSpec, eval_kernel
from .model import LabeledSample, MixtureModel, expected_fdp_fnp, q_derivative, q_inverse, q_map, qtilde_map
from .rng import _in_parts, _uniform_into, stream, uniform_open
from .stepfun import _elementwise
from .thresholds import _plugin, oracle_threshold, plugin_threshold, rate_ceiling_known_a

__all__ = [
    "ScenarioConfig",
    "generate_sample",
    "PurityQuantities",
    "purity_quantities",
    "pvalue_density_two_sided_normal",
    "run_validation",
    "VALIDATION_TARGETS",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """A sampling scenario: m p-values from the two-group mixture with
    alternative weight a and the named alternative family."""

    m: int
    a: float
    family: str = "one-sided-normal"
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Each field `d` holds, cast to the field's type; the rest keep their
        defaults.  An integer field refuses a bool or any other non-integer."""
        types = get_type_hints(cls)
        for k in types:
            if types[k] is int and k in d and not _is_integer(d[k]):
                raise ValueError(f"{k} must be an integer, got {d[k]!r}")
        return cls(**{k: types[k](d[k]) for k in types if k in d})

    def model(self) -> MixtureModel:
        if self.a == 0.0:
            return MixtureModel(0.0, None)  # pure null: no family needed
        return MixtureModel(self.a, make_family(self.family, self.params))


def _draw(config: ScenarioConfig, model: MixtureModel, key: int | range, shape):
    """(pvalues, labels) of the given shape from the stream (seed, key):
    labels first, then uniforms, then the alternative quantile function on the
    labelled ones; each CPU's part of a block's rows draws all three on its
    own thread, rep-keyed rows are drawn on this one (see `fdpkit.rng`)."""
    if isinstance(key, range):  # one row per key i: m label uniforms, then m p-values, from the stream (seed, i)
        u = np.stack([uniform_open(stream(config.seed, i), (2, config.m)) for i in key], axis=1)
        lab, p = u[0] < config.a, u[1]
        _to_alternatives(model, p, lab)
    else:
        p, lab = np.empty(shape), np.zeros(shape, dtype=bool)
        rows, labs = p.reshape(-1, p.shape[-1]), lab.reshape(-1, p.shape[-1])

        def part(lo, hi):  # the label uniforms go through the p-value rows
            u, h, at = rows[lo:hi], labs[lo:hi], lo * rows.shape[1]
            if config.a > 0.0:  # at a = 0 every label is False (a uniform is never 0)
                _uniform_into(u, config.seed, key, at)
                np.less(u, config.a, out=h)
            _uniform_into(u, config.seed, key, p.size + at)  # the p-values start p.size doubles in
            _to_alternatives(model, u, h)

        _in_parts(len(rows), part)
    return p, lab


def _to_alternatives(model: MixtureModel, p, lab):
    """Replace the labelled values of the C-contiguous `p` by their alternative quantiles."""
    flat, idx = p.reshape(-1), np.flatnonzero(lab)  # an index scatters faster than a mask
    for lo in range(0, idx.size, 1 << 14):  # a larger call keeps MBs in a worker thread's malloc arena
        at = idx[lo : lo + (1 << 14)]
        flat[at] = model.F.ppf(flat[at])


def generate_sample(config: ScenarioConfig, rep_index: int) -> LabeledSample:
    """Draw one labeled sample; reproducible per (seed, rep_index) and
    independent across rep indices."""
    p, lab = _draw(config, config.model(), range(rep_index, rep_index + 1), None)
    return LabeledSample(pvalues=p[0], labels=lab[0].astype(np.int8))


def _rep_blocks(config: ScenarioConfig, model: MixtureModel, reps: int):
    """Yield (pvalues, labels) blocks of about 25 000 values whose rows are
    the samples 0, ..., reps - 1 of `generate_sample`, whatever m or reps."""
    block = max(1, 25_000 // config.m)
    for lo in range(0, reps, block):
        yield _draw(config, model, range(lo, min(lo + block, reps)), None)


def _blocks(config: ScenarioConfig, model: MixtureModel, reps: int, block: int | None = None):
    """Yield (pvalues, labels) matrices of up to `block` rows, rows being
    independent replications.  Streams are keyed by block index, so a row
    depends on the block size (and through it on m and reps) and is not the
    sample `generate_sample` draws for the same index (`_rep_blocks`'s are)."""
    if block is None:
        block = max(1, min(reps, 1_000_000 // config.m))
    for idx, done in enumerate(range(0, reps, block)):
        yield _draw(config, model, idx, (min(block, reps - done), config.m))


@dataclass(frozen=True)
class PurityQuantities:
    """The identifiable part of the mixture: zeta = 1 - inf f is the purity
    of the alternative density, a * zeta the identifiable weight floor, and
    f_lower the recentered alternative CDF (None for a pure-null zeta=0)."""

    zeta: float
    a_lower: float
    f_lower: object


def purity_quantities(model: MixtureModel) -> PurityQuantities:
    fam = model.F
    if fam.pdf is None:
        raise ValueError("alternative family has no density")
    grid = np.unique(np.r_[np.linspace(0.0, 1.0, 10_001), 1.0 - np.geomspace(1e-12, 1e-4, 200)])
    f = np.asarray(fam.pdf(grid), dtype=float)
    inf_f = float(np.min(np.r_[f, fam.pdf(1.0)]))
    zeta = float(np.clip(1.0 - inf_f, 0.0, 1.0))
    a_lower = model.a * zeta
    if zeta <= 0.0:
        return PurityQuantities(zeta=zeta, a_lower=a_lower, f_lower=None)

    f_lower = _elementwise(lambda t: (fam.cdf(t) - (1.0 - zeta) * t) / zeta)
    return PurityQuantities(zeta=zeta, a_lower=a_lower, f_lower=f_lower)


def pvalue_density_two_sided_normal(theta: float, n: int, p) -> float:
    """Density of the p-value of a two-sided normal test at effect theta
    with n observations."""
    arr = np.asarray(p, dtype=float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0)):
        raise ValueError("p must lie in [0, 1]")
    return TwoSidedNormal(theta, n).pdf(p)


# ---------------------------------------------------------------------------
# Validation targets.
# ---------------------------------------------------------------------------


_SCENARIO_KEYS = tuple(f.name for f in fields(ScenarioConfig))


def _standard(m: int) -> ScenarioConfig:
    """The standard scenario: a quarter of m p-values from a one-sided
    normal test at theta = 3."""
    return ScenarioConfig(m, 0.25, "one-sided-normal", {"theta": 3.0})


def _rates(p, lab, t):
    """Realized (FDP, FNP) per row of p-values `p` with 0/1 alternative
    labels `lab` when p <= t is rejected, t being a scalar or one value per
    row.  FDP is 0 when nothing is rejected and FNP is 0 when everything
    is; all counts are integers, so each ratio is the correctly rounded
    quotient."""
    below = p <= np.asarray(t)[..., None]
    # rejections, rejected alternatives, alternatives; int32 sums of
    # booleans run about 1.5x faster than the default int64 ones
    r, n1, m1 = (x.sum(axis=-1, dtype=np.int32) for x in (below, below & lab, lab))
    m = p.shape[-1]
    fdp = np.where(r > 0, (r - n1) / np.maximum(r, 1), 0.0)
    fnp = np.where(r < m, (m1 - n1) / np.maximum(m - r, 1), 0.0)
    return fdp, fnp


def _coverage(blocks, hit, gate, **extra):
    """Share of the rows of the (pvalues, labels) `blocks` on which
    `hit(pvalues, labels)`, row-wise, holds, passed when it reaches `gate`."""
    hits = np.concatenate([hit(p, lab) for p, lab in blocks])
    coverage = int(np.count_nonzero(hits)) / hits.size
    return {"passed": bool(coverage >= gate), "coverage": float(coverage), **extra}


def _zscore(observed, expected, se):
    """|observed - expected| / se; at se = 0, 0 if the two agree and inf if not."""
    return abs(observed - expected) / se if se > 0 else (0.0 if observed == expected else np.inf)


def _bound_holds(blocks, sides, cushion):
    """Whether lhs <= rhs + cushion on every row of p-values of `blocks`,
    `sides(row)` giving (lhs, rhs), with the worst lhs - rhs."""
    pairs = [sides(row) for p, _ in blocks for row in p]
    holds = sum(int(lhs <= rhs + cushion) for lhs, rhs in pairs)
    worst = max(-np.inf, *(lhs - rhs for lhs, rhs in pairs))
    return {"passed": bool(holds == len(pairs)), "holds": holds, "worst_margin": float(worst)}


def _rate_se(model, m, t, which, reps):
    """The model's standard error of the mean of `reps` FDPs (or FNPs) at t
    over samples of m.  Given R = r > 0 rejections (or non-rejections), the
    nulls among them (or the alternatives) are Bin(r, pi), pi being Q(t) (or
    Qtilde(t)), so with P = P(R > 0) the variance is
    pi^2 P (1 - P) + pi (1 - pi) E[1/R; R > 0]."""
    from scipy.stats import binom

    g = model.cdf(t)
    if which == "fdp":
        pi, share = q_map(model)(t), g
    else:  # at G(t) = 1 nothing is left unrejected
        pi, share = (qtilde_map(model)(t) if g < 1.0 else 0.0), 1.0 - g
    r = np.arange(1, m + 1)
    none = (1.0 - share) ** m
    var = pi**2 * none * (1.0 - none) + pi * (1.0 - pi) * np.sum(binom.pmf(r, m, share) / r)
    return float(np.sqrt(var / reps))


def _process_mean(which, scen=_standard(100), *, reps=100_000, ts=(0.01, 0.05, 0.2), sigmas=3.0):
    model = scen.model()
    ts = [float(t) for t in ts]
    sums = np.zeros(len(ts))
    sqs = np.zeros(len(ts))
    for p, lab in _blocks(scen, model, reps):
        for j, t in enumerate(ts):
            vals = _rates(p, lab, t)[0 if which == "fdp" else 1]
            sums[j] += vals.sum()
            sqs[j] += (vals**2).sum()
    means = sums / reps
    ses = np.sqrt(np.maximum(sqs / reps - means**2, 0.0) / (reps - 1))
    rows = []
    ok = True
    for j, t in enumerate(ts):
        ex = expected_fdp_fnp(model, scen.m, t)
        expected = ex[0] if which == "fdp" else ex[1]
        # where every replicate is equal (FDP at a = 0, FNP at a = 1, wide t) the sample SE is 0: use the model's
        z = _zscore(means[j], expected, ses[j] or _rate_se(model, scen.m, t, which, reps))
        rows.append(
            {"t": t, "mean": float(means[j]), "expected": float(expected), "zscore": float(z)}
        )
        ok = ok and z <= sigmas
    return {"passed": bool(ok), "points": rows}


def _target_storey_clt(scen=_standard(5000), *, reps=2000, t0=0.5, rel_tol=0.10, sigmas=3.0):
    model = scen.model()
    raws = np.concatenate([_storey(p, t0)[1] for p, _ in _blocks(scen, model, reps)])
    g0 = model.cdf(t0)
    a0 = (g0 - t0) / (1.0 - t0)
    mean = float(np.mean(raws))
    mean_se = float(np.std(raws, ddof=1) / np.sqrt(reps))
    mean_z = _zscore(mean, a0, mean_se)
    expected = g0 * (1.0 - g0) / (1.0 - t0) ** 2
    observed = float(scen.m * np.var(raws, ddof=1))
    rel = abs(observed - expected) / expected
    return {
        "passed": bool(rel <= rel_tol and mean_z <= sigmas),
        "observed_variance": observed,
        "expected_variance": float(expected),
        "rel_error": float(rel),
        "observed_mean": mean,
        "expected_mean": float(a0),
        "mean_zscore": float(mean_z),
    }


def _target_storey_degenerate(
    scen=ScenarioConfig(10_000, 0.0), *, reps=10_000, t0=0.5, half_tol=0.02, sigmas=4.0
):
    if scen.a == 1.0:
        raise ValueError(f"storey-degenerate checks the pure null, and no p-value is null at a = {scen.a!r}")
    from scipy.special import betainc

    model = scen.model()
    hits = sum(int(np.count_nonzero(_storey(p, t0)[2] == 0.0)) for p, _ in _blocks(scen, model, reps))
    observed = hits / reps
    # under a pure-null sample the clamp fires iff Bin(m, t0) <= k = floor(m t0);
    # P(Bin(m, t0) <= k) = I_{1 - t0}(m - k, k + 1), the regularized beta
    k = np.floor(scen.m * t0)
    expected = float(betainc(scen.m - k, k + 1.0, 1.0 - t0))
    se = np.sqrt(expected * (1.0 - expected) / reps)
    z = _zscore(observed, expected, se)
    return {
        "passed": bool(z <= sigmas and abs(observed - 0.5) <= half_tol),
        "observed_mass_at_zero": float(observed),
        "expected_mass_at_zero": expected,
        "zscore": float(z),
    }


def _target_null_floor_coverage(scen=_standard(500), *, alpha=0.05, variant="plain", reps=1000, gate=0.94):
    model = scen.model()
    floor = purity_quantities(model).a_lower
    return _coverage(
        _rep_blocks(scen, model, reps), lambda p, lab: _astar_rows(p, alpha, variant) <= floor + 1e-12, gate,
        a_lower_true=float(floor),
    )


def _sup_step_vs_cdf(sf, knots, cdf):
    """Exact sup |step - continuous cdf| via the step function's one-sided
    values at the jumps and at 0 and 1."""
    ts = np.unique(np.r_[knots, 0.0, 1.0])
    c = cdf(ts)
    return float(max(np.abs(np.asarray(sf(ts)) - c).max(), np.abs(np.asarray(sf.left(ts)) - c).max()))


def _target_projection_bound(scen=ScenarioConfig(2000, 0.5, "square-root"), *, reps=100):
    if scen.a == 0.0:
        raise ValueError(f"projection-bound divides by the weight a, and it is 0 at a = {scen.a!r}")
    model = scen.model()

    def sides(p):
        ghat = ecdf(p, "plain")
        fhat = project_f(ghat, scen.a)
        knots = np.unique(np.r_[ghat.base.knots, fhat.knots, 1.0])
        lhs = _sup_step_vs_cdf(fhat, knots, model.F.cdf)
        return lhs, 2.0 * _sup_step_vs_cdf(ghat, knots, model.cdf) / scen.a

    return _bound_holds(_rep_blocks(scen, model, reps), sides, 1e-12)


def _target_lcm_contraction(scen=ScenarioConfig(500, 0.5, "square-root"), *, reps=100, cushion=1e-6):
    model = scen.model()
    dense = np.linspace(0.0, 1.0, 4001)

    def sides(p):
        gh = ecdf(p, "lcm")
        ts = np.unique(np.r_[dense, gh.hull.x, gh.base.knots])
        err_lcm = float(np.abs(np.asarray(gh(ts)) - model.cdf(ts)).max())
        return err_lcm, _sup_step_vs_cdf(gh.base, gh.base.knots, model.cdf)

    return _bound_holds(_rep_blocks(scen, model, reps), sides, cushion)


def _kernel_target(kind, scen=_standard(5000), *, reps=2000, points=(0.05, 0.1, 0.2), rel_tol=0.15, t0=0.5):
    if kind == "qhat-storey" and scen.a == 0.0:
        raise ValueError("storey-kernel has no Gaussian limit where the tail-count estimate's clamp at 0 "
                         f"binds about half the time, as it does at a = {scen.a!r}")
    model = scen.model()
    spec = KernelSpec(kind, model, t0=t0)  # checks t0 of qhat-storey before anything is drawn
    pts = np.asarray(points, dtype=float)

    def rows(p, lab):  # a block's values at each point, one row per replication
        one_minus = 1.0 - (_storey(p, t0)[2] if kind == "qhat-storey" else scen.a)
        return np.stack([
            _rates(p, lab, t)[0] if kind == "fdp" else _qhat(np.count_nonzero(p <= t, axis=-1) / scen.m, t, one_minus)
            for t in pts
        ], axis=-1)

    vals = np.concatenate([rows(p, lab) for p, lab in _blocks(scen, model, reps, block=max(1, 500_000 // scen.m))])
    emp = scen.m * np.cov(vals, rowvar=False)
    entries = []
    ok = True
    for i in range(pts.size):
        for j in range(i, pts.size):
            true = float(eval_kernel(spec, pts[i], pts[j]))
            rel = _zscore(emp[i, j], true, abs(true))
            entries.append(
                {
                    "s": float(pts[i]),
                    "t": float(pts[j]),
                    "empirical": float(emp[i, j]),
                    "expected": true,
                    "rel_error": float(rel),
                }
            )
            ok = ok and rel <= rel_tol
    return {"passed": bool(ok), "entries": entries}


def _target_qinv_kernel_identity(scen=_standard(100), *, tol=1e-10, points=(0.1, 0.2, 0.3)):
    if scen.a == 0.0:
        raise ValueError(f"qinv-kernel-identity inverts Q, and Q is 1 everywhere at a = {scen.a!r}")
    if scen.a == 1.0:
        raise ValueError(f"qinv-kernel-identity inverts Q on (0, 1 - a), and that range is empty at a = {scen.a!r}")
    model = scen.model()
    us = np.asarray(points, dtype=float)
    xs = q_inverse(model, us)
    dq = q_derivative(model, xs)
    closed = eval_kernel(KernelSpec("qhat-inverse", model), us[:, None], us[None, :])
    via_map = eval_kernel(KernelSpec("qhat", model), xs[:, None], xs[None, :]) / np.outer(dq, dq)
    worst = np.max(np.abs(closed - via_map), initial=0.0)
    entries = [
        {"u": float(u), "v": float(v), "closed": float(closed[i, j]), "via_map": float(via_map[i, j])}
        for i, u in enumerate(us)
        for j, v in enumerate(us)
    ]
    return {"passed": bool(worst <= tol), "worst_abs_diff": float(worst), "entries": entries}


def _plugin_target(estimated, scen=_standard(5000), *, reps=2000, alpha=0.05, t0=0.5, tol=0.01):
    # mean FDP of the plug-in rule at the known weight a, or at the
    # exceedance-ratio estimate at t0
    if not estimated and scen.a == 1.0:
        raise ValueError(f"plugin-known-a expects a mean FDP of alpha, but with no nulls it is 0 at a = {scen.a!r}")
    model = scen.model()
    total = 0.0
    for p, lab in _blocks(scen, model, reps):
        one_minus = 1.0 - (_storey(p, t0)[2] if estimated else scen.a)
        total += float(_rates(p, lab, _plugin(p, one_minus, alpha)[2])[0].sum())
    mean = total / reps
    ok = mean <= alpha + tol if estimated else abs(mean - alpha) <= tol
    return {"passed": bool(ok), "mean_fdp": float(mean)}


def _target_rate_ceiling_known_a(scen=_standard(10_000), *, reps=5000, c=0.05, alpha=0.05, band=(0.93, 0.97)):
    if scen.a == 0.0:
        raise ValueError(f"rate-ceiling-known-a has threshold 0 and coverage 1 by construction at a = {scen.a!r}")
    if scen.a == 1.0:
        raise ValueError(f"rate-ceiling-known-a bounds false discoveries, and no p-value is null at a = {scen.a!r}")
    model = scen.model()
    thr = rate_ceiling_known_a(model, scen.m, c, alpha)
    hits = sum(int((_rates(p, lab, thr.t)[0] <= c).sum()) for p, lab in _blocks(scen, model, reps))
    coverage = hits / reps
    return {
        "passed": bool(band[0] <= coverage <= band[1]),
        "coverage": float(coverage),
        "threshold": float(thr.t),
    }


def _asymptotic_coverage(kind, scen=_standard(1000), *, alpha=0.05, t0=0.5, t_min=1e-4, reps=1000, gate=0.94):
    # kind "fdp": the band covers the realized FDP at every p-value at or
    # above t_min; kind "count": the count bound m V covers the number
    # of nulls at or below each null p-value there.  w is the same on every
    # sample, so it is asked for once, before anything is drawn.
    w = brownian_sup_quantile(alpha / 2.0, t_min)
    m = scen.m

    def hit(p, lab):
        # Each row sorted with t_min, which counts no p-value: rejections and
        # rejected nulls are cumulative sums, right at the last of a tie.  The
        # count checked at the alternatives too adds no failure: it stays put.
        x = np.c_[p, np.full(len(p), t_min)]
        order = np.argsort(x, axis=-1)
        t = np.take_along_axis(x, order, axis=-1)
        r = np.cumsum(order < m, axis=-1)
        n0 = np.cumsum(np.take_along_axis(np.c_[~lab, np.zeros(len(p), dtype=bool)], order, axis=-1), axis=-1)
        curve = _AsymptoticCurve.fit(_storey(p, t0)[0][:, None], m, t0, alpha, t_min, w)
        if kind == "fdp":
            truth, bound = np.where(r > 0, n0 / np.maximum(r, 1), 0.0), curve.values(t, r / m)
        else:
            truth, bound = n0, replace(curve, kind="j").values(t, None)
        checked = (np.diff(t, axis=-1, append=2.0) > 0.0) & (t >= t_min)
        return np.all(truth <= bound + 1e-12, axis=-1, where=checked)

    return _coverage(_rep_blocks(scen, scen.model(), reps), hit, gate)


def _target_label_set_coverage(scen=_standard(50), *, alpha=0.05, reps=1000, gate=0.94):
    # ExactConfidenceSet.contains' rule on each row's nulls padded with +inf
    def hit(p, lab):
        return _second_order_check(np.where(lab, np.inf, p), alpha)[1]

    return _coverage(_rep_blocks(scen, scen.model(), reps), hit, gate)


def _target_achievable_oracle(
    scen=ScenarioConfig(2000, 0.25, "two-sided-normal", {"theta": 3.0}), *, reps=300, alpha=0.05, tol=0.02
):
    # nonidentifiable two-sided family: the plug-in rule driven by a
    # consistent estimate of the weight floor should track the achievable
    # oracle threshold t(a_lower, G) in both mean FDP and mean FNP
    model = scen.model()
    pq = purity_quantities(model)
    if pq.a_lower == 0.0:
        raise ValueError(f"achievable-oracle needs a weight floor above 0, and it is 0 at a = {scen.a!r}")
    achievable = MixtureModel(pq.a_lower, UserCdf(pq.f_lower))
    t_ao = oracle_threshold(achievable, alpha).t
    sums = np.zeros(4)
    for p, lab in _rep_blocks(scen, model, reps):
        for row, row_lab in zip(p, lab):
            t_pi = plugin_threshold(row, kernel_a_consistent(row).value, alpha).t
            fdp, fnp = _rates(row, row_lab, np.array([t_pi, t_ao]))
            sums += (fdp[0], fnp[0], fdp[1], fnp[1])
    means = sums / reps
    fdp_gap = abs(means[0] - means[2])
    fnp_gap = abs(means[1] - means[3])
    return {
        "passed": bool(means[0] <= alpha + tol and fdp_gap <= tol and fnp_gap <= tol),
        "mean_fdp_plugin": float(means[0]),
        "mean_fnp_plugin": float(means[1]),
        "mean_fdp_achievable": float(means[2]),
        "mean_fnp_achievable": float(means[3]),
        "threshold_achievable": float(t_ao),
        "fdp_gap": float(fdp_gap),
        "fnp_gap": float(fnp_gap),
    }


# Each target is a callable f(scen, **settings).  Its signature declares
# everything a config may set: the default scenario is the default of its
# one positional parameter, and the settings with their defaults are its
# keyword-only parameters.
VALIDATION_TARGETS = {
    "fdp-mean": partial(_process_mean, "fdp"),
    "fnp-mean": partial(_process_mean, "fnp"),
    "storey-clt": _target_storey_clt,
    "storey-degenerate": _target_storey_degenerate,
    "null-floor-coverage": _target_null_floor_coverage,
    "projection-bound": _target_projection_bound,
    "lcm-contraction": _target_lcm_contraction,
    "fdp-kernel": partial(_kernel_target, "fdp"),
    "qhat-kernel": partial(_kernel_target, "qhat"),
    "qinv-kernel-identity": _target_qinv_kernel_identity,
    "storey-kernel": partial(_kernel_target, "qhat-storey"),
    "plugin-known-a": partial(_plugin_target, False),
    "plugin-estimated-a": partial(_plugin_target, True),
    "rate-ceiling-known-a": _target_rate_ceiling_known_a,
    "envelope-coverage": partial(_asymptotic_coverage, "fdp"),
    "count-envelope-coverage": partial(_asymptotic_coverage, "count"),
    "label-set-coverage": _target_label_set_coverage,
    "achievable-oracle": _target_achievable_oracle,
}


def _as_type_of(default, value):
    """A config value read as the type of the setting's default; a tuple setting as a tuple of floats."""
    return tuple(map(float, value)) if isinstance(default, tuple) else type(default)(value)


def run_validation(config: dict, target: str) -> dict:
    """Run one named validation target with the given configuration and
    return its JSON-friendly report (identical bytes for identical input).

    Every target accepts the scenario keys ``m``, ``a``, ``family``,
    ``params`` and ``seed`` plus its own settings (see the README table).
    Each scenario key given replaces the default scenario's, but a
    ``family`` other than the default's takes ``params`` from the config
    alone, ``{}`` if it gives none.  A scalar setting is converted to the
    type of its default, and a tuple setting to a tuple of floats.  Any
    other key is an error, raised before anything is sampled: ``reps``, for
    one, is refused by ``qinv-kernel-identity``, which draws no samples.  So
    is a family parameter that is missing or not taken, and an ``alpha``,
    ``t0`` or ``t_min`` outside (0, 1).

    The report holds every resolved setting, what the target measured, the
    resolved ``scenario``, the ``target`` name and the package ``version``.
    """
    if target not in VALIDATION_TARGETS:
        known = ", ".join(sorted(VALIDATION_TARGETS))
        raise ValueError(f"unknown validation target {target!r}; known targets: {known}")
    fn = VALIDATION_TARGETS[target]
    scen_param, *params = inspect.signature(fn).parameters.values()
    defaults = {q.name: q.default for q in params}
    unknown = [k for k in config if k not in defaults and k not in _SCENARIO_KEYS]
    if unknown:
        accepted = ", ".join([*_SCENARIO_KEYS, *defaults])
        raise ValueError(
            f"validation target {target!r} takes no key {', '.join(map(repr, unknown))}; it accepts {accepted}"
        )
    if "reps" in config:
        reps = config["reps"]
        if not _is_integer(reps) or reps < 2:
            raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    default = scen_param.default.to_dict()
    if config.get("family", default["family"]) != default["family"]:
        del default["params"]  # another family brings its own params, else none
    scen = ScenarioConfig.from_dict({**default, **{k: config[k] for k in _SCENARIO_KEYS if k in config}})
    settings = {k: _as_type_of(d, config[k]) if k in config else d for k, d in defaults.items()}
    for k in ("alpha", "t0", "t_min"):
        if k in settings:
            _require_open_unit(k, settings[k])
    measured = fn(scen, **settings)
    return {**settings, **measured, "scenario": scen.to_dict(), "target": target, "version": __version__}
