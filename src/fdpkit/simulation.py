"""Scenario sampling and the named Monte Carlo validation targets.

Each target checks one quantitative claim of the toolkit (a mean formula, a
limiting covariance, a coverage level, a deterministic bound) against an
independent route — closed forms against simulation, estimators against the
truth they estimate — and returns a small JSON-friendly report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelopes import asymptotic_envelope, exact_confidence_set
from .estimation import _require_open_unit, astar_lower, ecdf, kernel_a_consistent, project_f, storey_a0
from .families import TwoSidedNormal, UserCdf, make_family
from .kernels import KernelSpec, eval_kernel
from .model import LabeledSample, MixtureModel, expected_fdp_fnp, fdp_process, q_derivative, q_inverse
from .rng import stream, uniform_open
from .thresholds import _step_up, oracle_threshold, plugin_threshold, rate_ceiling_known_a

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
        return {
            "m": self.m,
            "a": self.a,
            "family": self.family,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(
            m=int(d["m"]),
            a=float(d["a"]),
            family=str(d.get("family", "one-sided-normal")),
            params=dict(d.get("params", {})),
            seed=int(d.get("seed", 0)),
        )

    def model(self) -> MixtureModel:
        if self.a == 0.0:
            return MixtureModel(0.0, None)  # pure null: no family needed
        return MixtureModel(self.a, make_family(self.family, self.params))


def _draw(config: ScenarioConfig, model: MixtureModel, key: int, shape):
    """(pvalues, labels) of the given shape from the stream (seed, key):
    labels first, then uniforms, then the alternative quantile function on
    the labelled ones."""
    rng = stream(config.seed, key)
    lab = uniform_open(rng, shape) < config.a
    p = uniform_open(rng, shape)
    if model.F is not None:
        p[lab] = model.F.ppf(p[lab])
    return p, lab


def generate_sample(config: ScenarioConfig, rep_index: int) -> LabeledSample:
    """Draw one labeled sample; reproducible per (seed, rep_index) and
    independent across rep indices."""
    p, lab = _draw(config, config.model(), rep_index, config.m)
    return LabeledSample(pvalues=p, labels=lab.astype(np.int8))


def _blocks(config: ScenarioConfig, model: MixtureModel, reps: int, block: int | None = None):
    """Yield (pvalues, labels) matrices of up to `block` rows, rows being
    independent replications.  Streams are keyed by block index, so a row
    depends on the block size (and through it on m and reps) and is not the
    sample `generate_sample` draws for the same index."""
    if block is None:
        block = max(1, min(reps, 1_000_000 // max(config.m, 1)))
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

    def f_lower(t):
        t = np.asarray(t, dtype=float)
        out = (fam.cdf(t) - (1.0 - zeta) * t) / zeta
        return out if out.ndim else float(out)

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


def _scenario(config: dict, **defaults) -> ScenarioConfig:
    merged = dict(defaults)
    merged.update({k: config[k] for k in ("m", "a", "family", "params", "seed") if k in config})
    return ScenarioConfig.from_dict(merged)


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


def _storey_rows(p, t0):
    """Unclamped exceedance-ratio estimate (Ghat(t0) - t0) / (1 - t0) per row."""
    return ((p <= t0).sum(axis=1) / p.shape[1] - t0) / (1.0 - t0)


def _coverage(config, scen, hit, **extra):
    """Share of the `reps` samples of `scen` on which `hit(sample)` holds,
    passed when it reaches `gate`."""
    reps = int(config.get("reps", 1000))
    gate = float(config.get("gate", 0.94))
    hits = sum(bool(hit(generate_sample(scen, i))) for i in range(reps))
    coverage = hits / reps
    return {"passed": bool(coverage >= gate), "coverage": float(coverage), "gate": gate, "reps": reps, **extra}


def _target_fdp_mean(config):
    return _process_mean(config, which="fdp")


def _target_fnp_mean(config):
    return _process_mean(config, which="fnp")


def _process_mean(config, which):
    scen = _scenario(config, m=100, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 100_000))
    ts = [float(t) for t in config.get("ts", (0.01, 0.05, 0.2))]
    sigmas = float(config.get("sigmas", 3.0))
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
        z = abs(means[j] - expected) / ses[j] if ses[j] > 0 else (0.0 if means[j] == expected else np.inf)
        rows.append(
            {"t": t, "mean": float(means[j]), "expected": float(expected), "zscore": float(z)}
        )
        ok = ok and z <= sigmas
    return {"passed": bool(ok), "sigmas": sigmas, "reps": reps, "points": rows}


def _target_storey_clt(config):
    scen = _scenario(config, m=5000, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 2000))
    t0 = float(config.get("t0", 0.5))
    rel_tol = float(config.get("rel_tol", 0.10))
    sigmas = float(config.get("sigmas", 3.0))
    raws = np.concatenate([_storey_rows(p, t0) for p, _ in _blocks(scen, model, reps)])
    g0 = model.cdf(t0)
    a0 = (g0 - t0) / (1.0 - t0)
    mean = float(np.mean(raws))
    mean_se = float(np.std(raws, ddof=1) / np.sqrt(reps))
    mean_z = abs(mean - a0) / mean_se
    expected = g0 * (1.0 - g0) / (1.0 - t0) ** 2
    observed = float(scen.m * np.var(raws, ddof=1))
    rel = abs(observed - expected) / expected
    return {
        "passed": bool(rel <= rel_tol and mean_z <= sigmas),
        "observed_variance": observed,
        "expected_variance": float(expected),
        "rel_error": float(rel),
        "rel_tol": rel_tol,
        "observed_mean": mean,
        "expected_mean": float(a0),
        "mean_zscore": float(mean_z),
        "sigmas": sigmas,
        "reps": reps,
        "t0": t0,
    }


def _target_storey_degenerate(config):
    from scipy.special import betainc

    scen = _scenario(config, m=10_000, a=0.0)
    model = scen.model()
    reps = int(config.get("reps", 10_000))
    t0 = float(config.get("t0", 0.5))
    _require_open_unit("t0", t0)
    half_tol = float(config.get("half_tol", 0.02))
    hits = sum(int((_storey_rows(p, t0) <= 0.0).sum()) for p, _ in _blocks(scen, model, reps))
    observed = hits / reps
    # under a pure-null sample the clamp fires iff Bin(m, t0) <= k = floor(m t0);
    # P(Bin(m, t0) <= k) = I_{1 - t0}(m - k, k + 1), the regularized beta
    k = np.floor(scen.m * t0)
    expected = float(betainc(scen.m - k, k + 1.0, 1.0 - t0))
    se = np.sqrt(expected * (1.0 - expected) / reps)
    z = abs(observed - expected) / se
    sigmas = float(config.get("sigmas", 4.0))
    return {
        "passed": bool(z <= sigmas and abs(observed - 0.5) <= half_tol),
        "observed_mass_at_zero": float(observed),
        "expected_mass_at_zero": expected,
        "zscore": float(z),
        "sigmas": sigmas,
        "half_tol": half_tol,
        "reps": reps,
    }


def _target_null_floor_coverage(config):
    scen = _scenario(config, m=500, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    alpha = float(config.get("alpha", 0.05))
    variant = str(config.get("variant", "plain"))
    floor = purity_quantities(scen.model()).a_lower
    return _coverage(
        config, scen, lambda s: astar_lower(ecdf(s.pvalues, variant), alpha).value <= floor + 1e-12,
        a_lower_true=float(floor), alpha=alpha,
    )


def _sup_step_vs_cdf(sf, knots, cdf, extra=(0.0, 1.0)):
    """Exact sup |step - continuous cdf| via the step function's one-sided
    values at the jumps."""
    ts = np.unique(np.r_[knots, extra])
    c = cdf(ts)
    return float(max(np.abs(np.asarray(sf(ts)) - c).max(), np.abs(np.asarray(sf.left(ts)) - c).max()))


def _target_projection_bound(config):
    scen = _scenario(config, m=2000, a=0.5, family="square-root")
    model = scen.model()
    reps = int(config.get("reps", 100))
    worst_margin = -np.inf
    holds = 0
    for i in range(reps):
        samp = generate_sample(scen, i)
        ghat = ecdf(samp.pvalues, "plain")
        fhat = project_f(ghat, scen.a)
        knots = np.unique(np.r_[ghat.base.knots, fhat.knots, 1.0])
        lhs = _sup_step_vs_cdf(fhat, knots, model.F.cdf)
        rhs = 2.0 * _sup_step_vs_cdf(ghat, knots, model.cdf) / scen.a
        holds += int(lhs <= rhs + 1e-12)
        worst_margin = max(worst_margin, lhs - rhs)
    return {
        "passed": bool(holds == reps),
        "holds": holds,
        "reps": reps,
        "worst_margin": float(worst_margin),
    }


def _target_lcm_contraction(config):
    scen = _scenario(config, m=500, a=0.5, family="square-root")
    model = scen.model()
    reps = int(config.get("reps", 100))
    cushion = float(config.get("cushion", 1e-6))
    dense = np.linspace(0.0, 1.0, 4001)
    holds = 0
    worst = -np.inf
    for i in range(reps):
        samp = generate_sample(scen, i)
        gh = ecdf(samp.pvalues, "lcm")
        ts = np.unique(np.r_[dense, gh.hull.x, gh.base.knots])
        err_lcm = float(np.abs(np.asarray(gh(ts)) - model.cdf(ts)).max())
        err_plain = _sup_step_vs_cdf(gh.base, gh.base.knots, model.cdf)
        holds += int(err_lcm <= err_plain + cushion)
        worst = max(worst, err_lcm - err_plain)
    return {
        "passed": bool(holds == reps),
        "holds": holds,
        "reps": reps,
        "worst_margin": float(worst),
    }


def _kernel_target(config, kind):
    scen = _scenario(config, m=5000, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 2000))
    pts = np.asarray(config.get("points", (0.05, 0.1, 0.2)), dtype=float)
    rel_tol = float(config.get("rel_tol", 0.15))
    t0 = float(config.get("t0", 0.5))
    vals = np.empty((reps, pts.size))
    done = 0
    for p, lab in _blocks(scen, model, reps, block=max(1, 500_000 // scen.m)):
        n = p.shape[0]
        for j, t in enumerate(pts):
            if kind == "fdp":
                vals[done : done + n, j] = _rates(p, lab, t)[0]
            else:  # qhat at the known weight, or at the qhat-storey estimate
                ghat_t = (p <= t).sum(axis=1) / scen.m
                one_minus = 1.0 - scen.a if kind == "qhat" else (
                    1.0 - (p <= t0).sum(axis=1) / scen.m) / (1.0 - t0)
                vals[done : done + n, j] = np.where(
                    ghat_t > 0, one_minus * t / np.where(ghat_t > 0, ghat_t, 1.0), 0.0
                )
        done += n
    emp = scen.m * np.cov(vals, rowvar=False)
    spec = KernelSpec(
        kind=kind, model=model, t0=t0 if kind == "qhat-storey" else None
    )
    entries = []
    ok = True
    for i in range(pts.size):
        for j in range(i, pts.size):
            true = float(eval_kernel(spec, pts[i], pts[j]))
            rel = abs(emp[i, j] - true) / abs(true)
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
    return {"passed": bool(ok), "rel_tol": rel_tol, "reps": reps, "entries": entries}


def _target_fdp_kernel(config):
    return _kernel_target(config, "fdp")


def _target_qhat_kernel(config):
    return _kernel_target(config, "qhat")


def _target_storey_kernel(config):
    return _kernel_target(config, "qhat-storey")


def _target_qinv_kernel_identity(config):
    scen = _scenario(config, m=100, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    tol = float(config.get("tol", 1e-10))
    us = np.asarray(config.get("points", (0.1, 0.2, 0.3)), dtype=float)
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
    return {"passed": bool(worst <= tol), "worst_abs_diff": float(worst), "tol": tol, "entries": entries}


def _plugin_target(config, estimated):
    # mean FDP of the plug-in rule at the known weight a, or at the
    # exceedance-ratio estimate at t0, run per row as a step-up rule
    scen = _scenario(config, m=5000, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 2000))
    alpha = float(config.get("alpha", 0.05))
    t0 = float(config.get("t0", 0.5))
    tol = float(config.get("tol", 0.01))
    total = 0.0
    spot_ok = True
    for block, (p, lab) in enumerate(_blocks(scen, model, reps)):
        if estimated:
            one_minus = 1.0 - np.maximum(_storey_rows(p, t0), 0.0)
            levels = np.where(one_minus > 0, alpha / np.where(one_minus > 0, one_minus, 1.0), np.inf)
        else:
            levels = np.full(p.shape[0], alpha / (1.0 - scen.a))
        t = _step_up(p, levels)[2]
        total += float(_rates(p, lab, t)[0].sum())
        if block == 0:
            # the plug-in rule itself must agree with the fast path
            for row in range(min(3, p.shape[0])):
                ahat = storey_a0(p[row], t0) if estimated else scen.a
                spot_ok = spot_ok and plugin_threshold(p[row], ahat, alpha).t == t[row]
    mean = total / reps
    ok = mean <= alpha + tol if estimated else abs(mean - alpha) <= tol
    return {
        "passed": bool(ok and spot_ok),
        "mean_fdp": float(mean),
        "alpha": alpha,
        "tol": tol,
        "reps": reps,
        **({"t0": t0} if estimated else {}),
        "spot_check_passed": bool(spot_ok),
    }


def _target_plugin_known_a(config):
    return _plugin_target(config, estimated=False)


def _target_plugin_estimated_a(config):
    return _plugin_target(config, estimated=True)


def _target_rate_ceiling_known_a(config):
    scen = _scenario(config, m=10_000, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 5000))
    c = float(config.get("c", 0.05))
    alpha = float(config.get("alpha", 0.05))
    band = config.get("band", (0.93, 0.97))
    thr = rate_ceiling_known_a(model, scen.m, c, alpha)
    hits = sum(int((_rates(p, lab, thr.t)[0] <= c).sum()) for p, lab in _blocks(scen, model, reps))
    coverage = hits / reps
    return {
        "passed": bool(band[0] <= coverage <= band[1]),
        "coverage": float(coverage),
        "band": [float(band[0]), float(band[1])],
        "threshold": float(thr.t),
        "c": c,
        "alpha": alpha,
        "reps": reps,
    }


def _asymptotic_coverage(config, kind):
    # kind "fdp": the band covers the realized FDP at every p-value at or
    # above t_min; kind "count": m times the count path covers the number
    # of nulls at or below each null p-value there
    scen = _scenario(config, m=1000, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    alpha = float(config.get("alpha", 0.05))
    t0 = float(config.get("t0", 0.5))
    t_min = float(config.get("t_min", 1e-4))

    def hit(samp):
        p = samp.pvalues
        env = asymptotic_envelope(p, t0=t0, alpha=alpha, t_min=t_min, enforce_floor=False)
        if kind == "fdp":
            cand = np.unique(np.r_[t_min, p[p >= t_min]])
            truth, bound = fdp_process(samp)(cand), env.gamma_bar(cand)
        else:
            nulls = np.sort(p[samp.labels == 0])
            cand = np.unique(np.r_[t_min, nulls[nulls >= t_min]])
            truth, bound = np.searchsorted(nulls, cand, side="right"), env.count_bound_at(cand)
        return np.all(truth <= np.asarray(bound) + 1e-12)

    return _coverage(config, scen, hit, alpha=alpha, t_min=t_min)


def _target_envelope_coverage(config):
    return _asymptotic_coverage(config, "fdp")


def _target_count_envelope_coverage(config):
    return _asymptotic_coverage(config, "count")


def _target_label_set_coverage(config):
    scen = _scenario(config, m=50, a=0.25, family="one-sided-normal", params={"theta": 3.0})
    alpha = float(config.get("alpha", 0.05))
    return _coverage(config, scen, lambda s: exact_confidence_set(s.pvalues, alpha).contains(s.labels), alpha=alpha)


def _target_achievable_oracle(config):
    # nonidentifiable two-sided family: the plug-in rule driven by a
    # consistent estimate of the weight floor should track the achievable
    # oracle threshold t(a_lower, G) in both mean FDP and mean FNP
    scen = _scenario(config, m=2000, a=0.25, family="two-sided-normal", params={"theta": 3.0})
    model = scen.model()
    reps = int(config.get("reps", 300))
    alpha = float(config.get("alpha", 0.05))
    tol = float(config.get("tol", 0.02))
    pq = purity_quantities(model)
    achievable = MixtureModel(pq.a_lower, UserCdf(pq.f_lower))
    t_ao = oracle_threshold(achievable, alpha).t
    sums = np.zeros(4)
    for i in range(reps):
        samp = generate_sample(scen, i)
        p = samp.pvalues
        t_pi = plugin_threshold(p, kernel_a_consistent(p).value, alpha).t
        fdp, fnp = _rates(p, samp.labels, np.array([t_pi, t_ao]))
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
        "alpha": alpha,
        "tol": tol,
        "reps": reps,
    }


VALIDATION_TARGETS = {
    "fdp-mean": _target_fdp_mean,
    "fnp-mean": _target_fnp_mean,
    "storey-clt": _target_storey_clt,
    "storey-degenerate": _target_storey_degenerate,
    "null-floor-coverage": _target_null_floor_coverage,
    "projection-bound": _target_projection_bound,
    "lcm-contraction": _target_lcm_contraction,
    "fdp-kernel": _target_fdp_kernel,
    "qhat-kernel": _target_qhat_kernel,
    "qinv-kernel-identity": _target_qinv_kernel_identity,
    "storey-kernel": _target_storey_kernel,
    "plugin-known-a": _target_plugin_known_a,
    "plugin-estimated-a": _target_plugin_estimated_a,
    "rate-ceiling-known-a": _target_rate_ceiling_known_a,
    "envelope-coverage": _target_envelope_coverage,
    "count-envelope-coverage": _target_count_envelope_coverage,
    "label-set-coverage": _target_label_set_coverage,
    "achievable-oracle": _target_achievable_oracle,
}


def run_validation(config: dict, target: str) -> dict:
    """Run one named validation target with the given configuration and
    return its JSON-friendly report (identical bytes for identical input)."""
    if target not in VALIDATION_TARGETS:
        known = ", ".join(sorted(VALIDATION_TARGETS))
        raise ValueError(f"unknown validation target {target!r}; known targets: {known}")
    if "reps" in config:
        reps = config["reps"]
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)) or reps < 2:
            raise ValueError(f"reps must be an integer >= 2, got {reps!r}")
    report = VALIDATION_TARGETS[target](dict(config))
    report["target"] = target
    return report
