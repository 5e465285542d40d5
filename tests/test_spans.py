"""The routes that work one span at a time (the ECDF's knot buffers, the
step-up rule, the a* bound and both envelopes' threshold reader) against the
whole-array code they replaced, as oracles: every output bit the same, at
m = 1 and across the span edges, with runs of ties straddling each edge."""

import numpy as np
import pytest

from fdpkit.envelopes import asymptotic_envelope, confidence_thresholds, exact_confidence_set, exact_envelope
from fdpkit.estimation import _SPAN, _astar, _concave_majorant, astar_lower, dkw_epsilon, ecdf
from fdpkit.thresholds import ThresholdResult, _step_up


# --- oracles: the whole-array code ------------------------------------------

def ecdf_whole(p, variant):
    """``ecdf``'s knots, values and hull from a sorted copy, the run starts'
    indices and two fresh knot buffers."""
    m = p.size
    s = np.sort(p)
    starts = np.ones(m + 1, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=starts[1:-1])
    starts = np.flatnonzero(starts)
    k = starts.size - 1
    xs, ys = np.zeros((2, k + 2))
    xs[-1] = ys[-1] = 1.0
    np.take(s, starts[:-1], out=xs[1:-1])
    np.divide(starts[1:], m, out=ys[1:-1])
    lo, hi = int(xs[1] == 0.0), k + 2 - int(xs[k] == 1.0)
    hull = _concave_majorant(xs[lo:hi], ys[lo:hi]) if variant == "lcm" else None
    return xs[lo:-1], ys[lo:-1], hull


def step_up_whole(p, level):
    """``_step_up`` with every critical value in one array."""
    ps = np.sort(p, axis=-1)
    m = ps.shape[-1]
    crit = np.arange(m, 0, -1, dtype=float)
    crit = np.multiply(np.expand_dims(level, -1), crit, out=None if np.ndim(level) else crit)
    crit /= m
    down = ps[..., ::-1] <= crit
    r = np.where(down.any(axis=-1), m - down.argmax(axis=-1), 0)
    t = np.take_along_axis(ps, np.expand_dims(r - 1, -1), axis=-1)[..., 0]
    return r, np.where(r > 0, t, 0.0)


def astar_whole(t, g, eps):
    """``_astar`` with the objective at every candidate in one array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(t < 1.0, (g - t - eps) / (1.0 - t), -np.inf)
    best = np.argmax(phi, axis=-1)[..., None]
    top = np.take_along_axis(phi, best, axis=-1)[..., 0]
    return np.maximum(top, 0.0), top, np.take_along_axis(t, best, axis=-1)[..., 0]


def masked_thresholds(env, c=None):
    """``confidence_thresholds`` as a mask over all of the ECDF's pieces,
    with the band's crossing solved on every piece: the oracle for the
    slice from t_min's piece and the one-piece solve."""
    exact = env.method == "exact"
    steps = env.ghat.base
    starts = np.maximum(steps.knots, env.t_min)
    ends = np.r_[steps.knots[1:], 1.0]
    keep = starts < ends
    keep[-1] = True
    starts, ends, g = starts[keep], ends[keep], steps.values[keep]
    bound = env.gamma_bar(steps.knots)[keep] if exact else env.gamma_bar.values(starts, g)
    if c is None:
        z = bound.min()
        feasible, cross = bound == z, np.inf if exact else starts
    else:
        z, feasible, cross = c, bound <= c, np.inf
        if not exact and c < 1.0:
            curve = env.gamma_bar
            b = curve.delta / np.sqrt(curve.m)
            cv = c * g
            with np.errstate(invalid="ignore"):
                cross = (2.0 * cv / (b + np.sqrt(b * b + 4.0 * curve.one_minus_a0 * cv))) ** 2
    hit = np.flatnonzero(feasible)
    i, t, inclusive = None, 0.0, False
    if hit.size:
        i = int(hit[-1])
        end = float(ends[i])
        t = min(max(float(np.broadcast_to(cross, starts.shape)[i]), float(starts[i])), end)
        inclusive = t < end or i == starts.size - 1
    return ThresholdResult(
        t=t,
        rejected=0 if i is None else int(np.rint(env.ghat.m * g[i])),
        method="rate-ceiling" if c is not None else "min-rate",
        alpha=env.level,
        z=float(z),
        inclusive=inclusive,
        diagnostics={"envelope": env.method},
    )


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# --- samples -----------------------------------------------------------------

def straddling(m, seed):
    """m p-values, some rounded and some at the atoms -0.0, 5e-324 and 1,
    shuffled, whose sorted order has a run of ties across each multiple of
    the span and one past it (where Ghat's values are cut)."""
    rng = np.random.default_rng(seed)
    p = np.round(rng.random(m), 4)
    p[rng.random(m) < 0.05] = rng.choice([-0.0, 0.0, 5e-324, 1.0])
    p.sort()
    for edge in range(_SPAN, m + 1, _SPAN):
        for e in (edge, edge + 1):
            lo, hi = max(e - int(rng.integers(1, 40)), 0), min(e + int(rng.integers(1, 40)), m)
            p[lo:hi] = p[lo]
    rng.shuffle(p)
    return p


SAMPLES = {
    "m1": [0.5], "m1-zero": [0.0], "m1-negzero": [-0.0], "m1-tiny": [5e-324], "m1-one": [1.0],
    "tied": [0.3] * 50, "tied-zero": [0.0] * 7, "tied-negzero": [-0.0] * 7,
    "tied-tiny": [5e-324] * 3, "tied-one": [1.0] * 7,
    "atoms": [0.0, -0.0, 5e-324, 1.0, 0.5, 5e-324, -0.0, 1.0],
    **{f"m{m}": straddling(m, m) for m in (_SPAN - 1, _SPAN, _SPAN + 1, 3 * _SPAN + 5)},
}


@pytest.fixture(params=list(SAMPLES), ids=list(SAMPLES))
def sample(request):
    return np.asarray(SAMPLES[request.param], dtype=float)


class TestSameBits:
    @pytest.mark.parametrize("variant", ["plain", "floor", "lcm"])
    def test_ecdf(self, sample, variant):
        got, (knots, values, hull) = ecdf(sample, variant), ecdf_whole(sample, variant)
        assert_same_bits((got.base.knots, got.base.values), (knots, values))
        if variant == "lcm":
            assert_same_bits((got.hull.x, got.hull.y), (hull.x, hull.y))

    @pytest.mark.parametrize("variant", ["plain", "floor", "lcm"])
    def test_astar_lower(self, sample, variant):
        knots, values, hull = ecdf_whole(sample, variant)
        if variant == "lcm":
            knots, values = hull.x, hull.y
        elif variant == "floor":
            values = np.maximum(values, knots)
        for alpha in (0.05, 0.5, 0.99):
            got = astar_lower(ecdf(sample, variant), alpha)
            value, top, at = astar_whole(knots, values, dkw_epsilon(sample.size, alpha))
            assert repr((got.value, got.diagnostics["unclamped"], got.diagnostics["argmax_t"])) == \
                repr((float(value), float(top), float(at)))

    def test_step_up(self, sample):
        for level in (0.05, 0.5, 1e-300, np.inf):
            assert_same_bits(_step_up(sample, level), step_up_whole(sample, level))

    # with one level per row and m below a span, groups of rows that hold at
    # most a span of values: 40 rows of 5000 and 27 of _SPAN // 13 in groups of
    # 13 rows, the last one short
    @pytest.mark.parametrize("shape", [(3, 1), (4, 1000), (40, 5000), (27, _SPAN // 13), (3, _SPAN - 1),
                                       (3, _SPAN + 1), (3, 2 * _SPAN + 3)])
    def test_step_up_rows(self, shape):
        rng = np.random.default_rng(shape[1])
        p = np.round(rng.random(shape) ** 3, 3)
        p[0] = rng.choice([-0.0, 5e-324, 1.0], shape[1])
        p[1::5] = 0.5 + p[1::5] / 2  # r = 0 below a level of 1
        for level in (0.05, np.resize([0.05, np.inf, 1e-9, 0.5], shape[0]), np.full(shape[0], np.inf)):
            assert_same_bits(_step_up(p, level), step_up_whole(p, level))

    @pytest.mark.parametrize("shape", [(2, 5), (3, _SPAN + 1), (2, 2 * _SPAN + 3)])
    def test_astar_rows(self, shape):
        rng = np.random.default_rng(shape[1])
        t = np.sort(np.round(rng.random(shape), 3), axis=-1)
        t[:, -2:] = 1.0
        g = np.arange(shape[1]) / shape[1]
        for eps in (0.0, 0.01):
            assert_same_bits(_astar(t, g, eps), astar_whole(t, g, eps))
            assert_same_bits(_astar(t, np.maximum(g, t), eps), astar_whole(t, np.maximum(g, t), eps))
            assert_same_bits(_astar(t, g, eps, "floor"), astar_whole(t, np.maximum(g, t), eps))

    def test_astar_keeps_the_first_of_tied_maxima_across_spans(self):
        # (g - t) / (1 - t) is 1/2 both at t = 1/2, g = 3/4 and at t = 0,
        # g = 1/2, exactly: the first, in the first span, is kept
        n = 2 * _SPAN + 7
        t, g = np.full(n, 0.5), np.full(n, 0.6)
        t[-1], g[-1] = 0.0, 0.5
        t[3], g[3] = 0.5, 0.75
        got = _astar(t, g, 0.0)
        assert_same_bits(got, astar_whole(t, g, 0.0))
        assert got[1] == 0.5 and got[2] == 0.5
        t[:], g[:] = 1.0, 1.0   # every candidate but the first at -inf: the first is kept
        t[0] = 0.25
        assert_same_bits(_astar(t, g, 2.0), astar_whole(t, g, 2.0))


class TestThresholdSpans:
    @pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "rounded-screen"])
    def test_reader_matches_the_masked_oracle(self, rounded):
        # a normal-mean mixture, distinct or written with six significant
        # digits as the CLI's screen file is: more than two spans of pieces
        # for both envelopes, read from the top down to a deciding piece in a
        # lower span
        from scipy.special import ndtr, ndtri

        rng = np.random.default_rng(5)
        u = rng.random(3 * _SPAN + 5)
        p = np.where(rng.random(u.size) < 0.1, ndtr(ndtri(u) - 3.0), u)
        if rounded:
            p = np.array(["%.6g" % v for v in p], dtype=float)
        for env in (exact_envelope(exact_confidence_set(p, 0.05), p),
                    asymptotic_envelope(p, t_min=0.01, enforce_floor=False)):
            knots = env.ghat.base.knots
            i0 = int(np.searchsorted(knots, env.t_min, "right")) - 1
            top_span = knots[knots.size - _SPAN]      # where the top span of pieces starts
            assert knots.size - i0 > 2 * _SPAN
            lower = 0
            for c in (None, 0.05, 0.3, 0.6, 1.0):
                got = confidence_thresholds(env, c)
                assert got == masked_thresholds(env, c)
                assert type(got.inclusive) is bool and type(got.t) is float
                lower += got.t < top_span
            assert lower >= 3
