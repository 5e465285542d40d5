import hashlib

import numpy as np
import pytest

import fdpkit
from fdpkit import (
    datasets,
    envelopes,
    estimation,
    families,
    kernels,
    model,
    rng,
    simulation,
    stepfun,
    thresholds,
)

MODULES = (datasets, envelopes, estimation, families, kernels, model, simulation, stepfun, thresholds)

# SHA-256 of the sorted public names joined by newlines, recorded when each
# name was still listed by hand in the package's __init__
NAMES_SHA256 = "722752890390d78c958ec783e7392a98022071ca310bb48a29cc52ecde8394ba"


def test_public_names():
    names = fdpkit.__all__
    assert len(names) == len(set(names)) == 63
    owners = {n: m for m in MODULES for n in m.__all__}
    owners["stream"] = rng
    assert set(names) == set(owners) | {"__version__"}
    for n in names:
        if n != "__version__":
            assert getattr(fdpkit, n) is getattr(owners[n], n), n
    digest = hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()
    assert digest == NAMES_SHA256


# --- the one rule of every function of t ------------------------------------

_MODEL = model.MixtureModel(0.3, families.OneSidedNormal(2.0))
_P = np.asarray(fdpkit.EXAMPLE1_PVALUES, dtype=float)
_ASYMPTOTIC = envelopes.asymptotic_envelope(_P, t_min=0.01, enforce_floor=False)
_EXACT = envelopes.exact_envelope(envelopes.exact_confidence_set(_P, 0.05), _P)
_STEP = stepfun.StepFunction([0.0, 0.2, 0.5], [0.0, 0.4, 1.0])


def _functions_of_t():
    """(name, function, a Python int in its domain or None, behaviour outside
    [0, 1]: "raise", "cdf" (0 below, 1 above) or "zero")."""
    fams = {"one-sided": families.OneSidedNormal(2.0), "two-sided": families.TwoSidedNormal(1.0),
            "beta": families.BetaPower(0.5)}
    for name, fam in fams.items():
        yield f"{name}.cdf", fam.cdf, 1, "cdf"
        yield f"{name}.pdf", fam.pdf, 1, "zero"
        yield f"{name}.ppf", fam.ppf, 1, None
    yield "user-cdf.ppf", families.UserCdf(lambda t: np.clip(t, 0.0, 1.0) ** 0.5).ppf, 1, None
    yield "MixtureModel.cdf", _MODEL.cdf, 1, "cdf"
    yield "MixtureModel.pdf", _MODEL.pdf, 1, "zero"
    yield "q_map", model.q_map(_MODEL), 1, None
    yield "qtilde_map", model.qtilde_map(_MODEL), 0, None
    yield "q_derivative", lambda t: model.q_derivative(_MODEL, t), 1, None
    yield "q_inverse", lambda u: model.q_inverse(_MODEL, u), None, None
    yield "storey_population_q", kernels.storey_population_q(_MODEL, 0.5), 1, None
    yield "eval_kernel", lambda t: kernels.eval_kernel(kernels.KernelSpec("qhat", _MODEL), 0.4, t), 1, None
    yield "f_lower", simulation.purity_quantities(_MODEL).f_lower, 1, None
    yield "StepFunction", _STEP, 1, "raise"
    yield "StepFunction.left", _STEP.left, 1, "raise"
    yield "PiecewiseLinear", stepfun.PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 0.8, 1.0]), 1, "raise"
    for variant in ("plain", "floor", "lcm"):
        g = estimation.ecdf(_P, variant)
        yield f"ecdf-{variant}", g, 1, "raise"
        yield f"ecdf-{variant}.left", g.left, 1, "raise"
    yield "QHat", estimation.q_hat(_P, 0.2), 1, "raise"
    for env in (_ASYMPTOTIC, _EXACT):
        yield f"{env.method}.gamma_bar", env.gamma_bar, 1, "raise"
        yield f"{env.method}.v_fn", env.v_fn, 1, "raise"
        yield f"{env.method}.j_fn", env.meta["j_fn"], 1, "raise"
    yield "exact.gamma_bar.left", _EXACT.gamma_bar.left, 1, "raise"


@pytest.mark.parametrize("f, whole, outside", [pytest.param(*case[1:], id=case[0]) for case in _functions_of_t()])
def test_every_function_of_t_keeps_one_rule(f, whole, outside):
    # scalars in give Python floats out, and arrays keep their shape
    x = np.array([[0.12, 0.25, 0.4], [0.05, 0.3, 0.6]])
    scalars = [0.25, np.array(0.25)] + ([whole] if whole is not None else [])
    for t in scalars:
        assert type(f(t)) is float, t
    assert f(0.25) == f(np.array(0.25)) == f(np.float32(0.25))
    for t in (x[0], x):
        out = f(t)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == t.shape
        # elementwise up to the rounding of a scalar and a vector power (NumPy takes sqrt for ** 0.5 on arrays)
        np.testing.assert_allclose(out, [f(v) for v in t.flat] if t.ndim == 1 else np.stack([f(r) for r in t]), rtol=1e-15)
    np.testing.assert_array_equal(f(x[0].tolist()), f(x[0]))
    if outside == "raise":
        for t in (-0.1, 1.1, np.nan, [0.5, 1.5]):
            with pytest.raises(ValueError):
                f(t)
    elif outside is not None:
        low, high = (0.0, 1.0) if outside == "cdf" else (0.0, 0.0)
        assert f(-0.5) == low and f(1.5) == high
        np.testing.assert_array_equal(f([-1.0, -1e-300, 1.0 + 1e-15, 7.0]), [low, low, high, high])
