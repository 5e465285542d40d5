import hashlib

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
