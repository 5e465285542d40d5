import tracemalloc

import numpy as np
import pytest

from fdpkit import EXAMPLE1_PVALUES


@pytest.fixture
def example1():
    """The 15 p-values used across the worked examples."""
    return np.asarray(EXAMPLE1_PVALUES, dtype=float)


@pytest.fixture
def traced_memory():
    """The memory-budget tests' one harness: ``measure(call, warm_up=call)``
    returns (held, peak), the bytes tracemalloc sees ``call()`` hold once it
    returns (its result included) and allocate at its peak, both above what
    was allocated before it, after one call of ``warm_up``."""

    def measure(call, warm_up=None):
        tracemalloc.start()
        try:
            (warm_up or call)()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()  # held until measured
            held, peak = (x - base for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return held, peak

    return measure
