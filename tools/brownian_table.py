"""Build ``src/fdpkit/_brownian_table.py``, the committed table of
Brownian-bridge supremum quantiles, the only source of w for
``fdpkit.envelopes.brownian_sup_quantile`` and ``asymptotic_envelope``.

One seeded simulation of ``REPS`` bridges on a geometric grid of
``GRID_SIZE`` points from ``GRID_LO`` to 1 (log-spacing ln(1e8) / 18432,
under 1e-3) serves every floor: the running maximum of B(t) / sqrt(t) from
the right, read at every ``FLOOR_STEP``-th grid point (24 floors a decade),
gives the supremum over [floor, 1] for each replicate.  Each floor stores
the 1 - alpha_half quantile for every level in ``ALPHA_HALF`` and its
order-statistic standard error; every level is read from the same sorted
sample, so adding a level leaves the others' bits as they were.  The
bridges are drawn here, not in the library: ``bridge_sups`` draws them in
blocks of 2**21 inverse-CDF normals, so the run is deterministic and its
peak resident memory is 428 MB, most of it the 200000 x 193 suprema.  It
runs in one process, in 162-184 s on a 2-vCPU VM:

    PYTHONPATH=src python tools/brownian_table.py

The table is written as one block of text, a line per floor, that the
module parses once on import; ``repr`` of a double reads back exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from fdpkit.rng import stream, uniform_open

SEED = 0
REPS = 200_000
GRID_LO = 1e-8
GRID_SIZE = 18433
FLOOR_STEP = 96
# alpha / 2 for alpha in 0.002, 0.005, 0.01, 0.02, 0.025, 0.03, 0.04, 0.05,
# 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5; halving is exact.  At alpha
# 0.001 the standard errors fail the table's check against 20000-replicate
# runs (median ratio 0.249, under 0.25), so that level is left out.
ALPHA_HALF = (0.001, 0.0025, 0.005, 0.01, 0.0125, 0.015, 0.02, 0.025, 0.03,
              0.04, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25)

ROWS_PER_STREAM = 1024   # replicates drawn from one ``stream(seed, chunk)``
CELLS = 1 << 21          # normals drawn at once: 1024 rows of a 2048-point grid

TABLE = Path(__file__).resolve().parents[1] / "src" / "fdpkit" / "_brownian_table.py"


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    from scipy.special import ndtri

    # Inverse-CDF sampling: identical bytes for a given stream on any
    # platform, unlike rejection-based samplers.  The top draw, exactly 1,
    # becomes 1 - 2**-53 (ndtri 8.21) rather than an infinite normal.
    u = np.asarray(uniform_open(rng, size))
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u)


def geometric_grid(t_floor: float, size: int) -> np.ndarray:
    grid = np.geomspace(t_floor, 1.0, size)
    grid[-1] = 1.0
    return grid


def bridge_sups(grid: np.ndarray, starts, reps: int, seed: int) -> np.ndarray:
    """Simulate ``reps`` Brownian bridges on ``grid`` (increasing, ending at
    1) and return, for each replicate (row) and each grid index k in the
    increasing ``starts`` (column), the maximum of B(t) / sqrt(t) over the
    grid points t >= grid[k].

    Replicates come in chunks of 1024 rows, each from its own stream keyed
    by (seed, chunk), so a row depends only on the seed and its index.  A
    chunk is drawn in blocks of at most 2**21 normals: the blocks read one
    stream in order and give the same bits as one draw, in bounded memory
    on fine grids."""
    starts = np.asarray(starts, dtype=np.intp)
    root_dt = np.sqrt(np.diff(np.r_[0.0, grid]))
    root_grid = np.sqrt(grid)
    rows = max(1, min(ROWS_PER_STREAM, CELLS // grid.size))
    out = np.empty((reps, starts.size))
    for chunk, lo in enumerate(range(0, reps, ROWS_PER_STREAM)):
        rng = stream(seed, chunk)
        hi = min(lo + ROWS_PER_STREAM, reps)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            w = np.cumsum(standard_normal(rng, (b - a, grid.size)) * root_dt, axis=1)
            x = (w - grid * w[:, -1:]) / root_grid
            seg = np.maximum.reduceat(x, starts, axis=1)   # max over [starts[i], starts[i + 1])
            out[a:b] = np.maximum.accumulate(seg[:, ::-1], axis=1)[:, ::-1]
    return out


def order_quantile(sorted_stats: np.ndarray, q: float) -> tuple[float, float]:
    """The linear-interpolation q-quantile of a sorted sample and its
    standard error sqrt(q (1 - q) / n) / f, with the density f read from
    the order statistics that bound a 95 % distribution-free interval for
    the quantile."""
    n = sorted_stats.size
    w = float(np.quantile(sorted_stats, q, method="linear"))
    spread = np.sqrt(n * q * (1.0 - q))
    lo = max(int(np.floor((n - 1) * q - 1.96 * spread)), 0)
    hi = min(int(np.ceil((n - 1) * q + 1.96 * spread)), n - 1)
    return w, float(spread * (sorted_stats[hi] - sorted_stats[lo]) / (hi - lo))


def build(grid_lo=GRID_LO, grid_size=GRID_SIZE, floor_step=FLOOR_STEP, reps=REPS, seed=SEED,
          alpha_half=ALPHA_HALF) -> list[tuple[float, tuple, tuple]]:
    """Rows (floor, w per level, standard error per level), one per floor
    grid[0], grid[floor_step], ... of the grid from ``grid_lo`` to 1."""
    grid = geometric_grid(grid_lo, grid_size)
    starts = np.arange(0, grid_size, floor_step)
    sups = bridge_sups(grid, starts, reps, seed)
    rows = []
    for k, col in zip(starts, sups.T):
        col = np.sort(col)
        est = [order_quantile(col, 1.0 - a) for a in alpha_half]
        rows.append((float(grid[k]), tuple(w for w, _ in est), tuple(se for _, se in est)))
    return rows


def _line(xs) -> str:
    return " ".join(repr(float(x)) for x in xs)


def render(rows) -> str:
    """The table module's text: the build parameters, then one line a floor."""
    lines = [
        '"""Upper quantiles of sup over [t, 1] of B(t) / sqrt(t) for a Brownian bridge B.',
        "",
        "Generated by tools/brownian_table.py from the parameters below; do not edit.",
        "Read by fdpkit.envelopes.brownian_sup_quantile.",
        '"""',
        "",
        "import numpy as np",
        "",
        f"SEED = {SEED}",
        f"REPS = {REPS}",
        f"GRID_LO = {GRID_LO!r}",
        f"GRID_SIZE = {GRID_SIZE}",
        f"FLOOR_STEP = {FLOOR_STEP}",
        f"ALPHA_HALF = ({', '.join(repr(float(a)) for a in ALPHA_HALF)})",
        "",
        "# One line a floor: the floor, w at each level of ALPHA_HALF, then the",
        "# standard error of each w.",
        '_TEXT = """',
        *(_line((floor, *ws, *ses)) for floor, ws, ses in rows),
        '"""',
        "",
        "_ROWS = np.array(_TEXT.split(), dtype=float).reshape(-1, 1 + 2 * len(ALPHA_HALF))",
        "FLOORS = _ROWS[:, 0]                          # increasing, the last one 1",
        "W = _ROWS[:, 1 : 1 + len(ALPHA_HALF)]         # floors x levels",
        "W_SE = _ROWS[:, 1 + len(ALPHA_HALF) :]",
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    TABLE.write_text(render(build()))
    print(f"wrote {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
