"""Build ``src/fdpkit/_brownian_table.py``, the committed table of
Brownian-bridge supremum quantiles that ``brownian_sup_quantile`` reads.

One seeded simulation of ``REPS`` bridges on a geometric grid of
``GRID_SIZE`` points from ``GRID_LO`` to 1 (log-spacing ln(1e8) / 18432,
under 1e-3) serves every floor: the running maximum of B(t) / sqrt(t) from
the right, read at every ``FLOOR_STEP``-th grid point (24 floors a decade),
gives the supremum over [floor, 1] for each replicate.  Each floor stores
the 1 - alpha_half quantile for every level in ``ALPHA_HALF`` and its
order-statistic standard error.  The simulation is the library's own
(``fdpkit.envelopes._bridge_sups``), drawn in blocks of 2**21 normals, so
the run is deterministic and its peak resident memory is about 0.42 GB,
most of it the 200000 x 193 suprema.  It runs in one process, in about
four minutes on a 2-vCPU VM (228 s):

    PYTHONPATH=src python tools/brownian_table.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from fdpkit.envelopes import _bridge_sups, _geometric_grid, _order_quantile

SEED = 0
REPS = 200_000
GRID_LO = 1e-8
GRID_SIZE = 18433
FLOOR_STEP = 96
ALPHA_HALF = (0.005, 0.025, 0.05, 0.1)

TABLE = Path(__file__).resolve().parents[1] / "src" / "fdpkit" / "_brownian_table.py"


def build(grid_lo=GRID_LO, grid_size=GRID_SIZE, floor_step=FLOOR_STEP, reps=REPS, seed=SEED,
          alpha_half=ALPHA_HALF) -> list[tuple[float, tuple, tuple]]:
    """Rows (floor, w per level, standard error per level), one per floor
    grid[0], grid[floor_step], ... of the grid from ``grid_lo`` to 1."""
    grid = _geometric_grid(grid_lo, grid_size)
    starts = np.arange(0, grid_size, floor_step)
    sups = _bridge_sups(grid, starts, reps, seed)
    rows = []
    for k, col in zip(starts, sups.T):
        col = np.sort(col)
        est = [_order_quantile(col, 1.0 - a) for a in alpha_half]
        rows.append((float(grid[k]), tuple(w for w, _ in est), tuple(se for _, se in est)))
    return rows


def _tuple(xs) -> str:
    return "(" + ", ".join(repr(float(x)) for x in xs) + ")"


def render(rows) -> str:
    """The table module's text: the build parameters, then one row a line."""
    lines = [
        '"""Upper quantiles of sup over [t, 1] of B(t) / sqrt(t) for a Brownian bridge B.',
        "",
        "Generated by tools/brownian_table.py from the parameters below; do not edit.",
        "Read by fdpkit.envelopes.brownian_sup_quantile.",
        '"""',
        "",
        f"SEED = {SEED}",
        f"REPS = {REPS}",
        f"GRID_LO = {GRID_LO!r}",
        f"GRID_SIZE = {GRID_SIZE}",
        f"FLOOR_STEP = {FLOOR_STEP}",
        f"ALPHA_HALF = {_tuple(ALPHA_HALF)}",
        "",
        "# (floor, w at each level of ALPHA_HALF, standard error of each w)",
        "ROWS = (",
        *(f"    ({floor!r}, {_tuple(ws)}, {_tuple(ses)})," for floor, ws, ses in rows),
        ")",
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    TABLE.write_text(render(build()))
    print(f"wrote {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
