"""One line per seeded solve of the solver grid, for comparing two source trees.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/solver_grid.py > grid.txt

The grid: K = 20 devices with uniform weights, channels drawn from
``stream(9100, s)`` for seeds s < 12, on a line with one relay and in a cell
with four; ``pr`` 0.01, 0.1 and 1 W at -70, -80 and -100 dBm noise, p0 0.05 W.
Each instance is solved cold in the FULL variant with the default
``SolverConfig`` (``j_max`` 100), under one BLAS thread.  The 216 lines read

    <cell> seed=<s> pr=<pr> noise_dbm=<dBm> sweeps=<n> stop=<reason> gap_misses=<n> mse=<repr>

where ``mse`` is the ``repr`` of the final objective and ``gap_misses`` counts
the sweeps whose device QCQP ended above ``optimizer.QCQP_TOL``.  Point
PYTHONPATH at each tree's ``src`` and ``diff`` the two outputs: a change that
keeps every sweep count, stop reason and gap-miss count differs at most in
``mse``.
"""

from __future__ import annotations

import os
import sys

CELLS = (("line", 1), ("cell", 4))
SEEDS = range(12)
PR_WATTS = (0.01, 0.1, 1.0)
NOISE_DBM = (-70.0, -80.0, -100.0)


def grid_lines():
    """Yield the grid's lines in order: cell, seed, pr, noise level."""
    from relayfl.aggregation import DeviceWeights, PowerBudget
    from relayfl.experiment import dbm_to_watts
    from relayfl.geometry import (PathLossParams, cell_layout, line_layout, path_gain_profile,
                                  realize_channels, stream)
    from relayfl.optimizer import SolverConfig, solve

    weights, solver = DeviceWeights.uniform(20), SolverConfig()
    for cell, num_relays in CELLS:
        for seed in SEEDS:
            rng = stream(9100, seed)
            layout = line_layout(20, rng) if cell == "line" else cell_layout(20, num_relays, rng)
            channels = realize_channels(path_gain_profile(layout, PathLossParams()), rng)
            for pr in PR_WATTS:
                for noise_dbm in NOISE_DBM:
                    budget = PowerBudget(p0=0.05, pr=pr, sigma2=dbm_to_watts(noise_dbm))
                    _, trace = solve(channels, weights, budget, solver)
                    misses = sum("device QCQP gap" in w for w in trace.warnings)
                    yield (f"{cell} seed={seed} pr={pr:g} noise_dbm={noise_dbm:g} "
                           f"sweeps={trace.iterations_run} stop={trace.terminated_by} "
                           f"gap_misses={misses} mse={float(trace.objectives[-1])!r}")


def main() -> int:
    # Before NumPy loads OpenBLAS, which reads the thread count once.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for line in grid_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
