"""Benchmark workloads: seeded call lists drawn from fixed pools of CLI cells.

A cell is one `offsetbf` CLI invocation: a subcommand plus its JSON config.
Each workload owns a fixed pool of cells split into classes (problem size,
algorithm). The workload seed picks, without replacement, which pool cells
one pass issues and in which order. The warm-up issues one reserved cell per
class, the same for every seed, so set-up does the same work whatever the
seed. Reference outputs are recorded for the whole pool at one commit
(`run.py --record-reference`), so the outputs of every seed are checked
against a reference, not only against invariants.

Every pass interleaves the classes in a fixed cycle, so each seed issues the
same mix of sizes and algorithms; only the drawn channels differ.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One CLI call: subcommand, config (without `out`) and its operation count."""

    cell_id: str
    command: str
    config: dict
    ops: int


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    pool_per_class: int
    picks_per_class: int
    make_cell: Callable

    def pool(self):
        """Every cell the workload can issue, warm-up cells included."""
        return [self.make_cell(cls, i) for cls in self.classes
                for i in range(self.pool_per_class + 1)]

    def calls(self, seed: int):
        """(warm-up cells, pass cells) for a workload seed.

        The pass issues picks_per_class cells of every class, cycling through
        the classes; the warm-up issues the reserved last pool cell of every class.
        """
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        rng = np.random.default_rng(seed)
        picks = {cls: rng.permutation(self.pool_per_class)[:self.picks_per_class]
                 for cls in self.classes}
        warmup = [self.make_cell(cls, self.pool_per_class) for cls in self.classes]
        calls = [self.make_cell(cls, int(picks[cls][j]))
                 for j in range(self.picks_per_class) for cls in self.classes]
        return warmup, calls


# Cell radius of alg1_cells and outage_sweep. At the default 3.2 km, cell-edge
# users are out of reach of the power budget: about 40% of alg1 designs exit 2
# and two thirds of sweep cells lose a realization. In a 0.5 km cell every
# design of both pools succeeds, so no operation of the benchmark fails.
SMALL_CELL_KM = 0.5


def _alg1_cell(size, index):
    k, nt = size
    config = {"generate": {"n_users": k, "n_antennas": nt, "seed": index,
                           "radius_km": SMALL_CELL_KM},
              "algorithm": "alg1", "delta": 0.05, "r_mode": "gaussian"}
    return Cell(f"alg1/K{k}-N{nt}/s{index}", "design", config, 1)


def _powersave_cell(cls, index):
    nt, algorithm = cls
    config = {"generate": {"n_users": 6, "n_antennas": nt, "seed": index},
              "algorithm": algorithm, "total_power": 1.0, "r_cap": 5.0}
    return Cell(f"{algorithm}/K6-N{nt}/s{index}", "maxr", config, 1)


SWEEP_ALGORITHMS = ("zf", "rzf", "const_offset")
SWEEP_R_GRID = (1.0, 2.0, 3.0)
SWEEP_REALIZATIONS = 2


def _sweep_cell(_cls, index):
    config = {"generate": {"n_users": 4, "n_antennas": 8, "radius_km": SMALL_CELL_KM},
              "algorithms": list(SWEEP_ALGORITHMS), "r_grid": list(SWEEP_R_GRID),
              "n_realizations": SWEEP_REALIZATIONS, "n_trials": 5000,
              "variance_mode": "exact", "seed": index}
    return Cell(f"sweep/K4-N8/s{index}", "sweep", config,
                SWEEP_REALIZATIONS * len(SWEEP_R_GRID))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="alg1_cells",
        classes=((4, 8), (6, 20), (8, 32)),
        pool_per_class=29, picks_per_class=25, make_cell=_alg1_cell),
    Workload(
        name="powersave_cells",
        classes=tuple((nt, alg) for nt in (20, 30, 40, 50, 60)
                      for alg in ("maxr_powersave", "avg_outage")),
        pool_per_class=18, picks_per_class=15, make_cell=_powersave_cell),
    Workload(
        name="outage_sweep",
        classes=(None,),
        pool_per_class=46, picks_per_class=40, make_cell=_sweep_cell),
)}
