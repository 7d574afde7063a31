"""Empirical outage estimation and power-versus-outage sweep curves.

Trials draw fresh channel errors conditioned on the fixed estimates
(h = h_est + e per trial), evaluate the realized SINRs, and average the
outage indicators. Every design passed to one estimate is scored on the same
error draws, so each user's errors are drawn once for all of them. The
trials are walked in blocks of TRIAL_BLOCK = 1024: each block continues the
user's substream and is scored against all designs in one matrix product, so
a block's arrays stay inside the per-core L2 cache. Results do not depend on
the block size, because each user's substream is prefix-stable: the blocks
concatenate bit for bit to one draw of all the trials. Sweeps
aggregate over channel realizations, keeping only those for which every
compared algorithm produced a viable design; each algorithm's r-independent
work (directions, coupling) is done once per realization.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, draw_errors
from .errors import ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError

SWEEP_CSV_COLUMNS = ("algorithm", "r", "mean_power_W", "mean_outage",
                     "stderr_outage", "n_viable")

# SINRs within this relative distance of the target count as served, so
# equality designs evaluated at zero uncertainty report exactly zero outage
# instead of picking up rounding noise from the power solve.
SINR_TOLERANCE = 1e-9

# Watts. A sweep leaves a realization out at r when any of its designs there
# spends this much or more (viability_check).
VIABLE_POWER_LIMIT_W = 100.0

# Trials per block of estimate_outage: a block's arrays (0.5 MB for 3 designs
# at K = 4, N_t = 8) stay inside a 2 MB per-core L2; 256 and 2048 were slower.
TRIAL_BLOCK = 1024


@dataclass
class SweepPoint:
    """One aggregated row of a power-versus-outage sweep."""

    algorithm: str
    r: float
    mean_power: float
    mean_outage: float
    stderr_outage: float
    n_viable: int


def _trial_seed(base_seed, user_index: int) -> np.random.SeedSequence:
    """Derive a per-user substream, composing with an existing spawn key."""
    if isinstance(base_seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=base_seed.entropy,
                                      spawn_key=tuple(base_seed.spawn_key) + (user_index,))
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(user_index,))


def estimate_outage(designs, scenario: Scenario, n_trials: int, base_seed):
    """Per-design, per-user outage estimates and binomial standard errors.

    Returns two arrays of shape (len(designs), K). For each user, n_trials
    errors are drawn once from CN(0, sigma_e^2 I); every design is scored on
    those draws, with h = h_est + e, by the sign of user k's SINR margin
    |h^H w_k|^2 - g (sum_{j!=k} |h^H w_j|^2 + sigma_k^2), g being the target
    less SINR_TOLERANCE. Per-user substreams are derived from base_seed, so
    estimates are reproducible, trial counts extend prefixes, and a design's
    estimate does not depend on which other designs share the call.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    n_users = scenario.n_users
    weights = [design.weights() for design in designs]
    for d, w in enumerate(weights):
        if w.shape != (n_users, scenario.n_antennas):
            raise ValueError(f"design {d} has {w.shape[0]} beamformers of length "
                             f"{w.shape[1]} for a scenario of {n_users} users and "
                             f"{scenario.n_antennas} antennas")
    # column d*K + j holds conj(w_j) of design d, so h @ w_conj = conj(h^H w_j)
    w_conj = np.array(weights, dtype=complex).reshape(-1, scenario.n_antennas).conj().T
    counts = np.zeros((len(weights), n_users), dtype=np.int64)
    for k in range(n_users):
        rng = np.random.default_rng(_trial_seed(base_seed, k))
        target = scenario.sinr_target[k] * (1.0 - SINR_TOLERANCE)
        # margin row d sums the squared real and imaginary parts of design d's
        # K products, weighted 1 for user k and -target for the others
        weight = np.full((n_users, 2), -target)
        weight[k] = 1.0
        to_margin = np.kron(np.eye(len(weights)), weight.reshape(1, -1))
        for start in range(0, n_trials, TRIAL_BLOCK):
            h = draw_errors(scenario.sigma_e[k], scenario.n_antennas,
                            min(TRIAL_BLOCK, n_trials - start), rng)
            h += scenario.h_est[k]
            margins = to_margin @ np.square((h @ w_conj).view(float)).T
            counts[:, k] += np.count_nonzero(
                margins < target * scenario.noise_power[k], axis=1)
    estimates = counts / n_trials
    return estimates, np.sqrt(estimates * (1.0 - estimates) / n_trials)


def viability_check(design) -> bool:
    """A design is viable if it exists and spends strictly less than
    VIABLE_POWER_LIMIT_W."""
    if design is None:
        return False
    return design.total_power < VIABLE_POWER_LIMIT_W


def _or_none(fn, arg):
    """fn(arg), or None if there is no fn or it raises a design error."""
    if fn is None:
        return None
    try:
        return fn(arg)
    except (InfeasibleLoadingError, ConvergenceError, DegenerateChannelsError):
        return None


def sweep(algorithms, scenario_generator, r_values, n_realizations: int,
          n_trials: int, base_seed=0) -> list:
    """Power-versus-outage sweep over a grid of offset coefficients.

    algorithms: list of (name, designer). designer(scenario) does the
    r-independent work once per realization and returns a closure
    r -> DesignReport. Either call may signal infeasibility by raising one
    of the design errors; the closure may also return None. A designer that
    raises leaves its algorithm non-viable at every r of that realization.
    scenario_generator: callable(seed) -> Scenario; the same realization seeds
    are reused at every r so curves share their channel set.

    A realization enters the averages at r only if every algorithm is viable
    on it there, by viability_check (same aggregation set for all, so the
    comparison is fair); its designs are then scored together on one set of
    error draws. Points with no viable realization are emitted with NaN means
    and n_viable = 0.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be at least 1, got {n_realizations}")
    r_values = [float(r) for r in r_values]
    if not r_values:
        raise ValueError("the r grid is empty")

    # [ri][a] -> per kept realization: power, mean outage, outage variance
    rows = [[([], [], []) for _ in algorithms] for _ in r_values]
    for i in range(n_realizations):
        scenario = scenario_generator(
            np.random.SeedSequence(entropy=base_seed, spawn_key=(i,)))
        design_fns = [_or_none(designer, scenario) for _, designer in algorithms]
        for ri, r in enumerate(r_values):
            designs = [_or_none(design_at, r) for design_at in design_fns]
            if not all(viability_check(d) for d in designs):
                continue
            trial_seed = np.random.SeedSequence(entropy=base_seed,
                                                spawn_key=(i, 1 + ri))
            est, se = estimate_outage(designs, scenario, n_trials, trial_seed)
            for a, design in enumerate(designs):
                powers, outages, variances = rows[ri][a]
                powers.append(design.total_power)
                outages.append(float(np.mean(est[a])))
                variances.append(float(np.sum(se[a] ** 2)) / est.shape[1] ** 2)

    points = []
    for ri, r in enumerate(r_values):
        for (name, _), (powers, outages, variances) in zip(algorithms, rows[ri]):
            n = len(powers)
            if n == 0:
                points.append(SweepPoint(algorithm=name, r=r,
                                         mean_power=float("nan"),
                                         mean_outage=float("nan"),
                                         stderr_outage=float("nan"), n_viable=0))
                continue
            points.append(SweepPoint(
                algorithm=name,
                r=r,
                mean_power=float(np.mean(powers)),
                mean_outage=float(np.mean(outages)),
                stderr_outage=float(np.sqrt(np.sum(variances)) / n),
                n_viable=n,
            ))
    return points


def sweep_to_csv(points, path) -> None:
    """Write sweep points as CSV with a fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for p in points:
            writer.writerow([p.algorithm, f"{p.r:.10g}", f"{p.mean_power:.10g}",
                             f"{p.mean_outage:.10g}", f"{p.stderr_outage:.10g}",
                             p.n_viable])
