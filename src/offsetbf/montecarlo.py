"""Empirical outage estimation and power-versus-outage sweep curves.

Trials draw fresh channel errors conditioned on the fixed estimates
(h = h_est + e per trial), evaluate the realized SINRs, and average the
outage indicators. Sweeps aggregate over channel realizations, keeping only
those for which every compared algorithm produced a viable design.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .channel import Scenario, draw_errors
from .errors import ConvergenceError, DegenerateChannelsError, InfeasibleLoadingError
from .stats import BeamformerSet

SWEEP_CSV_COLUMNS = ("algorithm", "r", "mean_power_W", "mean_outage",
                     "stderr_outage", "n_viable")

# SINRs within this relative distance of the target count as served, so
# equality designs evaluated at zero uncertainty report exactly zero outage
# instead of picking up rounding noise from the power solve.
SINR_TOLERANCE = 1e-9


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


def estimate_outage(design: BeamformerSet, scenario: Scenario, n_trials: int,
                    base_seed):
    """Per-user outage estimates and binomial standard errors.

    For each user, n_trials errors are drawn from CN(0, sigma_e^2 I), the
    realized SINR with h = h_est + e is compared against the target, and the
    indicator average is returned. Per-user substreams are derived from
    base_seed, so estimates are reproducible and trial counts extend prefixes.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    w = design.weights()
    k_users = scenario.n_users
    estimates = np.zeros(k_users)
    stderrs = np.zeros(k_users)
    for k, user in enumerate(scenario.users):
        errors = draw_errors(user, n_trials, _trial_seed(base_seed, k))
        h = user.h_est[None, :] + errors
        gains = np.abs(h.conj() @ w.T) ** 2            # [t, j] = |h^H w_j|^2
        interference = gains.sum(axis=1) - gains[:, k]
        sinr = gains[:, k] / (interference + user.noise_power)
        p = float(np.mean(sinr < user.sinr_target * (1.0 - SINR_TOLERANCE)))
        estimates[k] = p
        stderrs[k] = np.sqrt(p * (1.0 - p) / n_trials)
    return estimates, stderrs


def viability_check(design, power_limit: float = 100.0) -> bool:
    """A design is viable if it exists and spends strictly less than power_limit."""
    if design is None:
        return False
    return float(np.sum(design.powers)) < power_limit


def sweep(algorithms, scenario_generator, r_values, n_realizations: int,
          n_trials: int, base_seed=0, power_limit: float = 100.0) -> list:
    """Power-versus-outage sweep over a grid of offset coefficients.

    algorithms: list of (name, design_fn) with design_fn(scenario, r)
    returning a BeamformerSet; a design_fn may signal infeasibility by
    returning None or raising one of the design errors.
    scenario_generator: callable(seed) -> Scenario; the same realization seeds
    are reused at every r so curves share their channel set.

    A realization enters the averages only if every algorithm is viable on it
    (same aggregation set for all, so the comparison is fair). Points with no
    viable realization are emitted with NaN means and n_viable = 0.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    scenario_seeds = [np.random.SeedSequence(entropy=base_seed, spawn_key=(i,))
                      for i in range(n_realizations)]
    scenarios = [scenario_generator(seed) for seed in scenario_seeds]

    points = []
    for ri, r in enumerate(r_values):
        designs = {name: [] for name, _ in algorithms}
        kept = []
        for i, scenario in enumerate(scenarios):
            row = {}
            for name, design_fn in algorithms:
                try:
                    row[name] = design_fn(scenario, r)
                except (InfeasibleLoadingError, ConvergenceError,
                        DegenerateChannelsError):
                    row[name] = None
            if all(viability_check(d, power_limit) for d in row.values()):
                kept.append(i)
                for name, _ in algorithms:
                    designs[name].append(row[name])

        for name, _ in algorithms:
            if not kept:
                points.append(SweepPoint(algorithm=name, r=float(r),
                                         mean_power=float("nan"),
                                         mean_outage=float("nan"),
                                         stderr_outage=float("nan"), n_viable=0))
                continue
            powers, outages, variances = [], [], []
            for design, i in zip(designs[name], kept):
                scenario = scenarios[i]
                trial_seed = np.random.SeedSequence(entropy=base_seed,
                                                    spawn_key=(i, 1 + ri))
                est, se = estimate_outage(design, scenario, n_trials, trial_seed)
                powers.append(float(np.sum(design.powers)))
                outages.append(float(np.mean(est)))
                variances.append(float(np.sum(se ** 2)) / len(est) ** 2)
            n = len(kept)
            points.append(SweepPoint(
                algorithm=name,
                r=float(r),
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
