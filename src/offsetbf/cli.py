"""Command-line front end.

Subcommands: design (single-scenario pipeline, JSON + CSV report),
sweep (power-versus-outage curves over an offset grid, CSV),
maxr (max-common-offset family shortcut), montecarlo (empirical outage of a
designed scenario). Configuration is a JSON file; units are explicit at the
boundary (noise_dbm, gamma_db) and converted internally to linear Watts.

Exit codes: 0 success, 1 configuration error, 2 design infeasible or failed.
stdout carries nothing but the output path; diagnostics go to stderr.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import directions, montecarlo, powerload
from .channel import (FadingConfig, GeometryConfig, Scenario, generate_scenario,
                      load_scenario)
from .errors import (ConvergenceError, DegenerateChannelsError,
                     InfeasibleLoadingError)
from .stats import BeamformerSet, r_from_delta

FIXED_R_ALGORITHMS = ("zf", "mrt", "rzf", "alg1", "const_offset")
MAXR_ALGORITHMS = ("maxr", "maxr_reschedule", "maxr_powersave", "avg_outage")
ALGORITHM_IDS = FIXED_R_ALGORITHMS + MAXR_ALGORITHMS

GENERATE_KEYS = ("n_users", "n_antennas", "radius_km", "path_loss_exponent",
                 "shadowing_std_db", "noise_dbm", "sigma_e", "gamma_db",
                 "delta", "seed")
CONFIG_KEYS = ("scenario_file", "generate", "algorithm", "r", "delta", "r_mode",
               "total_power", "variance_mode", "seed", "out", "r_min", "r_cap",
               "rzf_loading", "r_grid", "delta_grid", "algorithms",
               "n_realizations", "n_trials")


@dataclass
class RunConfig:
    """Resolved run configuration; see the README for the JSON schema."""

    scenario_file: str = None
    generate: dict = None
    algorithm: str = "alg1"
    r: float = None
    delta: float = None
    r_mode: str = "cantelli"
    total_power: float = 1.0
    variance_mode: str = None
    seed: int = 0
    out: str = "report.json"
    r_min: float = 2.0
    r_cap: float = 5.0
    rzf_loading: float = None
    r_grid: list = None
    delta_grid: list = None
    algorithms: list = field(default_factory=list)
    n_realizations: int = 100
    n_trials: int = 1000

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        if (cfg.scenario_file is None) == (cfg.generate is None):
            raise ValueError("exactly one of scenario_file or generate is required")
        if cfg.algorithm not in ALGORITHM_IDS:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}, "
                             f"expected one of {ALGORITHM_IDS}")
        if cfg.generate is not None:
            unknown = set(cfg.generate) - set(GENERATE_KEYS)
            if unknown:
                raise ValueError(f"unknown generate keys: {sorted(unknown)}")
        if cfg.variance_mode not in (None, *powerload.VARIANCE_MODES):
            raise ValueError(f"unknown variance_mode {cfg.variance_mode!r}")
        for name in cfg.algorithms:
            if name not in ALGORITHM_IDS:
                raise ValueError(f"unknown algorithm {name!r} in algorithms list")
        return cfg

    def resolved_r(self) -> float:
        """The common offset coefficient, from r directly or from delta."""
        if self.r is not None:
            return float(self.r)
        if self.delta is not None:
            return r_from_delta(self.delta, self.r_mode)
        raise ValueError("algorithm requires r or delta in the config")


def _load_config(path) -> RunConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return RunConfig.from_dict(doc)


def _build_scenario(cfg: RunConfig, seed=None):
    if cfg.scenario_file is not None:
        return load_scenario(cfg.scenario_file)
    doc = dict(cfg.generate)
    if seed is None:
        seed = doc.pop("seed", cfg.seed)
    else:
        doc.pop("seed", None)
    geometry = GeometryConfig(
        n_users=doc.pop("n_users", 3),
        n_antennas=doc.pop("n_antennas", 4),
        radius_km=doc.pop("radius_km", 3.2),
    )
    fading = FadingConfig(**doc)
    return generate_scenario(geometry, fading, seed)


def _directions(name, scenario, cfg: RunConfig, r):
    """The beamforming directions of algorithm `name`, before any loading."""
    h_est = scenario.h_est_matrix()
    gammas = scenario.sinr_targets()
    if name == "zf":
        return directions.zf_directions(h_est)
    if name == "mrt":
        return directions.mrt_directions(h_est)
    if name == "rzf":
        loading = cfg.rzf_loading
        if loading is None:
            loading = scenario.n_users * float(np.mean(scenario.noise_vector())) \
                / cfg.total_power
        return directions.rzf_directions(h_est, loading)
    if name == "alg1":
        return directions.alg1_directions(h_est, gammas, scenario.sigma_e_vector(), r)
    if name in ("const_offset", "maxr", "avg_outage"):
        return directions.const_offset_directions(h_est, gammas)
    raise ValueError(f"unknown algorithm {name!r}")


def run_algorithm(name: str, scenario, cfg: RunConfig):
    """Run one design pipeline; returns (BeamformerSet, DesignReport).

    Fixed-r ids load power at the offset r; maxr and avg_outage maximize the
    common offset under the budget (avg_outage then perturbs it per user);
    maxr_reschedule and maxr_powersave also drop users and choose their own
    directions for the retained set.
    """
    h_est = scenario.h_est_matrix()
    gammas = scenario.sinr_targets()
    noise = scenario.noise_vector()
    sigma_e = scenario.sigma_e_vector()

    if name in ("maxr_reschedule", "maxr_powersave"):
        retained, report, u_rows, coupling = powerload.reschedule(
            h_est, gammas, sigma_e, noise, cfg.total_power, r_min=cfg.r_min,
            variance_mode=cfg.variance_mode)
        if name == "maxr_powersave":
            capped = powerload.power_saving_cap(coupling, noise[retained], report,
                                                r_cap=cfg.r_cap,
                                                variance_mode=cfg.variance_mode)
            capped.rescheduled = report.rescheduled
            capped.served_indices = list(retained)
            report = capped
        return BeamformerSet(directions=u_rows, powers=report.powers), report

    r = cfg.resolved_r() if name in FIXED_R_ALGORITHMS else None
    u_rows = _directions(name, scenario, cfg, r)
    coupling = powerload.coupling_matrix(h_est, u_rows, gammas, sigma_e)
    if r is not None:
        report = powerload.alg2_power_load(coupling, noise, r,
                                           variance_mode=cfg.variance_mode)
    else:
        _, r_star, report = powerload.max_r_power_load(
            coupling, noise, cfg.total_power, variance_mode=cfg.variance_mode)
        if name == "avg_outage" and np.isfinite(r_star):
            sigma_f = np.array([st.sigma for st in report.achieved_stats])
            delta_r, beta = powerload.average_outage_perturbation(
                coupling, noise, sigma_f, r_star)
            report = powerload.report_for_loading(
                coupling, beta, r_star + delta_r, noise,
                variance_mode=cfg.variance_mode,
                iterations=report.iterations_used,
                note="per-user offsets perturbed to minimize average outage")
    return BeamformerSet(directions=u_rows, powers=report.powers), report


def _csv_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[:-5] + ".csv"
    return out_path + ".csv"


def _write_report(cfg: RunConfig, name: str, report, extra=None) -> str:
    doc = {
        "config": asdict(cfg),
        "algorithm": name,
        "report": report.to_dict(),
    }
    if extra:
        doc.update(extra)
    with open(cfg.out, "w") as fh:
        json.dump(doc, fh, indent=2)
    rows = report.csv_rows()
    with open(_csv_path(cfg.out), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["index", "beta", "r", "mu_f",
                                                "sigma_f", "predicted_outage",
                                                "dropped"])
        writer.writeheader()
        writer.writerows(rows)
    return cfg.out


def cmd_design(cfg: RunConfig) -> int:
    scenario = _build_scenario(cfg)
    _, report = run_algorithm(cfg.algorithm, scenario, cfg)
    print(_write_report(cfg, cfg.algorithm, report))
    return 0


def cmd_maxr(cfg: RunConfig) -> int:
    if cfg.algorithm not in MAXR_ALGORITHMS:
        cfg.algorithm = "maxr"
    return cmd_design(cfg)


def cmd_montecarlo(cfg: RunConfig) -> int:
    scenario = _build_scenario(cfg)
    design, report = run_algorithm(cfg.algorithm, scenario, cfg)
    served = list(report.served_indices)
    sub = scenario
    if len(served) != scenario.n_users:
        sub = Scenario(users=[scenario.users[i] for i in served],
                       n_antennas=scenario.n_antennas,
                       rng_seed=scenario.rng_seed)
    estimates, stderrs = montecarlo.estimate_outage(design, sub, cfg.n_trials,
                                                    cfg.seed)
    outage = {int(i): float(p) for i, p in zip(served, estimates)}
    stderr = {int(i): float(s) for i, s in zip(served, stderrs)}
    for i in report.rescheduled:
        outage[int(i)] = 1.0
        stderr[int(i)] = 0.0
    extra = {
        "n_trials": cfg.n_trials,
        "outage": [outage[i] for i in sorted(outage)],
        "stderr_outage": [stderr[i] for i in sorted(stderr)],
    }
    print(_write_report(cfg, cfg.algorithm, report, extra=extra))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.generate is None:
        raise ValueError("sweep requires a generate block (fresh realizations)")
    if cfg.r_grid is not None:
        r_values = [float(r) for r in cfg.r_grid]
    elif cfg.delta_grid is not None:
        r_values = [r_from_delta(float(d), cfg.r_mode) for d in cfg.delta_grid]
    else:
        raise ValueError("sweep requires r_grid or delta_grid")
    names = cfg.algorithms or [cfg.algorithm]
    for name in names:
        if name not in FIXED_R_ALGORITHMS:
            raise ValueError(f"sweep supports fixed-offset algorithms only, got {name!r}")

    def make_fn(name):
        def design_fn(scenario, r):
            local = RunConfig(**{**asdict(cfg), "r": r, "delta": None})
            design, _ = run_algorithm(name, scenario, local)
            return design
        return design_fn

    algorithms = [(name, make_fn(name)) for name in names]
    points = montecarlo.sweep(algorithms, lambda seed: _build_scenario(cfg, seed),
                              r_values, cfg.n_realizations, cfg.n_trials,
                              base_seed=cfg.seed)
    montecarlo.sweep_to_csv(points, cfg.out)
    print(cfg.out)
    return 0


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.n_trials = args.trials
    if args.algorithms is not None:
        names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
        for name in names:
            if name not in ALGORITHM_IDS:
                raise ValueError(f"unknown algorithm {name!r}")
        cfg.algorithms = names
        if len(names) == 1:
            cfg.algorithm = names[0]
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offsetbf",
        description="Offset-based robust downlink beamforming")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("design", "sweep", "maxr", "montecarlo"):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte-Carlo trials override")
        p.add_argument("--algorithms", default=None,
                       help="comma-separated algorithm ids override")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    handler = {"design": cmd_design, "sweep": cmd_sweep, "maxr": cmd_maxr,
               "montecarlo": cmd_montecarlo}[args.command]
    try:
        return handler(cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleLoadingError as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DegenerateChannelsError) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
