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
import functools
import json
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import directions, montecarlo, powerload
from .channel import CellConfig, generate_scenario, load_scenario
from .errors import (ConvergenceError, DegenerateChannelsError,
                     InfeasibleLoadingError)
from .stats import R_MODES, r_from_delta

FIXED_R_ALGORITHMS = ("zf", "mrt", "rzf", "alg1", "const_offset")
MAXR_ALGORITHMS = ("maxr", "maxr_reschedule", "maxr_powersave", "avg_outage")
ALGORITHM_IDS = FIXED_R_ALGORITHMS + MAXR_ALGORITHMS

CSV_FIELDS = ("index", "beta", "r", "mu_f", "sigma_f", "predicted_outage", "dropped")


# A rule pairs what a value must be with its test. A Key holds a config key's
# kind and bound rules, the Key of each list entry, and whether it may be null.
Key = namedtuple("Key", "kind bound item nullable", defaults=(None, None, False))


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or math.isfinite(value))


def one_of(choices: tuple) -> tuple:
    return f"one of {choices}", lambda value: value in choices


def at_least(minimum) -> tuple:
    return f"at least {minimum}", lambda value: value >= minimum


NUMBER = ("a finite number", _is_number)
INTEGER = ("an integer", functools.partial(_is_number, kind=numbers.Integral))
STRING = ("a string", lambda value: isinstance(value, str))
LIST = ("a list", lambda value: isinstance(value, list))
OBJECT = ("an object", lambda value: isinstance(value, dict))
POSITIVE = ("positive", lambda value: value > 0)
# the generate block: CellConfig's fields, whose defaults apply, and the scenario seed
GENERATE = {"n_users": Key(INTEGER, at_least(1)), "n_antennas": Key(INTEGER, at_least(1)),
            "radius_km": Key(NUMBER, POSITIVE), "path_loss_exponent": Key(NUMBER),
            "shadowing_std_db": Key(NUMBER), "noise_dbm": Key(NUMBER),
            "sigma_e": Key(NUMBER), "gamma_db": Key(NUMBER),
            "seed": Key(INTEGER, at_least(0))}


def _key(default, kind, bound=None, item=None):
    """A RunConfig field with its Key; a key whose default is null may be null."""
    metadata = {"key": Key(kind, bound, item, nullable=default is None)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


def _check(name, value, key: Key):
    """Raise ValueError, naming `name` and `value`, unless value obeys key."""
    if value is None and key.nullable:
        return
    for what, holds in filter(None, (key.kind, key.bound)):
        if not holds(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
    for entry in value if key.item else ():
        _check(name, entry, key.item)


def _check_keys(where, doc: dict, table: dict, prefix=""):
    """Check each key of doc against its Key in table; an unknown key raises."""
    unknown = set(doc) - set(table)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    for name, value in doc.items():
        _check(prefix + name, value, table[name])


@dataclass
class RunConfig:
    """Resolved run configuration; see the README for the JSON schema."""

    scenario_file: str = _key(None, STRING)
    generate: dict = _key(None, OBJECT)
    algorithm: str = _key("alg1", one_of(ALGORITHM_IDS))
    r: float = _key(None, NUMBER)
    delta: float = _key(None, NUMBER)
    r_mode: str = _key("cantelli", one_of(R_MODES))
    total_power: float = _key(1.0, NUMBER, POSITIVE)
    variance_mode: str = _key(None, one_of(powerload.VARIANCE_MODES))
    seed: int = _key(0, INTEGER, at_least(0))
    out: str = _key("report.json", STRING)
    r_min: float = _key(2.0, NUMBER)
    r_cap: float = _key(5.0, NUMBER, POSITIVE)
    rzf_loading: float = _key(None, NUMBER, POSITIVE)
    r_grid: list = _key(None, LIST, item=Key(NUMBER))
    delta_grid: list = _key(None, LIST, item=Key(NUMBER))
    algorithms: list = _key([], LIST, item=Key(one_of(ALGORITHM_IDS)))
    n_realizations: int = _key(100, INTEGER)
    n_trials: int = _key(1000, INTEGER, at_least(1))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _check_keys("config", doc, CONFIG)
        _check_keys("generate", doc.get("generate") or {}, GENERATE, "generate.")
        if (doc.get("scenario_file") is None) == (doc.get("generate") is None):
            raise ValueError("exactly one of scenario_file or generate is required")
        return cls(**doc)

    def resolved_r(self) -> float:
        """The common offset coefficient, from r directly or from delta."""
        if self.r is not None:
            return float(self.r)
        if self.delta is not None:
            return r_from_delta(self.delta, self.r_mode)
        raise ValueError("algorithm requires r or delta in the config")


CONFIG = {f.name: f.metadata["key"] for f in fields(RunConfig)}


def _load_config(args) -> RunConfig:
    """Read the JSON config, apply the command-line overrides, then validate."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the config must be a JSON object")
    overrides = {"out": args.out, "seed": args.seed, "n_trials": args.trials}
    doc.update({key: value for key, value in overrides.items() if value is not None})
    if args.algorithms is not None:
        names = [n.strip() for n in args.algorithms.split(",") if n.strip()]
        doc["algorithms"] = names
        if len(names) == 1:
            doc["algorithm"] = names[0]
    single = args.command != "sweep"        # design, maxr and montecarlo run one id
    if single and isinstance(doc.get("algorithms"), list) and len(doc["algorithms"]) == 1:
        doc.setdefault("algorithm", doc["algorithms"][0])
    if args.command == "maxr":      # maxr runs a budgeted id, by default maxr
        if doc.setdefault("algorithm", "maxr") not in MAXR_ALGORITHMS:
            raise ValueError(f"maxr runs a budgeted algorithm, one of {MAXR_ALGORITHMS}, "
                             f"got {doc['algorithm']!r}")
    cfg = RunConfig.from_dict(doc)
    if single and cfg.algorithms not in ([], [cfg.algorithm]):
        given = "" if len(cfg.algorithms) > 1 else f"algorithm {cfg.algorithm!r} and "
        raise ValueError(f"{args.command} runs one algorithm, got {given}algorithms {cfg.algorithms}")
    return cfg


def _build_scenario(cfg: RunConfig, seed=None):
    if cfg.scenario_file is not None:
        return load_scenario(cfg.scenario_file)
    doc = dict(cfg.generate)
    doc_seed = doc.pop("seed", cfg.seed)
    return generate_scenario(CellConfig(**doc), doc_seed if seed is None else seed)


def _coupling(name, scenario, cfg: RunConfig, r=None):
    """The coupling of algorithm `name`'s directions (alg1's at offset r),
    under cfg's variance mode, before any loading."""
    h_est = scenario.h_est
    gammas = scenario.sinr_target
    if name == "zf":
        u_rows = directions.zf_directions(h_est)
    elif name == "mrt":
        u_rows = directions.mrt_directions(h_est)
    elif name == "rzf":
        loading = cfg.rzf_loading
        if loading is None:
            loading = scenario.n_users * float(np.mean(scenario.noise_power)) \
                / cfg.total_power
        u_rows = directions.rzf_directions(h_est, loading)
    elif name == "alg1":
        u_rows = directions.alg1_directions(h_est, gammas, scenario.sigma_e, r)
    elif name in ("const_offset", "maxr", "avg_outage"):
        u_rows = directions.const_offset_directions(h_est, gammas)
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    return powerload.coupling_matrix(scenario, u_rows, cfg.variance_mode)


def fixed_r_designer(name: str, scenario, cfg: RunConfig):
    """Closure r -> DesignReport for a fixed-r algorithm id.

    The directions and coupling of every id but alg1 do not depend on r, so
    they are built once here and each call only loads power at its offset;
    alg1's directions depend on r and are rebuilt at each call.
    """
    if name == "alg1":
        return lambda r: powerload.alg2_power_load(_coupling(name, scenario, cfg, r), r)
    coupling = _coupling(name, scenario, cfg)
    return lambda r: powerload.alg2_power_load(coupling, r)


def run_algorithm(name: str, scenario, cfg: RunConfig):
    """Run one design pipeline; returns its DesignReport.

    Fixed-r ids load power at the offset r; maxr and avg_outage maximize the
    common offset under the budget (avg_outage then perturbs it per user);
    maxr_reschedule and maxr_powersave also drop users and choose their own
    directions for the retained set.
    """
    if name in FIXED_R_ALGORITHMS:
        r = cfg.resolved_r()
        return fixed_r_designer(name, scenario, cfg)(r)

    if name in ("maxr_reschedule", "maxr_powersave"):
        _, report = powerload.reschedule(
            scenario, cfg.total_power, r_min=cfg.r_min, variance_mode=cfg.variance_mode)
        if name == "maxr_powersave":
            report = powerload.power_saving_cap(report, r_cap=cfg.r_cap)
        return report

    _, _, report = powerload.max_r_power_load(_coupling(name, scenario, cfg),
                                              cfg.total_power)
    if name == "avg_outage":
        report = powerload.average_outage_perturbation(report)
    return report


def _write_report(cfg: RunConfig, name: str, report, extra=None) -> str:
    """Write the JSON report, serialized in one piece, and its per-user CSV."""
    doc = {"config": {key: getattr(cfg, key) for key in CONFIG},
           "algorithm": name, "report": report.to_dict(), **(extra or {})}
    with open(cfg.out, "w") as fh:
        fh.write(json.dumps(doc, indent=2))
    with open(cfg.out.removesuffix(".json") + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows([user[key] for key in CSV_FIELDS]
                         for user in doc["report"]["users"])
    return cfg.out


def cmd_design(cfg: RunConfig) -> int:
    scenario = _build_scenario(cfg)
    report = run_algorithm(cfg.algorithm, scenario, cfg)
    print(_write_report(cfg, cfg.algorithm, report))
    return 0


def cmd_montecarlo(cfg: RunConfig) -> int:
    scenario = _build_scenario(cfg)
    report = run_algorithm(cfg.algorithm, scenario, cfg)
    served = list(report.served_indices)
    estimates, stderrs = montecarlo.estimate_outage(
        [report], scenario.subset(served), cfg.n_trials, cfg.seed)
    outage, stderr = np.ones(scenario.n_users), np.zeros(scenario.n_users)
    outage[served], stderr[served] = estimates[0], stderrs[0]
    extra = {"n_trials": cfg.n_trials, "outage": outage.tolist(),
             "stderr_outage": stderr.tolist()}
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

    algorithms = [(name, functools.partial(fixed_r_designer, name, cfg=cfg))
                  for name in names]
    points = montecarlo.sweep(algorithms, lambda seed: _build_scenario(cfg, seed),
                              r_values, cfg.n_realizations, cfg.n_trials,
                              base_seed=cfg.seed)
    montecarlo.sweep_to_csv(points, cfg.out)
    print(cfg.out)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"design": cmd_design, "sweep": cmd_sweep, "maxr": cmd_design,
               "montecarlo": cmd_montecarlo}[args.command]
    # DegenerateChannelsError is a ValueError, so the design errors go first
    try:
        return handler(_load_config(args))
    except InfeasibleLoadingError as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DegenerateChannelsError) as exc:
        print(f"design failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
