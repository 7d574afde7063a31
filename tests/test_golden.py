"""Golden reports: every algorithm id on a fixed set of generated cells.

tests/golden/reports.json holds, for each (algorithm, cell, seed), either the
DesignReport.to_dict() of design.designer or the class and message of the
design error it raised. Refactors of the design chain must reproduce it: the
floats (powers, slack moments, outage, total power) to 1e-10 relative, so
that reordered arithmetic passes, and everything else (ints, strings, flags,
None, the dropped users, error classes and messages) exactly.

Re-record (only when a change of behaviour is intended) with
    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import json
import math
from pathlib import Path

import pytest

from offsetbf.channel import CellConfig, generate_scenario
from offsetbf.design import ALGORITHM_IDS
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.stats import r_from_delta

from helpers import design_report

GOLDEN_PATH = Path(__file__).parent / "golden" / "reports.json"
CELLS = ((3, 4, 0.5), (3, 4, 3.2), (6, 20, 0.5), (6, 40, 3.2), (4, 8, 3.2))
SEEDS = (0, 1, 2, 3)
BETA_RTOL = 1e-10
DESIGN_ERRORS = (ValueError, ConvergenceError, DegenerateChannelsError,
                 InfeasibleLoadingError)


def case_key(name, k, nt, radius_km, seed):
    return f"{name}/K{k}_Nt{nt}_R{radius_km}/seed{seed}"


def run_case(name, k, nt, radius_km, seed):
    # delta 0.05 under the Cantelli bound and P_t = 1 W; the budgeted ids ignore r
    scenario = generate_scenario(CellConfig(n_users=k, n_antennas=nt, radius_km=radius_km),
                                 seed)
    try:
        report = design_report(name, scenario, r_from_delta(0.05, "cantelli"))
    except DESIGN_ERRORS as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"report": report.to_dict()}


def all_cases():
    for name in ALGORITHM_IDS:
        for k, nt, radius_km in CELLS:
            for seed in SEEDS:
                yield case_key(name, k, nt, radius_km, seed), (name, k, nt, radius_km, seed)


@functools.cache
def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def assert_report_matches(report, expected, path="report"):
    if isinstance(expected, float):
        assert isinstance(report, float), (path, report, expected)
        assert math.isclose(report, expected, rel_tol=BETA_RTOL, abs_tol=0.0), \
            (path, report, expected)
    elif isinstance(expected, dict):
        assert sorted(report) == sorted(expected), path
        for key, want in expected.items():
            assert_report_matches(report[key], want, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(report) == len(expected), path
        for i, (got, want) in enumerate(zip(report, expected)):
            assert_report_matches(got, want, f"{path}[{i}]")
    else:
        assert report == expected, (path, report, expected)


CASES = list(all_cases())


@pytest.mark.parametrize("key,case", CASES, ids=[key for key, _ in CASES])
def test_report_matches_golden(key, case):
    expected = load_golden()[key]
    got = run_case(*case)
    if "error" in expected:
        assert got == expected
    else:
        assert "report" in got, got
        assert_report_matches(got["report"], expected["report"])


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(key for key, _ in CASES)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    golden = {key: run_case(*case) for key, case in CASES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
    n_errors = sum("error" in v for v in golden.values())
    print(f"{len(golden)} cases, {n_errors} errors -> {GOLDEN_PATH}")
