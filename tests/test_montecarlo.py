"""Tests for empirical outage estimation and sweep aggregation."""

import csv

import numpy as np
import pytest
from scipy.special import ndtr

from offsetbf import montecarlo
from offsetbf.directions import const_offset_directions
from offsetbf.errors import DegenerateChannelsError
from offsetbf.montecarlo import (SweepPoint, estimate_outage, sweep, sweep_to_csv,
                                 viability_check, SWEEP_CSV_COLUMNS)
from offsetbf.powerload import DesignReport, alg2_power_load, coupling_matrix

from helpers import (estimate_outage_oracle, per_algorithm_sweep, scenario_from_rows,
                     standard_complex, unit_scale_scenario)

B = montecarlo.TRIAL_BLOCK


def constant_offset_coupling(scenario):
    """The coupling of the constant-offset directions of a scenario."""
    return coupling_matrix(
        scenario, const_offset_directions(scenario.h_est, scenario.sinr_target))


def designer(scenario):
    """Constant-offset directions and coupling, then r -> loaded design."""
    coupling = constant_offset_coupling(scenario)
    return lambda r: alg2_power_load(coupling, r)


def design_for(scenario, r):
    return designer(scenario)(r)


def outage_of(design, scenario, n_trials, base_seed):
    """The single-design estimate: row 0 of a one-design estimate_outage."""
    estimates, stderrs = estimate_outage([design], scenario, n_trials, base_seed)
    return estimates[0], stderrs[0]


def make_scenario(seed, sigma_e=0.1):
    rng = np.random.default_rng(seed)
    return scenario_from_rows(standard_complex(rng, (3, 4)), sigma_e=sigma_e)


# ---------------------------------------------------------------------------
# estimate_outage
# ---------------------------------------------------------------------------

def test_estimate_outage_zero_uncertainty_is_exactly_zero():
    scenario = make_scenario(0, sigma_e=0.0)
    design = design_for(scenario, 2.0)
    estimates, stderrs = outage_of(design, scenario, 5000, base_seed=1)
    assert np.all(estimates == 0.0)
    assert np.all(stderrs == 0.0)


def test_estimate_outage_matches_gaussian_prediction():
    scenario = unit_scale_scenario(seed=3)
    design = design_for(scenario, 2.0)
    estimates, _ = outage_of(design, scenario, 20000, base_seed=2)
    target = 1.0 - ndtr(2.0)
    in_band = np.sum((estimates >= 0.7 * target) & (estimates <= 1.3 * target))
    assert in_band >= 2


def test_estimate_outage_stderr_scales_with_trials():
    scenario = unit_scale_scenario(seed=4)
    design = design_for(scenario, 1.0)
    _, se_small = outage_of(design, scenario, 2000, base_seed=3)
    _, se_large = outage_of(design, scenario, 8000, base_seed=3)
    ratios = se_small / se_large
    assert np.all(ratios > 1.6)
    assert np.all(ratios < 2.6)


def test_estimate_outage_deterministic_and_seed_sensitive():
    scenario = unit_scale_scenario(seed=5)
    design = design_for(scenario, 1.0)
    first, _ = outage_of(design, scenario, 2000, base_seed=7)
    again, _ = outage_of(design, scenario, 2000, base_seed=7)
    other, _ = outage_of(design, scenario, 2000, base_seed=8)
    assert np.array_equal(first, again)
    assert np.any(first != other)


def test_estimate_outage_margins_drive_outage():
    scenario = unit_scale_scenario(seed=9)
    coupling = constant_offset_coupling(scenario)
    design = alg2_power_load(coupling, 2.0)
    boosted = DesignReport(coupling, design.powers * 50.0, 2.0)
    starved = DesignReport(coupling, design.powers * 1e-4, 2.0)
    outage_boosted, _ = outage_of(boosted, scenario, 200, base_seed=11)
    outage_starved, _ = outage_of(starved, scenario, 200, base_seed=11)
    assert np.all(outage_boosted == 0.0)
    assert np.all(outage_starved == 1.0)


def test_estimate_outage_shared_draws_match_single_design_calls():
    scenario = unit_scale_scenario(seed=5)
    d1 = design_for(scenario, 1.0)
    d2 = design_for(scenario, 2.5)
    seed = np.random.SeedSequence(entropy=4, spawn_key=(2, 1))
    est, se = estimate_outage([d1, d2], scenario, 3000, seed)
    assert est.shape == se.shape == (2, scenario.n_users)
    for row, design in enumerate((d1, d2)):
        est_one, se_one = estimate_outage([design], scenario, 3000, seed)
        assert est[row].tobytes() == est_one[0].tobytes()
        assert se[row].tobytes() == se_one[0].tobytes()
    assert np.any(est[0] != est[1])


def assert_matches_oracle(designs, scenario, n_trials, seed):
    """estimate_outage equals the single-design oracle byte for byte."""
    est, se = estimate_outage(designs, scenario, n_trials, seed)
    est_oracle, se_oracle = estimate_outage_oracle(designs, scenario, n_trials, seed)
    assert est.shape == se.shape == est_oracle.shape
    assert est.tobytes() == est_oracle.tobytes()
    assert se.tobytes() == se_oracle.tobytes()
    return est


def mixed_scenario():
    """Four users in the unit-scale regime; user 1 has no channel error."""
    rng = np.random.default_rng(21)
    return scenario_from_rows(standard_complex(rng, (4, 6)),
                              sigma_e=[0.1, 0.0, 0.15, 0.12], gamma=4.0)


@pytest.mark.parametrize("n_designs", [1, 3])
@pytest.mark.parametrize("n_trials", [1, B - 1, B, B + 1, 2 * B + 3, 5000])
def test_estimate_outage_matches_single_design_oracle(n_trials, n_designs):
    scenario = mixed_scenario()
    designs = [design_for(scenario, r) for r in (0.5, 1.5, 3.0)[:n_designs]]
    seed = np.random.SeedSequence(entropy=13, spawn_key=(1, 2))
    est = assert_matches_oracle(designs, scenario, n_trials, seed)
    assert np.all(est[:, 1] == 0.0)
    if n_trials == 5000:
        assert np.all((est[:, [0, 2, 3]] > 0.0) & (est[:, [0, 2, 3]] < 1.0))


def test_estimate_outage_matches_oracle_on_a_subset_of_users():
    scenario = mixed_scenario()
    served = scenario.subset([3, 0, 2])
    designs = [design_for(served, 1.0), design_for(served, 2.0)]
    assert_matches_oracle(designs, served, 3 * B + 17, 5)


@pytest.mark.parametrize("block", [1, 7])
def test_estimate_outage_does_not_depend_on_the_block_size(monkeypatch, block):
    scenario = mixed_scenario()
    designs = [design_for(scenario, 0.5), design_for(scenario, 2.0)]
    expected = estimate_outage(designs, scenario, 200, base_seed=3)
    monkeypatch.setattr(montecarlo, "TRIAL_BLOCK", block)
    est = assert_matches_oracle(designs, scenario, 200, 3)
    assert est.tobytes() == expected[0].tobytes()


def test_estimate_outage_rejects_designs_for_another_user_count():
    scenario = mixed_scenario()
    three = design_for(scenario.subset([0, 1, 2]), 1.0)
    with pytest.raises(ValueError, match="design 1 has 3 beamformers of length 6 "
                                         "for a scenario of 2 users and 6 antennas"):
        estimate_outage([design_for(scenario.subset([0, 1]), 1.0), three],
                        scenario.subset([0, 1]), 10, base_seed=0)
    with pytest.raises(ValueError, match="design 0 has 3 beamformers of length 6 "
                                         "for a scenario of 4 users"):
        estimate_outage([three], scenario, 10, base_seed=0)
    narrow = scenario_from_rows(scenario.h_est[:3, :4])
    with pytest.raises(ValueError, match="design 0 has 3 beamformers of length 6 "
                                         "for a scenario of 3 users and 4 antennas"):
        estimate_outage([three], narrow, 10, base_seed=0)


def test_estimate_outage_rejects_zero_trials():
    scenario = unit_scale_scenario(seed=6)
    design = design_for(scenario, 1.0)
    with pytest.raises(ValueError):
        estimate_outage([design], scenario, 0, base_seed=0)


# ---------------------------------------------------------------------------
# viability
# ---------------------------------------------------------------------------

def test_viability_check_thresholds(monkeypatch):
    u = np.array([[1.0, 0.0]], dtype=complex)
    coupling = coupling_matrix(scenario_from_rows(u, 0.1, gamma=1.0), u)
    assert montecarlo.VIABLE_POWER_LIMIT_W == 100.0
    assert viability_check(DesignReport(coupling, [99.9], 0.0))
    assert not viability_check(DesignReport(coupling, [100.0], 0.0))
    assert not viability_check(None)
    monkeypatch.setattr(montecarlo, "VIABLE_POWER_LIMIT_W", 50.0)
    assert not viability_check(DesignReport(coupling, [99.9], 0.0))


@pytest.fixture
def no_power_limit(monkeypatch):
    """Keep every design viable, whatever it spends."""
    monkeypatch.setattr(montecarlo, "VIABLE_POWER_LIMIT_W", 1e6)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def generator(seed):
    rng = np.random.default_rng(seed)
    return scenario_from_rows(standard_complex(rng, (3, 4)), sigma_e=0.1)


def sometimes_none(scenario):
    """A designer with no design on realizations whose first entry is negative."""
    if scenario.h_est[0, 0].real < 0:
        return lambda r: None
    return designer(scenario)


def test_sweep_grid_shape_and_common_realizations(no_power_limit):
    points = sweep([("co", designer)], generator, r_values=[1.0, 2.0, 3.0],
                   n_realizations=4, n_trials=200, base_seed=0)
    assert len(points) == 3
    assert [p.r for p in points] == [1.0, 2.0, 3.0]
    assert all(p.algorithm == "co" for p in points)
    assert all(p.n_viable == 4 for p in points)


def test_sweep_fairness_uses_intersection_of_viable_sets(no_power_limit):
    both = sweep([("always", designer), ("flaky", sometimes_none)],
                 generator, r_values=[1.0], n_realizations=8, n_trials=100,
                 base_seed=1)
    solo = sweep([("always", designer)], generator, r_values=[1.0],
                 n_realizations=8, n_trials=100, base_seed=1)
    n_both = {p.algorithm: p.n_viable for p in both}
    assert n_both["always"] == n_both["flaky"]
    assert 0 < n_both["always"] < 8
    assert solo[0].n_viable > n_both["always"]


def test_sweep_zero_uncertainty_gives_zero_outage_and_fixed_power(no_power_limit):
    def zero_generator(seed):
        rng = np.random.default_rng(seed)
        return scenario_from_rows(standard_complex(rng, (3, 4)), sigma_e=0.0)

    points = sweep([("co", designer)], zero_generator, r_values=[1.0, 3.0],
                   n_realizations=3, n_trials=500, base_seed=2)
    assert all(p.mean_outage == 0.0 for p in points)
    assert all(p.stderr_outage == 0.0 for p in points)
    # the loading is r-independent at zero uncertainty
    assert points[0].mean_power == pytest.approx(points[1].mean_power, rel=1e-12)


def test_sweep_outage_and_power_monotone_in_r(no_power_limit):
    points = sweep([("co", designer)], generator, r_values=[0.5, 2.0],
                   n_realizations=5, n_trials=2000, base_seed=3)
    low, high = points
    assert high.mean_power > low.mean_power
    assert high.mean_outage < low.mean_outage


def test_sweep_empty_viable_set_yields_nan_point(monkeypatch):
    monkeypatch.setattr(montecarlo, "VIABLE_POWER_LIMIT_W", 1e-6)
    points = sweep([("co", designer)], generator, r_values=[1.0],
                   n_realizations=3, n_trials=100, base_seed=4)
    assert points[0].n_viable == 0
    assert np.isnan(points[0].mean_power)
    assert np.isnan(points[0].mean_outage)
    with pytest.raises(ValueError):
        sweep([], generator, r_values=[1.0], n_realizations=1, n_trials=10,
              base_seed=0)


def test_sweep_csv_deterministic(tmp_path, no_power_limit):
    def run(path):
        points = sweep([("co", designer)], generator, r_values=[1.0, 2.0],
                       n_realizations=3, n_trials=300, base_seed=5)
        sweep_to_csv(points, path)

    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    run(path_a)
    run(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SWEEP_CSV_COLUMNS)
    assert len(rows) == 3


def test_sweep_csv_bytes_of_fixed_points(tmp_path):
    # floats as .10g, n_viable as an integer, and a point with no viable
    # realization as nan means beside n_viable 0
    points = [SweepPoint("zf", 1.5, 0.123456789012345, 1.0 / 3.0, 2.5e-05, 7),
              SweepPoint("alg1", 2.0, 1234567890123.0, 0.0, 1e-300, 1),
              SweepPoint("rzf", 3.0, float("nan"), float("nan"), float("nan"), 0)]
    sweep_to_csv(points, tmp_path / "points.csv")
    assert (tmp_path / "points.csv").read_bytes() == (
        b"algorithm,r,mean_power_W,mean_outage,stderr_outage,n_viable\r\n"
        b"zf,1.5,0.123456789,0.3333333333,2.5e-05,7\r\n"
        b"alg1,2,1.23456789e+12,0,1e-300,1\r\n"
        b"rzf,3,nan,nan,nan,0\r\n")


def raises_on_some(scenario):
    """A designer that fails outright on realizations whose first entry is negative."""
    if scenario.h_est[0, 0].real < 0:
        raise DegenerateChannelsError("test designer refuses this realization")
    return designer(scenario)


@pytest.mark.parametrize("second", [sometimes_none, raises_on_some])
def test_sweep_matches_per_algorithm_oracle(tmp_path, second, no_power_limit):
    algorithms = [("always", designer), ("other", second)]
    kwargs = dict(r_values=[0.5, 1.0, 2.5], n_realizations=6, n_trials=400,
                  base_seed=9)
    points = sweep(algorithms, generator, **kwargs)
    oracle = per_algorithm_sweep(
        [(name, lambda scenario, r, make=make: make(scenario)(r))
         for name, make in algorithms], generator, **kwargs)
    assert 0 < points[0].n_viable < 6
    sweep_to_csv(points, tmp_path / "shared.csv")
    sweep_to_csv(oracle, tmp_path / "oracle.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_sweep_draws_each_users_errors_once_per_kept_realization(monkeypatch,
                                                                no_power_limit):
    rows = {}                                          # generator -> rows drawn
    draw = montecarlo.draw_errors

    def counting_draw(*args):
        rows[args[3]] = rows.get(args[3], 0) + args[2]
        return draw(*args)

    monkeypatch.setattr(montecarlo, "draw_errors", counting_draw)
    r_values = [0.5, 1.0, 2.5]
    n_trials = 2 * B + 5
    points = sweep([("always", designer), ("flaky", sometimes_none),
                    ("again", designer)], generator, r_values=r_values,
                   n_realizations=6, n_trials=n_trials, base_seed=1)
    kept = [p.n_viable for p in points if p.algorithm == "always"]
    assert all(0 < n < 6 for n in kept)
    # one substream per user (K = 3) and kept realization, drawn n_trials deep
    assert len(rows) == 3 * sum(kept)
    assert set(rows.values()) == {n_trials}

