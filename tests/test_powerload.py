"""Tests for the power loading algorithms and offset perturbation."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from offsetbf import powerload
from offsetbf.channel import CellConfig, generate_scenario
from offsetbf.directions import const_offset_directions
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.powerload import (CouplingMatrix, DesignReport, alg2_power_load,
                                average_outage_perturbation, coupling_matrix,
                                fit_normal_cdf_quadratic, max_r_power_load,
                                power_saving_cap, reschedule)

from helpers import (dense_slack_moments, max_r_alternation_oracle, newton_load_oracle,
                     orthonormal_rows, scenario_from_rows, sinr_values, standard_complex)


def random_instance(k=3, nt=4, seed=0, sigma_e=0.1, gamma=4.0, noise=1.0):
    rng = np.random.default_rng(seed)
    h = standard_complex(rng, (k, nt))
    gammas = np.full(k, gamma)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(scenario_from_rows(h, sigma_e, noise, gammas), u)
    return h, u, gammas, coupling


# ---------------------------------------------------------------------------
# coupling matrix
# ---------------------------------------------------------------------------

def test_coupling_matrix_orthogonal_identity():
    h = orthonormal_rows(3, 4, seed=0)
    u = h.copy()
    coupling = coupling_matrix(scenario_from_rows(h, 0.0, gamma=1.0), u)
    assert np.max(np.abs(coupling.a - np.eye(3))) < 1e-12


def test_coupling_matrix_hand_instance():
    h = np.array([[1.0, 0.0], [np.sqrt(0.1), np.sqrt(0.9)]], dtype=complex)
    u = np.array([[1.0, 0.0], [np.sqrt(0.1), np.sqrt(0.9)]], dtype=complex)
    coupling = coupling_matrix(scenario_from_rows(h, 0.1, gamma=1.0), u)
    expected = np.array([[1.01, -0.11], [-0.11, 1.01]])
    assert np.max(np.abs(coupling.a - expected)) < 1e-12


def test_coupling_matrix_singular_is_degenerate():
    # Two users on one channel with one beam and no error: the rows of A
    # are (1, -1) and (-1, 1).
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateChannelsError, match="singular"):
        coupling_matrix(scenario_from_rows(h, 0.0, gamma=1.0), h.copy())


def test_coupling_matrix_rejects_unknown_variance_mode():
    h = orthonormal_rows(2, 4, seed=0)
    with pytest.raises(ValueError, match="unknown variance_mode 'fast'"):
        coupling_matrix(scenario_from_rows(h, 0.0, gamma=1.0), h.copy(), "fast")


def test_coupling_matrix_rejects_directions_of_the_wrong_shape():
    scenario = scenario_from_rows(orthonormal_rows(3, 4, seed=0))
    for rows in (4, 2):
        directions = orthonormal_rows(rows, 4, seed=1)
        with pytest.raises(ValueError, match=rf"\({rows}, 4\).*\(3, 4\)") as excinfo:
            coupling_matrix(scenario, directions)
        assert excinfo.type is ValueError      # not a DegenerateChannelsError
    with pytest.raises(ValueError, match=r"\(3, 5\).*\(3, 4\)"):
        coupling_matrix(scenario, orthonormal_rows(3, 5, seed=1))


def test_coupling_matrix_resolves_variance_mode_by_array_size():
    for nt, mode in ((16, "exact"), (17, "simplified")):
        h = orthonormal_rows(2, nt, seed=0)
        coupling = coupling_matrix(scenario_from_rows(h, 0.1, gamma=1.0), h.copy())
        assert coupling.variance_mode == mode


def test_coupling_matrix_inverse_residual():
    _, _, _, coupling = random_instance(seed=1)
    assert np.max(np.abs(coupling.a @ coupling.a_inv - np.eye(3))) < 1e-9


def test_coupling_moments_match_dense_reference():
    noise = np.array([1.0, 0.5, 2.0])
    h, u, gammas, coupling = random_instance(seed=2, noise=noise)
    assert coupling.variance_mode == "exact"
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) > 1e-3
    beta = np.array([1.0, 2.0, 0.5])
    mu_f = coupling.mu_f(beta)
    sigma_f = coupling.sigma_f(beta)
    for k in range(3):
        mu, sigma = dense_slack_moments(h[k], u, beta, gammas[k], 0.1, noise[k], k)
        assert mu_f[k] == pytest.approx(mu, rel=1e-12)
        assert sigma_f[k] == pytest.approx(sigma, rel=1e-12)


# ---------------------------------------------------------------------------
# QoS power loading at fixed offsets
# ---------------------------------------------------------------------------

def test_alg2_perfect_csi_single_iteration():
    rng = np.random.default_rng(3)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = const_offset_directions(h, gammas)
    noise = np.ones(3)
    coupling = coupling_matrix(scenario_from_rows(h, 0.0, noise, gammas), u)
    report = alg2_power_load(coupling, r=7.0)
    assert report.iterations_used == 1
    assert np.max(np.abs(report.powers - coupling.a_inv @ noise)) < 1e-9
    sinr = sinr_values(report, h, noise)
    assert np.max(np.abs(sinr - gammas) / gammas) < 1e-9


def test_alg2_zero_offset_is_plain_qos():
    noise = np.full(3, 0.5)
    _, _, _, coupling = random_instance(seed=4, noise=noise)
    report = alg2_power_load(coupling, r=0.0)
    assert np.max(np.abs(report.powers - coupling.a_inv @ noise)) < 1e-12


def test_alg2_offset_equalities_and_iteration_budget():
    from offsetbf.directions import zf_directions

    rng = np.random.default_rng(5)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = zf_directions(h)
    coupling = coupling_matrix(scenario_from_rows(h, gamma=gammas), u)
    report = alg2_power_load(coupling, r=2.0, tol=1e-6)
    assert report.iterations_used <= 5
    for mu, sigma in zip(report.mu_f, report.sigma_f):
        assert abs(mu - 2.0 * sigma) < 1e-6 * mu
    assert np.all(report.powers > 0)


def picard_power_load(coupling, r, tol, max_iters):
    """Oracle for alg2: the plain substitution iteration
    beta <- A^{-1} sigma^2 + A^{-1} (sigma_f(beta) (.) r)."""
    base = coupling.a_inv @ coupling.noise
    beta = base
    for _ in range(max_iters):
        beta_new = base + coupling.a_inv @ (coupling.sigma_f(beta) * r)
        change = np.max(np.abs(beta_new - beta)) / np.max(np.abs(beta_new))
        beta = beta_new
        if change < tol:
            return beta
    raise AssertionError("Picard oracle did not converge")


def test_alg2_newton_and_picard_agree():
    _, _, _, coupling = random_instance(seed=6)
    newton = alg2_power_load(coupling, r=2.0, tol=1e-10)
    picard = picard_power_load(coupling, r=2.0, tol=1e-10, max_iters=500)
    assert np.max(np.abs(newton.powers - picard)) < 1e-6 * np.max(newton.powers)


def test_alg2_infeasible_raises():
    # Nearly parallel strong interferers: the QoS fixed point has negative
    # powers, which must be reported as infeasible rather than returned.
    h = np.array([[1.0, 0.0], [0.999, np.sqrt(1 - 0.999 ** 2)]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(scenario_from_rows(h, 0.0), u)
    with pytest.raises(InfeasibleLoadingError):
        alg2_power_load(coupling, r=0.0)


def test_alg2_convergence_error():
    _, _, _, coupling = random_instance(seed=7)
    with pytest.raises(ConvergenceError):
        alg2_power_load(coupling, r=2.0, tol=1e-14, max_iters=2)


def test_alg2_mixed_sigma_handles_zero_variance_rows():
    rng = np.random.default_rng(8)
    h = standard_complex(rng, (2, 4))
    gammas = np.full(2, 4.0)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(scenario_from_rows(h, [0.0, 0.1], gamma=gammas), u)
    report = alg2_power_load(coupling, r=2.0)
    assert report.sigma_f[0] == 0.0
    assert report.sigma_f[1] > 0.0
    assert abs(report.mu_f[0]) < 1e-8


def test_alg2_variance_mode_matches_on_orthogonal_directions():
    h = orthonormal_rows(3, 8, seed=9, norms=[2.0, 1.0, 1.5])
    u = h / np.linalg.norm(h, axis=1)[:, None]
    gammas = np.full(3, 4.0)
    scenario = scenario_from_rows(h, gamma=gammas)
    exact = alg2_power_load(coupling_matrix(scenario, u, "exact"), r=2.0)
    simplified = alg2_power_load(coupling_matrix(scenario, u, "simplified"), r=2.0)
    assert np.max(np.abs(exact.powers - simplified.powers)) < 1e-9


def test_picard_iteration_is_contraction_on_feasible_instances():
    # Stability diagnostic: near the fixed point the substitution iteration
    # has Jacobian r * A^{-1} d sigma_f / d beta; its spectral radius should
    # sit below one wherever the loading is feasible.
    for seed in range(5):
        _, _, _, coupling = random_instance(seed=seed + 20)
        assert coupling.variance_mode == "exact"
        report = alg2_power_load(coupling, r=2.0)
        grad = coupling.sigma_f_gradient(report.powers,
                                         coupling.sigma_f(report.powers))
        iteration_jac = 2.0 * coupling.a_inv @ grad
        rho = np.max(np.abs(np.linalg.eigvals(iteration_jac)))
        assert rho < 1.0


# ---------------------------------------------------------------------------
# max-r loading under a power budget
# ---------------------------------------------------------------------------

def test_max_r_single_user_hand_value():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(scenario_from_rows(h, noise=0.1, gamma=1.0), u)
    beta, r, report = max_r_power_load(coupling, total_power=1.0)
    assert beta[0] == pytest.approx(1.0, abs=1e-9)
    assert report.sigma_f[0] == pytest.approx(np.sqrt(0.0201), rel=1e-9)
    assert r == pytest.approx((1.0 - 0.1 / 1.01) / (np.sqrt(0.0201) / 1.01), rel=1e-6)
    assert r == pytest.approx(6.4186, abs=2e-4)


def test_max_r_budget_exhausted_exactly():
    for seed in range(4):
        _, _, _, coupling = random_instance(seed=seed + 30)
        beta, r, report = max_r_power_load(coupling, total_power=20.0)
        assert abs(beta.sum() - 20.0) < 1e-9
        for mu, sigma in zip(report.mu_f, report.sigma_f):
            assert abs(mu - r * sigma) < 1e-6 * max(abs(mu), 1e-12)


def test_max_r_zero_uncertainty_sentinel():
    rng = np.random.default_rng(10)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = const_offset_directions(h, gammas)
    noise = np.ones(3)
    coupling = coupling_matrix(scenario_from_rows(h, 0.0, noise, gammas), u)
    beta, r, report = max_r_power_load(coupling, total_power=50.0)
    assert math.isinf(r)
    assert "unbounded offset" in report.note
    assert np.max(np.abs(beta - coupling.a_inv @ noise)) < 1e-12
    # no outage to trade: the perturbation returns the unbounded report as it is
    assert average_outage_perturbation(report) is report


def test_coupling_matrix_rejects_non_unit_directions():
    h = np.array([[1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="directions must be unit norm"):
        coupling_matrix(scenario_from_rows(h, gamma=1.0), 2.0 * h)


def test_max_r_convergence_error_carries_last_iterate():
    # One Newton step cannot meet the default tolerance; the budget row is
    # linear, so the last iterate still spends the budget exactly.
    _, _, _, coupling = random_instance(seed=11)
    with pytest.raises(ConvergenceError, match="power loading did not converge"
                       " in 1 iterations") as excinfo:
        max_r_power_load(coupling, total_power=20.0, max_iters=1)
    assert excinfo.value.last_iterate.sum() == pytest.approx(20.0, rel=1e-12)


def test_max_r_matches_alternation_oracle():
    for seed in range(5):
        _, _, _, coupling = random_instance(seed=seed + 30)
        for total_power in (5.0, 20.0, 100.0):
            beta, r, report = max_r_power_load(coupling, total_power)
            beta_o, r_o, _ = max_r_alternation_oracle(coupling, total_power, tol=1e-15,
                                                      max_iters=100_000)
            assert np.max(np.abs(beta - beta_o)) <= 1e-12 * np.max(np.abs(beta_o))
            assert r == pytest.approx(r_o, rel=1e-12)
            assert report.iterations_used <= 6


@pytest.mark.parametrize("mode", ["exact", "simplified"])
def test_max_r_meets_offset_equalities(mode):
    checked = 0
    for seed in range(4):
        scenario = generate_scenario(CellConfig(n_users=6, n_antennas=40), seed)
        u = const_offset_directions(scenario.h_est, scenario.sinr_target)
        coupling = coupling_matrix(scenario, u, mode)
        for total_power in (0.1, 1.0, 10.0):
            try:
                _, r, report = max_r_power_load(coupling, total_power)
            except InfeasibleLoadingError:
                continue
            assert np.max(np.abs(report.mu_f - r * report.sigma_f)
                          / np.abs(r * report.sigma_f)) < 1e-10
            checked += 1
    assert checked >= 6


def test_singular_jacobian_is_convergence_error():
    # With no slack variance the Jacobian is A = [[1, 1], [1, 1]], singular at
    # the start a_inv @ noise = [1, 1] (a_inv is set by hand, not A's inverse).
    coupling = CouplingMatrix(directions=np.eye(2, dtype=complex),
                              a=np.ones((2, 2)), a_inv=np.eye(2), noise=np.ones(2),
                              variance_mode="exact", g_tensor=np.zeros((2, 2, 2)))
    with pytest.raises(ConvergenceError,
                       match="power loading Jacobian is singular") as excinfo:
        alg2_power_load(coupling, 1.0)
    assert np.array_equal(excinfo.value.last_iterate, [1.0, 1.0])


def load_outcome(load):
    """("ok", powers, offsets, iterations) or (error class, message, last_iterate)."""
    try:
        report = load()
    except (ConvergenceError, InfeasibleLoadingError) as exc:
        last = getattr(exc, "last_iterate", None)
        return type(exc).__name__, str(exc), exc.powers if last is None else last
    return "ok", report.powers, report.offsets, report.iterations_used


def assert_loads_match_the_oracle(monkeypatch, loads):
    """Each load's outcome with powerload._newton_load, then with the
    np.block/np.linalg.solve oracle in its place, equal bit for bit."""
    outcomes = [load_outcome(load) for load in loads]
    with monkeypatch.context() as patch:
        patch.setattr(powerload, "_newton_load", newton_load_oracle)
        expected = [load_outcome(load) for load in loads]
    for (kind, *got), (want_kind, *want) in zip(outcomes, expected):
        assert kind == want_kind
        if kind != "ok":
            assert got.pop(0) == want.pop(0)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    return [kind for kind, *_ in outcomes]


@pytest.mark.parametrize("radius_km", [0.5, 3.2])
@pytest.mark.parametrize("k,nt", [(3, 6), (4, 8), (6, 20), (6, 40)])
def test_newton_load_is_bit_identical_to_the_block_solve_loop(monkeypatch, k, nt,
                                                              radius_km):
    # alg2 at three offsets, max-r at three budgets, on both variance modes
    kinds = set()
    for seed in range(8):
        scenario = generate_scenario(
            CellConfig(n_users=k, n_antennas=nt, radius_km=radius_km), seed)
        try:
            coupling = coupling_matrix(
                scenario, const_offset_directions(scenario.h_est, scenario.sinr_target))
        except ConvergenceError:
            continue
        loads = [functools.partial(alg2_power_load, coupling, r) for r in (1.0, 2.0, 3.0)]
        loads += [lambda pt=pt: max_r_power_load(coupling, pt)[2] for pt in (0.1, 1.0, 10.0)]
        kinds.update(assert_loads_match_the_oracle(monkeypatch, loads))
    assert "ok" in kinds


def test_newton_load_with_an_error_free_user_is_bit_identical(monkeypatch):
    # user 1 has sigma_f = 0 at every loading, so its gradient row is zero
    for seed in range(5):
        h = standard_complex(np.random.default_rng(seed), (3, 4))
        scenario = scenario_from_rows(h, np.array([0.1, 0.0, 0.2]), 1.0, np.full(3, 4.0))
        coupling = coupling_matrix(scenario, const_offset_directions(h, np.full(3, 4.0)))
        loads = [functools.partial(alg2_power_load, coupling, r) for r in (1.0, 2.0, 3.0)]
        loads += [lambda pt=pt: max_r_power_load(coupling, pt)[2] for pt in (5.0, 20.0)]
        assert "ok" in assert_loads_match_the_oracle(monkeypatch, loads)


def test_max_r_below_the_qos_budget_is_bit_identical_to_the_block_solve_loop(monkeypatch):
    # 4x8 cells at 3.2 km with budgets of 1e-14 to 1e-11 W: most cannot fund
    # zero offsets, so the loads end in negative powers or in no convergence.
    kinds = []
    for seed in range(30):
        scenario = generate_scenario(CellConfig(n_users=4, n_antennas=8), seed)
        try:
            coupling = coupling_matrix(
                scenario, const_offset_directions(scenario.h_est, scenario.sinr_target))
        except ConvergenceError:
            continue
        loads = [lambda pt=pt: max_r_power_load(coupling, pt)[2]
                 for pt in (1e-14, 1e-13, 1e-12, 1e-11)]
        kinds += assert_loads_match_the_oracle(monkeypatch, loads)
    assert {"ok", "ConvergenceError", "InfeasibleLoadingError"} <= set(kinds)


def test_newton_load_that_leaves_the_float_range_says_so(monkeypatch):
    # One user at sigma_e = 1e77, just below Scenario's bound: the coupling is
    # finite (G = 6.25e306), but at the max-r start beta = 50 W sigma_f^2
    # overflows. The loader names the float range, with no RuntimeWarning,
    # and its oracle stops the same way.
    h = standard_complex(np.random.default_rng(0), (1, 4))
    coupling = coupling_matrix(scenario_from_rows(h, 1e77),
                               const_offset_directions(h, np.array([4.0])))
    assert np.isfinite(coupling.g_tensor).all()
    with warnings.catch_warnings(), pytest.raises(
            ConvergenceError, match="power loading left the float range: its Newton "
                                    "step is not finite") as excinfo:
        warnings.simplefilter("error")
        max_r_power_load(coupling, 50.0)
    assert np.array_equal(excinfo.value.last_iterate, [50.0])
    assert assert_loads_match_the_oracle(
        monkeypatch, [lambda: max_r_power_load(coupling, 50.0)[2]]) == ["ConvergenceError"]


def test_max_r_monotone_in_budget():
    _, _, _, coupling = random_instance(seed=11)
    _, r_small, _ = max_r_power_load(coupling, total_power=10.0)
    _, r_large, _ = max_r_power_load(coupling, total_power=20.0)
    assert r_large > r_small


# ---------------------------------------------------------------------------
# rescheduling and the power-saving cap
# ---------------------------------------------------------------------------

def test_reschedule_keeps_all_when_offset_already_large():
    rng = np.random.default_rng(12)
    h = standard_complex(rng, (2, 4))
    gammas = np.full(2, 4.0)
    _, report = reschedule(scenario_from_rows(h, gamma=gammas),
                           total_power=200.0, r_min=2.0)
    assert report.served_indices == [0, 1]
    assert report.rescheduled == []
    assert report.offsets[0] >= 2.0


def test_reschedule_drops_duplicate_channel():
    rng = np.random.default_rng(13)
    base = standard_complex(rng, (4,))
    h = np.vstack([base, base + 1e-6 * standard_complex(rng, (4,))])
    gammas = np.full(2, 4.0)
    _, report = reschedule(scenario_from_rows(h, gamma=gammas),
                           total_power=200.0, r_min=2.0)
    assert len(report.served_indices) == 1
    assert len(report.rescheduled) == 1
    assert sorted(report.served_indices + report.rescheduled) == [0, 1]
    assert report.offsets[0] >= 2.0


def test_reschedule_survives_singular_dual_iteration():
    # On this near-duplicate triple the direction solver's dual iteration
    # drives the shared matrix numerically singular rather than merely
    # timing out. Rescheduling must absorb that as an ordinary direction
    # failure and terminate with a served subset.
    rng = np.random.default_rng(13)
    h = standard_complex(rng, (3, 4))
    h[1] = h[0] + 1e-6 * h[2]
    gammas = np.full(3, 4.0)
    _, report = reschedule(scenario_from_rows(h, gamma=gammas),
                           total_power=200.0, r_min=2.0)
    assert len(report.served_indices) >= 1
    assert sorted(report.served_indices + report.rescheduled) == [0, 1, 2]
    assert np.min(report.offsets) >= 2.0


def test_reschedule_drop_order_matches_ranking():
    # A moderately coupled pair leaves the offset feasible but tiny; the first
    # drop must be the user with the largest entry of A^{-1} sigma^2.
    theta = np.deg2rad(40.0)
    h = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.8 * np.cos(theta), 0.8 * np.sin(theta), 0.0, 0.0],
        [0.0, 0.0, 1.2, 0.0],
    ], dtype=complex)
    scenario = scenario_from_rows(h, gamma=4.0)

    u = const_offset_directions(h, scenario.sinr_target)
    coupling = coupling_matrix(scenario, u)
    base = coupling.a_inv @ scenario.noise_power
    assert np.all(base >= 0)
    _, r_full, _ = max_r_power_load(coupling, total_power=base.sum() + 0.3)
    assert 0 < r_full < 2.0
    expected_first_drop = int(np.argmax(base))

    _, report = reschedule(scenario, total_power=base.sum() + 0.3, r_min=2.0)
    assert report.rescheduled == [expected_first_drop]
    assert expected_first_drop not in report.served_indices
    assert report.offsets[0] >= 2.0


def test_reschedule_recovers_from_infeasible_loading():
    # A nearly parallel pair makes even the zero-offset QoS loading infeasible
    # (A^{-1} sigma^2 has negative entries); the weaker pair member must go and
    # the remaining orthogonal users keep a healthy offset.
    theta = 0.05
    h = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.8 * np.cos(theta), 0.8 * np.sin(theta), 0.0, 0.0],
        [0.0, 0.0, 1.2, 0.0],
    ], dtype=complex)
    scenario = scenario_from_rows(h, gamma=4.0)

    u = const_offset_directions(h, scenario.sinr_target)
    coupling = coupling_matrix(scenario, u)
    with pytest.raises(InfeasibleLoadingError):
        max_r_power_load(coupling, total_power=100.0)

    c_kept, report = reschedule(scenario, total_power=100.0, r_min=2.0)
    retained = report.served_indices
    assert retained == [0, 2]
    assert report.rescheduled == [1]
    assert report.offsets[0] >= 2.0
    # the returned directions and coupling are those of the retained set
    u_kept = const_offset_directions(h[retained], scenario.sinr_target[retained])
    assert np.array_equal(report.directions, u_kept)
    assert np.array_equal(c_kept.directions, u_kept)
    fresh = coupling_matrix(scenario.subset(retained), u_kept)
    assert np.array_equal(c_kept.a, fresh.a)
    assert np.array_equal(c_kept.noise, fresh.noise)
    assert np.array_equal(c_kept.g_tensor, fresh.g_tensor)


@pytest.mark.parametrize("stage,error", [
    ("const_offset_directions", ConvergenceError("nu fixed point did not converge")),
    ("max_r_power_load", InfeasibleLoadingError("no offset for this set"))])
def test_reschedule_re_raises_once_one_user_is_left(monkeypatch, stage, error):
    # With finite inputs a single user's directions, coupling and max-r loading
    # do not fail, so the stage is made to fail on every set: the first failure
    # drops a user, the second, with one user left, reaches the caller.
    calls = []

    def failing(*args, **kwargs):
        calls.append(stage)
        raise error

    monkeypatch.setattr(powerload, stage, failing)
    h = standard_complex(np.random.default_rng(22), (2, 4))
    with pytest.raises(type(error), match=str(error)):
        reschedule(scenario_from_rows(h, gamma=4.0), total_power=100.0)
    assert len(calls) == 2


def test_power_saving_cap_re_solves_at_cap():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(scenario_from_rows(h, noise=0.1, gamma=1.0), u)
    _, _, plain = max_r_power_load(coupling, total_power=1.0)
    report = power_saving_cap(plain, r_cap=5.0)
    assert abs(report.mu_f[0] - 5.0 * report.sigma_f[0]) < 1e-6 * report.mu_f[0]
    assert report.powers.sum() < 1.0
    assert "capped" in report.note


def test_power_saving_cap_keeps_solution_below_cap():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(scenario_from_rows(h, noise=0.1, gamma=1.0), u)
    _, _, plain = max_r_power_load(coupling, total_power=1.0)
    capped = power_saving_cap(plain, r_cap=10.0)
    assert np.max(np.abs(capped.powers - plain.powers)) < 1e-12
    with pytest.raises(ValueError):
        power_saving_cap(plain, r_cap=0.0)


# ---------------------------------------------------------------------------
# quadratic outage surrogate and offset perturbation
# ---------------------------------------------------------------------------

def test_fit_normal_cdf_quadratic_quality():
    a0, a1, a2 = fit_normal_cdf_quadratic()
    assert a0 < 0
    grid = np.linspace(1.0, 3.0, 201)
    fit = a0 * grid ** 2 + a1 * grid + a2
    assert np.max(np.abs(fit - ndtr(grid))) < 0.01



def test_perturbation_zero_on_symmetric_instance():
    h = orthonormal_rows(3, 4, seed=14)
    u = h.copy()
    gammas = np.full(3, 4.0)
    coupling = coupling_matrix(scenario_from_rows(h, noise=0.3, gamma=gammas), u)
    beta, r_star, report = max_r_power_load(coupling, total_power=30.0, tol=1e-12)
    perturbed = average_outage_perturbation(report)
    assert np.max(np.abs(perturbed.offsets - r_star)) < 1e-12
    assert np.max(np.abs(perturbed.powers - beta)) < 1e-9 * np.max(beta)


def test_perturbation_conserves_power_and_objective():
    # The perturbation is the constrained maximizer of the concave quadratic
    # surrogate, so the surrogate outage can never worsen; the true Gaussian
    # outage is only guaranteed to improve on aggregate (the fit error can
    # eat the tiny surrogate gain near the edges of the fit window).
    a0, a1, a2 = fit_normal_cdf_quadratic()

    def surrogate_outage(r):
        return 1.0 - (a0 * r ** 2 + a1 * r + a2)

    true_gain = 0.0
    for seed in range(10):
        _, _, _, coupling = random_instance(seed=seed + 40)
        # calibrate the budget so the common offset lands near r = 2
        base = coupling.a_inv @ coupling.noise
        budget = 30.0 - base.sum()
        for _ in range(3):
            beta, r_star, report = max_r_power_load(coupling,
                                                    total_power=base.sum() + budget,
                                                    tol=1e-12)
            budget *= 2.0 / r_star
        assert r_star > 0
        perturbed = average_outage_perturbation(report)
        delta_r = perturbed.offsets - r_star
        assert abs(perturbed.powers.sum() - beta.sum()) < 1e-9 * beta.sum()
        before = np.sum(surrogate_outage(np.full(3, r_star)))
        after = np.sum(surrogate_outage(r_star + delta_r))
        assert after <= before + 1e-12
        true_gain += np.sum(1.0 - ndtr(np.full(3, r_star)))
        true_gain -= np.sum(1.0 - ndtr(r_star + delta_r))
    assert true_gain > 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_design_report_matches_alg2():
    _, _, _, coupling = random_instance(seed=16)
    report = alg2_power_load(coupling, r=2.0)
    rebuilt = DesignReport(coupling, report.powers, 2.0)
    assert rebuilt.mu_f == pytest.approx(report.mu_f, rel=1e-12)
    assert rebuilt.sigma_f == pytest.approx(report.sigma_f, rel=1e-12)
    assert rebuilt.total_power == pytest.approx(report.total_power, rel=1e-12)


def test_design_report_rejects_negative_powers():
    _, _, _, coupling = random_instance(seed=16)
    with pytest.raises(InfeasibleLoadingError,
                       match="power loading has negative entries") as excinfo:
        DesignReport(coupling, [1.0, -0.1, 2.0], 2.0)
    assert np.array_equal(excinfo.value.powers, [1.0, -0.1, 2.0])


def test_design_report_weights():
    u = np.eye(2, dtype=complex)
    coupling = coupling_matrix(scenario_from_rows(u, gamma=1.0), u)
    report = DesignReport(coupling, [4.0, 9.0], 2.0)
    assert report.directions is coupling.directions
    assert np.allclose(report.weights(), np.diag([2.0, 3.0]))


def test_design_report_serialization_with_drops():
    _, _, _, coupling = random_instance(seed=17, k=2, nt=4)
    report = alg2_power_load(coupling, r=2.0)
    report.served_indices = [0, 2]
    report.rescheduled = [1]
    doc = report.to_dict()
    assert [row["index"] for row in doc["users"]] == [0, 1, 2]
    dropped = doc["users"][1]
    assert dropped["dropped"] is True
    assert dropped["beta"] == 0.0
    assert dropped["r"] is None
    assert dropped["predicted_outage"] == 1.0
    served = doc["users"][0]
    assert served["dropped"] is False
    assert served["beta"] > 0
    rows = doc["users"]
    assert len(rows) == 3
    assert set(rows[0]) == {"index", "beta", "r", "mu_f", "sigma_f",
                            "predicted_outage", "dropped"}
