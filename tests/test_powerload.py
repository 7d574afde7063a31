"""Tests for the power loading algorithms and offset perturbation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from offsetbf.directions import const_offset_directions
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.powerload import (alg2_power_load, average_outage_perturbation,
                                coupling_matrix, fit_normal_cdf_quadratic,
                                max_r_power_load, power_saving_cap,
                                report_for_loading, reschedule)
from offsetbf.stats import BeamformerSet, sinr_values

from helpers import orthonormal_rows, standard_complex


def random_instance(k=3, nt=4, seed=0, sigma_e=0.1, gamma=4.0):
    rng = np.random.default_rng(seed)
    h = standard_complex(rng, (k, nt))
    gammas = np.full(k, gamma)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, np.full(k, sigma_e))
    return h, u, gammas, coupling


# ---------------------------------------------------------------------------
# coupling matrix
# ---------------------------------------------------------------------------

def test_coupling_matrix_orthogonal_identity():
    h = orthonormal_rows(3, 4, seed=0)
    u = h.copy()
    coupling = coupling_matrix(h, u, np.ones(3), np.zeros(3))
    assert np.max(np.abs(coupling.a - np.eye(3))) < 1e-12


def test_coupling_matrix_hand_instance():
    h = np.array([[1.0, 0.0], [np.sqrt(0.1), np.sqrt(0.9)]], dtype=complex)
    u = np.array([[1.0, 0.0], [np.sqrt(0.1), np.sqrt(0.9)]], dtype=complex)
    coupling = coupling_matrix(h, u, np.ones(2), np.full(2, 0.1))
    expected = np.array([[1.01, -0.11], [-0.11, 1.01]])
    assert np.max(np.abs(coupling.a - expected)) < 1e-12


def test_coupling_matrix_singular_is_degenerate():
    # Two users on one channel with one beam and no error: the rows of A
    # are (1, -1) and (-1, 1).
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateChannelsError, match="singular"):
        coupling_matrix(h, h.copy(), np.ones(2), np.zeros(2))


def test_coupling_matrix_inverse_residual():
    _, _, _, coupling = random_instance(seed=1)
    assert np.max(np.abs(coupling.a @ coupling.a_inv - np.eye(3))) < 1e-9


def test_coupling_variance_matches_stats_module():
    from offsetbf.stats import offset_stats_fixed_directions

    h, u, gammas, coupling = random_instance(seed=2)
    beta = np.array([1.0, 2.0, 0.5])
    sigma_f = coupling.sigma_f(beta, "exact")
    for k in range(3):
        st = offset_stats_fixed_directions(h[k], u, gammas[k], 0.1, 1.0, beta, k)
        assert sigma_f[k] == pytest.approx(st.sigma, rel=1e-12)


# ---------------------------------------------------------------------------
# QoS power loading at fixed offsets
# ---------------------------------------------------------------------------

def test_alg2_perfect_csi_single_iteration():
    rng = np.random.default_rng(3)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, np.zeros(3))
    noise = np.ones(3)
    report = alg2_power_load(coupling, noise, r=7.0)
    assert report.iterations_used == 1
    assert np.max(np.abs(report.powers - coupling.a_inv @ noise)) < 1e-9
    design = BeamformerSet(directions=u, powers=report.powers)
    sinr = sinr_values(design, h, noise)
    assert np.max(np.abs(sinr - gammas) / gammas) < 1e-9


def test_alg2_zero_offset_is_plain_qos():
    _, _, _, coupling = random_instance(seed=4)
    noise = np.full(3, 0.5)
    report = alg2_power_load(coupling, noise, r=0.0)
    assert np.max(np.abs(report.powers - coupling.a_inv @ noise)) < 1e-12


def test_alg2_offset_equalities_and_iteration_budget():
    from offsetbf.directions import zf_directions

    rng = np.random.default_rng(5)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = zf_directions(h)
    coupling = coupling_matrix(h, u, gammas, np.full(3, 0.1))
    noise = np.ones(3)
    report = alg2_power_load(coupling, noise, r=2.0, tol=1e-6)
    assert report.iterations_used <= 5
    for st in report.achieved_stats:
        assert abs(st.mu - 2.0 * st.sigma) < 1e-6 * st.mu
    assert np.all(report.powers > 0)


def picard_power_load(coupling, noise, r, tol, max_iters):
    """Oracle for alg2: the plain substitution iteration
    beta <- A^{-1} sigma^2 + A^{-1} (sigma_f(beta) (.) r)."""
    mode = coupling.default_variance_mode()
    base = coupling.a_inv @ noise
    beta = base
    for _ in range(max_iters):
        beta_new = base + coupling.a_inv @ (coupling.sigma_f(beta, mode) * r)
        change = np.max(np.abs(beta_new - beta)) / np.max(np.abs(beta_new))
        beta = beta_new
        if change < tol:
            return beta
    raise AssertionError("Picard oracle did not converge")


def test_alg2_newton_and_picard_agree():
    _, _, _, coupling = random_instance(seed=6)
    noise = np.ones(3)
    newton = alg2_power_load(coupling, noise, r=2.0, tol=1e-10)
    picard = picard_power_load(coupling, noise, r=2.0, tol=1e-10, max_iters=500)
    assert np.max(np.abs(newton.powers - picard)) < 1e-6 * np.max(newton.powers)


def test_alg2_infeasible_raises():
    # Nearly parallel strong interferers: the QoS fixed point has negative
    # powers, which must be reported as infeasible rather than returned.
    h = np.array([[1.0, 0.0], [0.999, np.sqrt(1 - 0.999 ** 2)]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(h, u, np.full(2, 4.0), np.zeros(2))
    with pytest.raises(InfeasibleLoadingError):
        alg2_power_load(coupling, np.ones(2), r=0.0)


def test_alg2_convergence_error():
    _, _, _, coupling = random_instance(seed=7)
    with pytest.raises(ConvergenceError):
        alg2_power_load(coupling, np.ones(3), r=2.0, tol=1e-14, max_iters=2)


def test_alg2_mixed_sigma_handles_zero_variance_rows():
    rng = np.random.default_rng(8)
    h = standard_complex(rng, (2, 4))
    gammas = np.full(2, 4.0)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, np.array([0.0, 0.1]))
    report = alg2_power_load(coupling, np.ones(2), r=2.0)
    assert report.achieved_stats[0].sigma == 0.0
    assert report.achieved_stats[1].sigma > 0.0
    assert abs(report.achieved_stats[0].mu) < 1e-8


def test_alg2_variance_mode_matches_on_orthogonal_directions():
    h = orthonormal_rows(3, 8, seed=9, norms=[2.0, 1.0, 1.5])
    u = h / np.linalg.norm(h, axis=1)[:, None]
    gammas = np.full(3, 4.0)
    coupling = coupling_matrix(h, u, gammas, np.full(3, 0.1))
    exact = alg2_power_load(coupling, np.ones(3), r=2.0, variance_mode="exact")
    simplified = alg2_power_load(coupling, np.ones(3), r=2.0,
                                 variance_mode="simplified")
    assert np.max(np.abs(exact.powers - simplified.powers)) < 1e-9


def test_picard_iteration_is_contraction_on_feasible_instances():
    # Stability diagnostic: near the fixed point the substitution iteration
    # has Jacobian r * A^{-1} d sigma_f / d beta; its spectral radius should
    # sit below one wherever the loading is feasible.
    for seed in range(5):
        _, _, _, coupling = random_instance(seed=seed + 20)
        noise = np.ones(3)
        report = alg2_power_load(coupling, noise, r=2.0)
        grad = coupling.sigma_f_gradient(report.powers,
                                         coupling.sigma_f(report.powers, "exact"),
                                         "exact")
        iteration_jac = 2.0 * coupling.a_inv @ grad
        rho = np.max(np.abs(np.linalg.eigvals(iteration_jac)))
        assert rho < 1.0


# ---------------------------------------------------------------------------
# max-r loading under a power budget
# ---------------------------------------------------------------------------

def test_max_r_single_user_hand_value():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(h, u, np.ones(1), np.full(1, 0.1))
    beta, r, report = max_r_power_load(coupling, np.array([0.1]), total_power=1.0)
    assert beta[0] == pytest.approx(1.0, abs=1e-9)
    assert report.achieved_stats[0].sigma == pytest.approx(np.sqrt(0.0201), rel=1e-9)
    assert r == pytest.approx((1.0 - 0.1 / 1.01) / (np.sqrt(0.0201) / 1.01), rel=1e-6)
    assert r == pytest.approx(6.4186, abs=2e-4)


def test_max_r_budget_exhausted_exactly():
    for seed in range(4):
        _, _, _, coupling = random_instance(seed=seed + 30)
        beta, r, report = max_r_power_load(coupling, np.ones(3), total_power=20.0)
        assert abs(beta.sum() - 20.0) < 1e-9
        for st in report.achieved_stats:
            assert abs(st.mu - r * st.sigma) < 1e-6 * max(abs(st.mu), 1e-12)


def test_max_r_zero_uncertainty_sentinel():
    rng = np.random.default_rng(10)
    h = standard_complex(rng, (3, 4))
    gammas = np.full(3, 4.0)
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, np.zeros(3))
    noise = np.ones(3)
    beta, r, report = max_r_power_load(coupling, noise, total_power=50.0)
    assert math.isinf(r)
    assert "unbounded offset" in report.note
    assert np.max(np.abs(beta - coupling.a_inv @ noise)) < 1e-12


def test_max_r_unfundable_offset_raises():
    # Nearly parallel users served by matched beams: det A < 0, so every
    # entry of A^{-1} is negative. The noise A (1, 1) makes the zero-offset
    # loading (1, 1) nonnegative, but 1^T A^{-1} sigma_f < 0. (With positive
    # noise A is an M-matrix, A^{-1} >= 0, and this branch cannot be reached.)
    h = np.array([[1.0, 0.0], [0.999, np.sqrt(1 - 0.999 ** 2)]], dtype=complex)
    coupling = coupling_matrix(h, h.copy(), np.full(2, 4.0), np.full(2, 0.1))
    assert np.all(coupling.a_inv < 0)
    noise = coupling.a @ np.ones(2)
    with pytest.raises(InfeasibleLoadingError, match="unfundable"):
        max_r_power_load(coupling, noise, total_power=10.0)


def test_max_r_monotone_in_budget():
    _, _, _, coupling = random_instance(seed=11)
    noise = np.ones(3)
    _, r_small, _ = max_r_power_load(coupling, noise, total_power=10.0)
    _, r_large, _ = max_r_power_load(coupling, noise, total_power=20.0)
    assert r_large > r_small


# ---------------------------------------------------------------------------
# rescheduling and the power-saving cap
# ---------------------------------------------------------------------------

def test_reschedule_keeps_all_when_offset_already_large():
    rng = np.random.default_rng(12)
    h = standard_complex(rng, (2, 4))
    gammas = np.full(2, 4.0)
    retained, report, _, _ = reschedule(h, gammas, np.full(2, 0.1), np.ones(2),
                                        total_power=200.0, r_min=2.0)
    assert retained == [0, 1]
    assert report.rescheduled == []
    assert report.offsets[0] >= 2.0


def test_reschedule_drops_duplicate_channel():
    rng = np.random.default_rng(13)
    base = standard_complex(rng, (4,))
    h = np.vstack([base, base + 1e-6 * standard_complex(rng, (4,))])
    gammas = np.full(2, 4.0)
    retained, report, _, _ = reschedule(h, gammas, np.full(2, 0.1), np.ones(2),
                                        total_power=200.0, r_min=2.0)
    assert len(retained) == 1
    assert len(report.rescheduled) == 1
    assert sorted(retained + report.rescheduled) == [0, 1]
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
    retained, report, _, _ = reschedule(h, gammas, np.full(3, 0.1), np.ones(3),
                                        total_power=200.0, r_min=2.0)
    assert len(retained) >= 1
    assert sorted(retained + report.rescheduled) == [0, 1, 2]
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
    gammas = np.full(3, 4.0)
    sigma_e = np.full(3, 0.1)
    noise = np.ones(3)

    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, sigma_e)
    base = coupling.a_inv @ noise
    assert np.all(base >= 0)
    _, r_full, _ = max_r_power_load(coupling, noise, total_power=base.sum() + 0.3)
    assert 0 < r_full < 2.0
    expected_first_drop = int(np.argmax(base))

    retained, report, _, _ = reschedule(h, gammas, sigma_e, noise,
                                        total_power=base.sum() + 0.3, r_min=2.0)
    assert report.rescheduled == [expected_first_drop]
    assert expected_first_drop not in retained
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
    gammas = np.full(3, 4.0)
    sigma_e = np.full(3, 0.1)
    noise = np.ones(3)

    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, sigma_e)
    with pytest.raises(InfeasibleLoadingError):
        max_r_power_load(coupling, noise, total_power=100.0)

    retained, report, u_kept, c_kept = reschedule(h, gammas, sigma_e, noise,
                                                  total_power=100.0, r_min=2.0)
    assert retained == [0, 2]
    assert report.rescheduled == [1]
    assert report.offsets[0] >= 2.0
    # the returned directions and coupling are those of the retained set
    assert np.array_equal(u_kept, const_offset_directions(h[retained], gammas[retained]))
    fresh = coupling_matrix(h[retained], u_kept, gammas[retained], sigma_e[retained])
    assert np.array_equal(c_kept.a, fresh.a)
    assert np.array_equal(c_kept.g_tensor, fresh.g_tensor)


def test_power_saving_cap_re_solves_at_cap():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(h, u, np.ones(1), np.full(1, 0.1))
    noise = np.array([0.1])
    _, _, plain = max_r_power_load(coupling, noise, total_power=1.0)
    report = power_saving_cap(coupling, noise, plain, r_cap=5.0)
    st = report.achieved_stats[0]
    assert abs(st.mu - 5.0 * st.sigma) < 1e-6 * st.mu
    assert report.powers.sum() < 1.0
    assert "capped" in report.note


def test_power_saving_cap_keeps_solution_below_cap():
    h = np.array([[1.0, 0.0]], dtype=complex)
    u = h.copy()
    coupling = coupling_matrix(h, u, np.ones(1), np.full(1, 0.1))
    noise = np.array([0.1])
    _, _, plain = max_r_power_load(coupling, noise, total_power=1.0)
    capped = power_saving_cap(coupling, noise, plain, r_cap=10.0)
    assert np.max(np.abs(capped.powers - plain.powers)) < 1e-12
    with pytest.raises(ValueError):
        power_saving_cap(coupling, noise, plain, r_cap=0.0)


# ---------------------------------------------------------------------------
# quadratic outage surrogate and offset perturbation
# ---------------------------------------------------------------------------

def test_fit_normal_cdf_quadratic_quality():
    a0, a1, a2 = fit_normal_cdf_quadratic()
    assert a0 < 0
    grid = np.linspace(1.0, 3.0, 201)
    fit = a0 * grid ** 2 + a1 * grid + a2
    assert np.max(np.abs(fit - ndtr(grid))) < 0.01


def test_fit_normal_cdf_quadratic_exact_on_polynomials():
    a0, a1, a2 = fit_normal_cdf_quadratic(
        cdf=lambda r: 0.3 * r ** 2 - 0.1 * r + 0.05)
    assert a0 == pytest.approx(0.3, abs=1e-12)
    assert a1 == pytest.approx(-0.1, abs=1e-12)
    assert a2 == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ValueError):
        fit_normal_cdf_quadratic(r_lo=2.0, r_hi=1.0)


def test_perturbation_zero_on_symmetric_instance():
    h = orthonormal_rows(3, 4, seed=14)
    u = h.copy()
    gammas = np.full(3, 4.0)
    coupling = coupling_matrix(h, u, gammas, np.full(3, 0.1))
    noise = np.full(3, 0.3)
    beta, r_star, report = max_r_power_load(coupling, noise, total_power=30.0,
                                            tol=1e-12)
    sigma_f = np.array([st.sigma for st in report.achieved_stats])
    delta_r, beta_new = average_outage_perturbation(coupling, noise, sigma_f, r_star)
    assert np.max(np.abs(delta_r)) < 1e-12
    assert np.max(np.abs(beta_new - beta)) < 1e-9 * np.max(beta)


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
        noise = np.ones(3)
        # calibrate the budget so the common offset lands near r = 2
        base = coupling.a_inv @ noise
        budget = 30.0 - base.sum()
        for _ in range(3):
            beta, r_star, report = max_r_power_load(coupling, noise,
                                                    total_power=base.sum() + budget,
                                                    tol=1e-12)
            budget *= 2.0 / r_star
        assert r_star > 0
        sigma_f = np.array([st.sigma for st in report.achieved_stats])
        delta_r, beta_new = average_outage_perturbation(coupling, noise, sigma_f,
                                                        r_star)
        assert abs(beta_new.sum() - beta.sum()) < 1e-9 * beta.sum()
        before = np.sum(surrogate_outage(np.full(3, r_star)))
        after = np.sum(surrogate_outage(r_star + delta_r))
        assert after <= before + 1e-12
        true_gain += np.sum(1.0 - ndtr(np.full(3, r_star)))
        true_gain -= np.sum(1.0 - ndtr(r_star + delta_r))
    assert true_gain > 0


def test_perturbation_rejects_degenerate_fit():
    _, _, _, coupling = random_instance(seed=15)
    with pytest.raises(ValueError):
        average_outage_perturbation(coupling, np.ones(3), np.ones(3), 2.0,
                                    quad=(0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_for_loading_matches_alg2():
    _, _, _, coupling = random_instance(seed=16)
    noise = np.ones(3)
    report = alg2_power_load(coupling, noise, r=2.0)
    rebuilt = report_for_loading(coupling, report.powers, 2.0, noise)
    for a, b in zip(report.achieved_stats, rebuilt.achieved_stats):
        assert a.mu == pytest.approx(b.mu, rel=1e-12)
        assert a.sigma == pytest.approx(b.sigma, rel=1e-12)
    assert rebuilt.total_power == pytest.approx(report.total_power, rel=1e-12)


def test_design_report_serialization_with_drops():
    _, _, _, coupling = random_instance(seed=17, k=2, nt=4)
    noise = np.ones(2)
    report = alg2_power_load(coupling, noise, r=2.0)
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
    rows = report.csv_rows()
    assert len(rows) == 3
    assert set(rows[0]) == {"index", "beta", "r", "mu_f", "sigma_f",
                            "predicted_outage", "dropped"}
