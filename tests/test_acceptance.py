"""Acceptance suite: one test per headline guarantee of the package.

Each test states a user-visible property of the offset-based design chain
(channel models, slack statistics, beamforming directions, power loading,
Monte Carlo evaluation) and verifies it end to end. Run with

    pytest tests/test_acceptance.py -v

to get one pass/fail line per criterion.
"""

import time

import numpy as np
from scipy.special import ndtr

from offsetbf.channel import FadingConfig, GeometryConfig, generate_scenario
from offsetbf.directions import (const_offset_directions,
                                 directions_constant_offset, mrt_directions,
                                 solve_nu_constant_offset, zf_directions)
from offsetbf.errors import (ConvergenceError, DegenerateChannelsError,
                             InfeasibleLoadingError)
from offsetbf.montecarlo import estimate_outage
from offsetbf.powerload import (alg2_power_load, average_outage_perturbation,
                                coupling_matrix, fit_normal_cdf_quadratic,
                                max_r_power_load, power_saving_cap, reschedule)
from offsetbf.stats import (BeamformerSet, offset_stats_fixed_directions,
                            offset_var_simplified, sinr_values)

from helpers import (orthonormal_rows, scenario_from_rows, standard_complex,
                     unit_scale_scenario)

DESIGN_ERRORS = (ConvergenceError, InfeasibleLoadingError, DegenerateChannelsError)
GAMMA = 4.0
SIGMA_E = 0.1


def feasible_unit_instances(n_instances, k=3, nt=4, sigma_e=SIGMA_E, r=2.0,
                            tol=1e-10, max_tries=1000):
    """Random unit-scale instances where the loading at offset r exists.

    Yields (h, directions, coupling, report, noise) tuples; seeds advance
    until n_instances designs have been produced.
    """
    produced, seed = 0, -1
    gammas = np.full(k, GAMMA)
    sig = np.full(k, sigma_e)
    noise = np.ones(k)
    while produced < n_instances and seed < max_tries:
        seed += 1
        rng = np.random.default_rng(seed)
        h = standard_complex(rng, (k, nt))
        try:
            u = const_offset_directions(h, gammas)
            coupling = coupling_matrix(h, u, gammas, sig)
            report = alg2_power_load(coupling, noise, r, tol=tol)
        except DESIGN_ERRORS:
            continue
        produced += 1
        yield h, u, coupling, report, noise
    assert produced == n_instances, "not enough feasible instances"


def test_criterion_01_perfect_csi_equalizes_sinr_in_one_iteration():
    """With zero uncertainty the loading hits every SINR target immediately."""
    start = time.perf_counter()
    scenario = unit_scale_scenario(seed=0, sigma_e=0.0)
    h = scenario.h_est_matrix()
    gammas = scenario.sinr_targets()
    u = const_offset_directions(h, gammas)
    coupling = coupling_matrix(h, u, gammas, scenario.sigma_e_vector())
    report = alg2_power_load(coupling, scenario.noise_vector(), 2.0)
    design = BeamformerSet(directions=u, powers=report.powers)
    sinr = sinr_values(design, h, scenario.noise_vector())
    assert report.iterations_used == 1
    assert np.max(np.abs(sinr - gammas) / gammas) <= 1e-6
    assert time.perf_counter() - start < 1.0


def test_criterion_02_slack_moments_match_simulation():
    """Analytic slack mean and variance agree with 10^6-draw sample moments."""
    start = time.perf_counter()
    worst_mu, worst_var = 0.0, 0.0
    for i, (h, u, coupling, report, noise) in enumerate(
            feasible_unit_instances(20)):
        beta = report.powers
        k_users = len(beta)
        for k in range(k_users):
            st = offset_stats_fixed_directions(h[k], u, GAMMA, SIGMA_E,
                                               noise[k], beta, k)
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=7, spawn_key=(i, k)))
            e = standard_complex(rng, (1_000_000, h.shape[1])) * SIGMA_E
            x = h[k][None, :] + e
            scale = -beta.copy()
            scale[k] = beta[k] / GAMMA
            gains = np.abs(x @ u.conj().T) ** 2
            f = gains @ scale - noise[k]
            worst_mu = max(worst_mu, abs(f.mean() - st.mu) / abs(st.mu))
            worst_var = max(worst_var, abs(f.var() - st.sigma ** 2) / st.sigma ** 2)
    assert worst_mu <= 0.01
    assert worst_var <= 0.01
    assert time.perf_counter() - start < 60.0


def test_criterion_03_offset_two_calibrates_the_outage_tail():
    """Designs at r=2 hold empirical outage within 30% of the normal tail.

    The normal approximation of the slack needs enough error terms to mix,
    so the check runs at eight antennas; the band is Q(2) = 0.02275 +/- 30%.
    """
    start = time.perf_counter()
    lo, hi = 0.0159, 0.0296
    in_band = 0
    for i, (h, u, coupling, report, noise) in enumerate(
            feasible_unit_instances(100, k=3, nt=8)):
        design = BeamformerSet(directions=u, powers=report.powers)
        scenario = scenario_from_rows(h, sigma_e=SIGMA_E, noise=1.0,
                                      gamma=GAMMA)
        outage, _ = estimate_outage(design, scenario, 100_000, 1000 + i)
        if lo <= float(np.mean(outage)) <= hi:
            in_band += 1
    assert in_band >= 80
    assert time.perf_counter() - start < 600.0


def test_criterion_04_orthogonal_channels_recover_matched_filtering():
    """On orthogonal channels the dual weights and directions are closed form."""
    h = orthonormal_rows(4, 6, seed=2, norms=[1.0, 1.3, 0.7, 1.1])
    gammas = np.array([4.0, 3.0, 5.0, 4.0])
    alphas = np.sum(np.abs(h) ** 2, axis=1)
    nu = solve_nu_constant_offset(h, gammas)
    assert np.max(np.abs(nu - gammas / alphas) / (gammas / alphas)) <= 1e-8
    u = directions_constant_offset(nu, h, gammas)
    mrt = mrt_directions(h)
    overlap = np.abs(np.einsum("ki,ki->k", u.conj(), mrt))
    assert np.max(np.abs(overlap - 1.0)) <= 1e-8


def test_criterion_05_loading_converges_within_five_iterations():
    """The fixed-point loading needs at most five sweeps on feasible cells."""
    iterations = []
    seed = 0
    while len(iterations) < 100 and seed < 3000:
        seed += 1
        scenario = generate_scenario(GeometryConfig(), FadingConfig(), seed=seed)
        h = scenario.h_est_matrix()
        gammas = scenario.sinr_targets()
        try:
            u = const_offset_directions(h, gammas)
            coupling = coupling_matrix(h, u, gammas, scenario.sigma_e_vector())
            report = alg2_power_load(coupling, scenario.noise_vector(), 2.0,
                                     tol=1e-6)
        except DESIGN_ERRORS:
            continue
        iterations.append(report.iterations_used)
    assert len(iterations) == 100
    assert np.mean(np.asarray(iterations) <= 5) >= 0.95


def test_criterion_06_max_offset_exhausts_budget_and_equalizes():
    """Max-offset loadings spend the budget exactly and equalize mu = r sigma."""
    total_power = 10.0
    checked = 0
    seed = -1
    while checked < 25 and seed < 1000:
        seed += 1
        rng = np.random.default_rng(seed)
        h = standard_complex(rng, (3, 4))
        gammas = np.full(3, GAMMA)
        sig = np.full(3, SIGMA_E)
        noise = np.ones(3)
        try:
            u = const_offset_directions(h, gammas)
            coupling = coupling_matrix(h, u, gammas, sig)
            beta, r, report = max_r_power_load(coupling, noise, total_power,
                                               tol=1e-12)
        except DESIGN_ERRORS:
            continue
        checked += 1
        assert abs(beta.sum() - total_power) <= 1e-9
        for st, r_k in zip(report.achieved_stats, report.offsets):
            assert abs(st.mu - r_k * st.sigma) <= 1e-6 * abs(r_k * st.sigma)
            assert abs(r_k - r) <= 1e-9 * max(1.0, abs(r))
    assert checked == 25


def test_criterion_07_perturbation_conserves_power_and_lowers_outage():
    """Per-user offset perturbations keep the budget and improve the average
    normal-tail outage; symmetric instances are left untouched."""
    quad = fit_normal_cdf_quadratic()

    # Symmetric instance: equal-norm orthogonal channels, so every direction
    # of transfer between users is equally wasteful and the optimizer stays put.
    h_sym = orthonormal_rows(3, 4, seed=5)
    gammas = np.full(3, GAMMA)
    sig = np.full(3, SIGMA_E)
    noise = np.ones(3)
    u_sym = const_offset_directions(h_sym, gammas)
    c_sym = coupling_matrix(h_sym, u_sym, gammas, sig)
    beta_sym, r_sym, rep_sym = max_r_power_load(c_sym, noise, 10.0, tol=1e-12)
    sigma_sym = np.array([st.sigma for st in rep_sym.achieved_stats])
    delta_sym, _ = average_outage_perturbation(c_sym, noise, sigma_sym, r_sym,
                                               quad)
    assert np.max(np.abs(delta_sym)) <= 1e-12

    checked = 0
    seed = 0
    total_change = 0.0
    while checked < 100 and seed < 2000:
        seed += 1
        rng = np.random.default_rng(seed)
        h = standard_complex(rng, (3, 4))
        try:
            u = const_offset_directions(h, gammas)
            coupling = coupling_matrix(h, u, gammas, sig)
            # Calibrate the budget so the common offset lands mid-range,
            # where the quadratic tail model is at its best.
            budget = 10.0
            for _ in range(40):
                beta, r_star, report = max_r_power_load(coupling, noise,
                                                        budget, tol=1e-12)
                if abs(r_star - 2.0) < 1e-9:
                    break
                budget *= 1.0 + (2.0 - r_star) / max(r_star, 0.5)
            if not 1.5 < r_star < 2.5:
                continue
        except DESIGN_ERRORS:
            continue
        checked += 1
        sigma_f = np.array([st.sigma for st in report.achieved_stats])
        delta, beta_new = average_outage_perturbation(coupling, noise, sigma_f,
                                                      r_star, quad)
        assert abs(beta_new.sum() - beta.sum()) <= 1e-9 * beta.sum()
        change = float(np.sum(ndtr(-(r_star + delta)))) - len(delta) * ndtr(-r_star)
        assert change <= 1e-12
        total_change += change
    assert checked == 100
    assert total_change < 0.0


def test_criterion_08_two_user_loading_matches_bisection_oracle():
    """The fixed-point loading reproduces a brute-force equality solver.

    For two users the equalized slack conditions mu_k = r sigma_k can be
    solved by nested bisection on the two powers; the loading must spend the
    same total power within 1%.
    """
    start = time.perf_counter()
    r = 1.5
    gammas = np.full(2, GAMMA)
    noise = np.ones(2)

    def gap(h, u, beta, k):
        st = offset_stats_fixed_directions(h[k], u, GAMMA, SIGMA_E, noise[k],
                                           beta, k)
        return st.mu - r * st.sigma

    def inner_power(h, u, beta2):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            if gap(h, u, np.array([hi, beta2]), 0) > 0:
                break
            hi *= 2.0
        else:
            return None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(h, u, np.array([mid, beta2]), 0) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def oracle_total(h, u):
        def outer_gap(beta2):
            beta1 = inner_power(h, u, beta2)
            if beta1 is None:
                return None
            return gap(h, u, np.array([beta1, beta2]), 1), beta1
        lo, hi = 0.0, 1.0
        for _ in range(80):
            probe = outer_gap(hi)
            if probe is None:
                return None
            if probe[0] > 0:
                break
            hi *= 2.0
        else:
            return None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            probe = outer_gap(mid)
            if probe is None or probe[0] > 0:
                hi = mid
            else:
                lo = mid
        beta2 = 0.5 * (lo + hi)
        return inner_power(h, u, beta2) + beta2

    checked, seed = 0, 0
    while checked < 50 and seed < 500:
        seed += 1
        rng = np.random.default_rng(seed)
        h = standard_complex(rng, (2, 2))
        try:
            u = const_offset_directions(h, gammas)
            coupling = coupling_matrix(h, u, gammas, np.full(2, SIGMA_E))
            report = alg2_power_load(coupling, noise, r, tol=1e-12)
        except DESIGN_ERRORS:
            continue
        total = oracle_total(h, u)
        if total is None:
            continue
        checked += 1
        assert abs(total - report.powers.sum()) <= 0.01 * report.powers.sum()
    assert checked == 50
    assert time.perf_counter() - start < 300.0


def test_criterion_09_power_saving_spends_less_with_more_antennas():
    """Average spent power falls strictly with the antenna count.

    Six users on the default cell geometry, unit budget: users are dropped
    while the achievable offset is below 2, and the offset is capped at 5,
    releasing power whenever the array is good enough. The average over the
    antenna sweep must sit strictly between the always-capped and never-capped
    extremes, landing mid-band.
    """
    start = time.perf_counter()
    k = 6
    nt_grid = [20, 30, 40, 50, 60]
    n_realizations = 200
    gammas = np.full(k, 10.0 ** 0.6)
    sig = np.full(k, 0.1)
    noise = np.full(k, 1e-12)

    means = {nt: [] for nt in nt_grid}
    for i in range(n_realizations):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=90,
                                                           spawn_key=(i,)))
        d = 3.2 * np.sqrt(rng.uniform(size=k))
        shadow = rng.normal(0.0, 8.0, size=k)
        gain = 10.0 ** ((-35.2 * np.log10(d) + shadow) / 10.0)
        g = standard_complex(rng, (k, max(nt_grid)))
        e = standard_complex(rng, (k, max(nt_grid)))
        h_full = np.sqrt(gain)[:, None] * g - sig[:, None] * e
        for nt in nt_grid:
            h = h_full[:, :nt]
            retained, maxr_report = reschedule(h, gammas, sig, noise, total_power=1.0,
                                               r_min=2.0)[:2]
            idx = np.array(retained)
            u = const_offset_directions(h[idx], gammas[idx])
            coupling = coupling_matrix(h[idx], u, gammas[idx], sig[idx])
            capped = power_saving_cap(coupling, noise[idx], maxr_report, r_cap=5.0)
            means[nt].append(capped.powers.sum())

    curve = [float(np.mean(means[nt])) for nt in nt_grid]
    assert all(a > b for a, b in zip(curve, curve[1:])), curve
    assert 0.4 <= float(np.mean(curve)) <= 0.9, curve
    assert time.perf_counter() - start < 900.0


def test_criterion_10_simplified_variance_tracks_exact_for_nulling_beams():
    """The cross-term-free slack variance is within 5% of the exact form.

    The approximation drops products between different beams, which is
    accurate when the directions null interference, so it is checked on
    zero-forcing designs over wide arrays.
    """
    worst = 0.0
    for nt in (32, 64):
        for k_users in (4, 6):
            for seed in range(5):
                rng = np.random.default_rng(100 * nt + 10 * k_users + seed)
                h = standard_complex(rng, (k_users, nt))
                gammas = np.full(k_users, GAMMA)
                sig = np.full(k_users, SIGMA_E)
                noise = np.ones(k_users)
                u = zf_directions(h)
                coupling = coupling_matrix(h, u, gammas, sig)
                report = alg2_power_load(coupling, noise, 2.0, tol=1e-10,
                                         variance_mode="exact")
                for beta in (report.powers,
                             rng.uniform(0.5, 2.0, size=k_users)):
                    for k in range(k_users):
                        exact = offset_stats_fixed_directions(
                            h[k], u, GAMMA, SIGMA_E, noise[k], beta,
                            k).sigma ** 2
                        simp = offset_var_simplified(h[k], u, GAMMA, SIGMA_E,
                                                     beta, k)
                        worst = max(worst, abs(simp - exact) / exact)
    assert worst <= 0.05
