"""Tests for the slack moments of CouplingMatrix, offset conversions and
outage prediction. scipy.special, which the package does not import, is the
oracle of the standard-library Gaussian functions in stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr, ndtri

from offsetbf.channel import draw_errors
from offsetbf.directions import zf_directions
from offsetbf.powerload import (CDF_FIT_POINTS, CDF_FIT_WINDOW, DesignReport,
                                coupling_matrix, fit_normal_cdf_quadratic)
from offsetbf.stats import predicted_outage, r_from_delta

from helpers import orthonormal_rows, scenario_from_rows, sinr_values, standard_complex


def random_beamformers(k, nt, seed):
    """Random unit-norm directions (rows) and powers in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    u = standard_complex(rng, (k, nt))
    u = u / np.linalg.norm(u, axis=1)[:, None]
    return u, rng.uniform(0.5, 2.0, size=k)


def sample_slack(h_k, u, beta, gamma_k, noise_k, k, errors):
    """Draws of f_k(e) = beta_k |x^H u_k|^2 / gamma_k - sum_{j!=k} beta_j |x^H u_j|^2
    - sigma_k^2 at the true channels x = h_k + e."""
    scale = -np.asarray(beta, dtype=float)
    scale[k] = beta[k] / gamma_k
    gains = np.abs((h_k[None, :] + errors).conj() @ u.T) ** 2
    return gains @ scale - noise_k


# ---------------------------------------------------------------------------
# slack sign
# ---------------------------------------------------------------------------

def test_slack_sign_matches_sinr_margin():
    # With sigma_e = 0 the slack mean at the realized channels is f_k itself,
    # which must be nonnegative exactly when the SINR meets its target.
    rng = np.random.default_rng(3)
    u, powers = random_beamformers(3, 4, seed=4)
    h_est = standard_complex(rng, (3, 4))
    gammas = np.array([2.0, 4.0, 1.5])
    noise = np.array([0.3, 1.0, 0.5])
    for trial in range(100):
        e = 0.3 * standard_complex(rng, (3, 4))
        h = h_est + e
        scenario = scenario_from_rows(h, sigma_e=0.0, noise=noise, gamma=gammas)
        design = DesignReport(coupling_matrix(scenario, u), powers, 0.0)
        sinr = sinr_values(design, h, noise)
        assert np.array_equal(design.mu_f >= 0, sinr >= gammas)


# ---------------------------------------------------------------------------
# slack moments
# ---------------------------------------------------------------------------

def test_slack_moments_hand_values():
    u = np.eye(2, dtype=complex)
    h = np.eye(2, dtype=complex)
    beta = np.array([1.0, 1.0])
    noise = np.full(2, 0.1)
    exact = coupling_matrix(scenario_from_rows(h, 0.0, noise, gamma=1.0), u, "exact")
    assert exact.mu_f(beta)[0] == pytest.approx(0.9, rel=1e-12)
    assert exact.sigma_f(beta)[0] == 0.0

    noisy = coupling_matrix(scenario_from_rows(h, 0.1, noise, gamma=1.0), u, "exact")
    assert noisy.sigma_f(beta)[0] ** 2 == pytest.approx(0.0202, rel=1e-12)


def test_slack_moments_monte_carlo_oracle():
    nt = 4
    u, powers = random_beamformers(3, nt, seed=9)
    rng = np.random.default_rng(10)
    h = standard_complex(rng, (nt,)) * 2.0
    h_rows = np.vstack([h, standard_complex(rng, (2, nt))])
    gammas = np.full(3, 2.0)
    noise = np.full(3, 0.5)
    coupling = coupling_matrix(scenario_from_rows(h_rows, 0.1, noise, gammas), u, "exact")
    mu = coupling.mu_f(powers)[0]
    sigma = coupling.sigma_f(powers)[0]
    samples = sample_slack(h, u, powers, 2.0, 0.5, 0,
                           draw_errors(0.1, nt, 10 ** 6, seed=11))
    scale = max(abs(mu), sigma)
    assert abs(samples.mean() - mu) < 0.01 * scale
    assert abs(samples.var() - sigma ** 2) < 0.01 * sigma ** 2


def test_slack_moments_zero_powers():
    nt = 4
    u = orthonormal_rows(2, nt, seed=17)
    h = standard_complex(np.random.default_rng(18), (2, nt))
    coupling = coupling_matrix(scenario_from_rows(h, noise=0.6, gamma=2.0), u, "exact")
    assert coupling.mu_f(np.zeros(2))[0] == pytest.approx(-0.6, rel=1e-12)
    assert coupling.sigma_f(np.zeros(2))[0] == 0.0


def test_slack_moments_single_user_hand_value():
    h = np.array([[1.0, 0.0]], dtype=complex)
    coupling = coupling_matrix(scenario_from_rows(h, 0.1, gamma=1.0), h.copy(), "exact")
    assert coupling.sigma_f(np.array([1.0]))[0] ** 2 == pytest.approx(0.0201, rel=1e-12)


# ---------------------------------------------------------------------------
# simplified variance
# ---------------------------------------------------------------------------

def test_simplified_variance_exact_on_orthogonal_directions():
    nt = 8
    u = orthonormal_rows(3, nt, seed=19)
    h = standard_complex(np.random.default_rng(20), (3, nt))
    beta = np.array([1.0, 2.0, 0.5])
    scenario = scenario_from_rows(h, 0.1, gamma=2.0)
    full = coupling_matrix(scenario, u, "exact").sigma_f(beta) ** 2
    approx = coupling_matrix(scenario, u, "simplified").sigma_f(beta) ** 2
    assert np.max(np.abs(approx - full) / full) < 1e-12


def test_simplified_variance_near_orthogonal_accuracy():
    # The simplification drops the cross terms |u_j^H h| |u_l^H h| |u_l^H u_j|
    # for j != l. Those are structurally small for the direction sets the
    # designs actually produce (interference-suppressing, near-orthogonal),
    # which is where the approximation is used.
    nt, k = 32, 4
    rng = np.random.default_rng(21)
    h_rows = standard_complex(rng, (k, nt))
    u = zf_directions(h_rows)
    beta = rng.uniform(0.5, 1.5, size=k)
    scenario = scenario_from_rows(h_rows, 0.1, gamma=2.0)
    full = coupling_matrix(scenario, u, "exact").sigma_f(beta) ** 2
    approx = coupling_matrix(scenario, u, "simplified").sigma_f(beta) ** 2
    assert np.all(np.abs(approx - full) < 0.05 * full)


def test_simplified_variance_zero_powers():
    u = orthonormal_rows(2, 4, seed=22)
    h = standard_complex(np.random.default_rng(23), (2, 4))
    coupling = coupling_matrix(scenario_from_rows(h, 0.1, gamma=2.0), u, "simplified")
    assert np.array_equal(coupling.sigma_f(np.zeros(2)), np.zeros(2))


# ---------------------------------------------------------------------------
# offset/outage conversions
# ---------------------------------------------------------------------------

def test_r_from_delta_values():
    assert r_from_delta(0.1, "cantelli") == pytest.approx(3.0, rel=1e-12)
    assert r_from_delta(0.5, "gaussian") == pytest.approx(0.0, abs=1e-12)
    assert r_from_delta(0.02275, "gaussian") == pytest.approx(2.0, abs=1e-3)


def test_r_from_delta_validation():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            r_from_delta(bad)
    with pytest.raises(ValueError):
        r_from_delta(0.1, mode="chebyshev")


def test_predicted_outage_values():
    got = predicted_outage([0.0, 2.0, 1.0, -1.0, 0.0], [1.0, 1.0, 0.0, 0.0, 0.0])
    assert got[:2] == pytest.approx([0.5, 0.5 * erfc(2.0 / np.sqrt(2.0))], rel=1e-12)
    assert np.array_equal(got[2:], [0.0, 1.0, 0.0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(1e-12, 1.0 - 1e-12))
def test_gaussian_r_from_delta_matches_ndtri(delta):
    assert math.isclose(r_from_delta(delta, "gaussian"), ndtri(1.0 - delta),
                        rel_tol=2e-15, abs_tol=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6),
                          st.one_of(st.just(0.0), st.floats(1e-6, 1e6))),
                min_size=1, max_size=8))
def test_predicted_outage_matches_erfc(pairs):
    # Relative agreement holds where scipy's tail is a normal float. Below
    # that a subnormal carries fewer digits, and scipy's erfc flushes to zero
    # from mu / (sigma sqrt 2) = 26.64 on, where math.erfc still has subnormals.
    mu, sigma = np.array(pairs).T
    got = predicted_outage(mu, sigma)
    tiny = np.finfo(float).tiny
    for m, s, value in zip(mu, sigma, got):
        if s == 0.0:
            assert value == (0.0 if m >= 0 else 1.0)
            continue
        want = 0.5 * erfc(m / (s * np.sqrt(2.0)))
        if want >= tiny:
            assert math.isclose(value, want, rel_tol=1e-13, abs_tol=0.0), (m, s)
        else:
            assert 0.0 <= value < tiny, (m, s)


def test_normal_cdf_fit_matches_the_ndtr_fit():
    grid = np.linspace(*CDF_FIT_WINDOW, CDF_FIT_POINTS)
    want = np.polyfit(grid, ndtr(grid), 2)
    np.testing.assert_allclose(fit_normal_cdf_quadratic(), want, rtol=1e-13, atol=0.0)
