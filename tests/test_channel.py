"""Tests for scenario generation, the error model and serialization."""

import json

import numpy as np
import pytest

from offsetbf.channel import (FadingConfig, GeometryConfig, Scenario,
                              UncertaintyModel, UserChannel, draw_errors,
                              generate_scenario, load_scenario, save_scenario,
                              scenario_from_dict, scenario_to_dict)


def default_scenario(seed=0, **fading_kwargs):
    return generate_scenario(GeometryConfig(), FadingConfig(**fading_kwargs), seed)


def test_generate_scenario_default_shape():
    sc = default_scenario()
    assert sc.n_users == 3
    assert sc.n_antennas == 4
    assert sc.h_est_matrix().shape == (3, 4)
    assert np.all(sc.noise_vector() == 1e-12)
    assert np.allclose(sc.sinr_targets(), 10 ** 0.6)
    assert np.all(sc.sigma_e_vector() == 0.1)


def test_generate_scenario_deterministic():
    a = default_scenario(seed=123)
    b = default_scenario(seed=123)
    for ua, ub in zip(a.users, b.users):
        assert np.array_equal(ua.h_true, ub.h_true)
        assert np.array_equal(ua.h_est, ub.h_est)
    c = default_scenario(seed=124)
    assert not np.array_equal(a.users[0].h_est, c.users[0].h_est)


def test_generate_scenario_zero_error_estimates_exact():
    sc = default_scenario(seed=5, sigma_e=0.0)
    for u in sc.users:
        assert np.array_equal(u.h_true, u.h_est)


def test_generate_scenario_invalid_config():
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(n_users=0), FadingConfig(), 0)
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(n_antennas=0), FadingConfig(), 0)
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(radius_km=-1.0), FadingConfig(), 0)


def test_uncertainty_model_validation():
    with pytest.raises(ValueError):
        UncertaintyModel(mean_vector=np.zeros(2),
                         covariance=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        UncertaintyModel(mean_vector=np.zeros(2), covariance=-np.eye(2))
    with pytest.raises(ValueError):
        UncertaintyModel(mean_vector=np.zeros(2), covariance=2 * np.eye(2),
                         iid_flag=True, iid_std=1.0)
    with pytest.raises(ValueError):
        UncertaintyModel(mean_vector=np.ones(2), covariance=np.eye(2),
                         iid_flag=True, iid_std=1.0)


def _user_with(model, nt=4):
    return UserChannel(h_true=np.zeros(nt), h_est=np.zeros(nt),
                       uncertainty=model, noise_power=1.0, sinr_target=1.0,
                       outage_tolerance=0.05)


def test_draw_errors_degenerate_cases():
    nt = 4
    zero = _user_with(UncertaintyModel.general(np.zeros(nt), np.zeros((nt, nt))))
    assert np.array_equal(draw_errors(zero, 3, seed=0), np.zeros((3, nt)))

    v = np.array([1.0 + 2.0j, -0.5j, 0.25, 1.0])
    shifted = _user_with(UncertaintyModel.general(v, np.zeros((nt, nt))))
    out = draw_errors(shifted, 2, seed=0)
    assert np.array_equal(out, np.tile(v, (2, 1)))


def test_draw_errors_iid_sample_covariance():
    nt = 4
    user = _user_with(UncertaintyModel.iid(0.1, nt))
    e = draw_errors(user, 10 ** 6, seed=42)
    assert np.abs(e.mean()) < 1e-3
    sample_cov = e.T @ e.conj() / e.shape[0]
    target = 0.01 * np.eye(nt)
    rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert rel < 0.02


def test_draw_errors_general_covariance_moments():
    nt = 3
    rng = np.random.default_rng(7)
    a = rng.standard_normal((nt, nt)) + 1j * rng.standard_normal((nt, nt))
    cov = a @ a.conj().T / nt
    m = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
    user = _user_with(UncertaintyModel.general(m, cov), nt=nt)
    e = draw_errors(user, 10 ** 6, seed=3)
    assert np.linalg.norm(e.mean(axis=0) - m) < 0.01 * np.linalg.norm(m)
    centered = e - m
    sample_cov = centered.T @ centered.conj() / e.shape[0]
    rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
    assert rel < 0.02


def test_draw_errors_prefix_stability():
    user = _user_with(UncertaintyModel.iid(0.1, 4))
    long = draw_errors(user, 10, seed=11)
    short = draw_errors(user, 4, seed=11)
    assert np.array_equal(long[:4], short)
    assert np.array_equal(draw_errors(user, 1, seed=11)[0], long[0])


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario(seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_antennas", "rng_seed", "users"}
    assert set(doc["users"][0]) == {"h_true", "h_est", "sigma_e", "noise_power",
                                    "gamma", "delta"}
    assert doc["users"][0]["h_est"][0] == [sc.users[0].h_est[0].real,
                                           sc.users[0].h_est[0].imag]
    back = load_scenario(path)
    assert back.n_antennas == sc.n_antennas
    for ua, ub in zip(sc.users, back.users):
        assert np.array_equal(ua.h_true, ub.h_true)
        assert np.array_equal(ua.h_est, ub.h_est)
        assert ua.noise_power == ub.noise_power
        assert ua.sinr_target == ub.sinr_target


def test_scenario_json_rejects_general_model():
    nt = 4
    user = _user_with(UncertaintyModel.general(np.zeros(nt), 0.1 * np.eye(nt)))
    sc = Scenario(users=[user], n_antennas=nt)
    with pytest.raises(ValueError):
        scenario_to_dict(sc)


def test_sigma_e_vector_rejects_general_model():
    # C = 0.05 I is not perfect CSI; it must not be read as sigma_e = [0, 0]
    nt = 4
    general = UncertaintyModel.general(np.zeros(nt), 0.05 * np.eye(nt))
    sc = Scenario(users=[_user_with(general), _user_with(general)], n_antennas=nt)
    with pytest.raises(ValueError, match="general error model"):
        sc.sigma_e_vector()
    mixed = Scenario(users=[_user_with(UncertaintyModel.iid(0.1, nt)),
                            _user_with(general)], n_antennas=nt)
    with pytest.raises(ValueError, match=r"users \[1\]"):
        mixed.sigma_e_vector()


def test_scenario_from_dict_accepts_missing_seed():
    sc = default_scenario(seed=2)
    doc = scenario_to_dict(sc)
    doc.pop("rng_seed")
    back = scenario_from_dict(doc)
    assert back.rng_seed == 0
