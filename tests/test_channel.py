"""Tests for scenario generation, the error model and serialization."""

import json

import numpy as np
import pytest

from offsetbf.channel import (FadingConfig, GeometryConfig, UserChannel,
                              _standard_complex, draw_errors, generate_scenario,
                              load_scenario, save_scenario, scenario_from_dict,
                              scenario_to_dict)
from offsetbf.cli import RunConfig, run_algorithm


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
        assert np.array_equal(ua.h_est, ub.h_est)
    c = default_scenario(seed=124)
    assert not np.array_equal(a.users[0].h_est, c.users[0].h_est)


def test_generate_scenario_zero_error_estimates_exact():
    # sigma_e = 0 gives the true channel; a nonzero sigma_e subtracts sigma_e
    # times one fixed standard draw from it
    exact = default_scenario(seed=5, sigma_e=0.0).h_est_matrix()
    e1 = exact - default_scenario(seed=5, sigma_e=0.1).h_est_matrix()
    e2 = exact - default_scenario(seed=5, sigma_e=0.2).h_est_matrix()
    assert np.all(e1 != 0)
    assert np.allclose(e2, 2.0 * e1, rtol=1e-9, atol=0.0)


def test_generate_scenario_invalid_config():
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(n_users=0), FadingConfig(), 0)
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(n_antennas=0), FadingConfig(), 0)
    with pytest.raises(ValueError):
        generate_scenario(GeometryConfig(radius_km=-1.0), FadingConfig(), 0)


def _user(sigma_e=0.1, nt=4, **kwargs):
    fields = dict(h_est=np.zeros(nt), sigma_e=sigma_e, noise_power=1.0, sinr_target=1.0)
    fields.update(kwargs)
    return UserChannel(**fields)


def test_uncertainty_model_validation():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_e must be finite and nonnegative"):
            _user(sigma_e=bad)
    assert _user(sigma_e=0).sigma_e == 0.0


def test_user_channel_rejects_non_finite_fields():
    for field in ("noise_power", "sinr_target"):
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                _user(**{field: bad})
    h_est = np.ones(4, dtype=complex)
    h_est[2] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="h_est must be finite"):
        _user(h_est=h_est)


def test_draw_errors_degenerate_cases():
    assert np.array_equal(draw_errors(_user(sigma_e=0.0), 3, seed=0), np.zeros((3, 4)))


def test_draw_errors_iid_sample_covariance():
    nt = 4
    user = _user(0.1, nt)
    e = draw_errors(user, 10 ** 6, seed=42)
    assert np.abs(e.mean()) < 1e-3
    sample_cov = e.T @ e.conj() / e.shape[0]
    target = 0.01 * np.eye(nt)
    rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert rel < 0.02


def test_draw_errors_prefix_stability():
    user = _user(0.1, 4)
    long = draw_errors(user, 10, seed=11)
    short = draw_errors(user, 4, seed=11)
    assert np.array_equal(long[:4], short)
    assert np.array_equal(draw_errors(user, 1, seed=11)[0], long[0])


@pytest.mark.parametrize("shape", [(7,), (3, 4), (50, 8), (2, 3, 5), (0, 4)])
def test_standard_complex_matches_interleaved_expression_bitwise(shape):
    for seed in range(20):
        z = np.random.default_rng(seed).standard_normal(size=shape + (2,))
        oracle = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        drawn = _standard_complex(np.random.default_rng(seed), shape)
        assert drawn.shape == oracle.shape
        assert drawn.tobytes() == oracle.tobytes()
        if len(shape) == 2:
            errors = draw_errors(_user(0.3, shape[1]), shape[0], seed)
            assert errors.tobytes() == (0.3 * oracle).tobytes()


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario(seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_antennas", "users"}
    assert set(doc["users"][0]) == {"h_est", "sigma_e", "noise_power", "gamma"}
    assert doc["users"][0]["h_est"][0] == [sc.users[0].h_est[0].real,
                                           sc.users[0].h_est[0].imag]
    back = load_scenario(path)
    assert back.n_antennas == sc.n_antennas
    for ua, ub in zip(sc.users, back.users):
        assert np.array_equal(ua.h_est, ub.h_est)
        assert ua.sigma_e == ub.sigma_e
        assert ua.noise_power == ub.noise_power
        assert ua.sinr_target == ub.sinr_target


# A 2-user, 2-antenna cell (generate_scenario at seed 4, radius 0.5 km) as
# files stored it before the error model became one sigma_e per user.
LEGACY_SCENARIO = {
    "n_antennas": 2, "rng_seed": 4,
    "users": [
        {"h_true": [[-19.1605546629819, -0.060739363907302044],
                    [-7.277891299691827, 1.7350232239985286]],
         "h_est": [[-19.182944846819524, -0.0968404645671577],
                   [-7.172312006387728, 1.575731219971649]],
         "sigma_e": 0.1, "noise_power": 1e-12, "gamma": 3.9810717055349722,
         "delta": 0.05},
        {"h_true": [[-12.753763563589825, 1.9173764309947858],
                    [1.8666928168943961, 12.495531969036021]],
         "h_est": [[-12.618306967151604, 1.8394672746171856],
                   [1.8900205576721227, 12.557803081501527]],
         "sigma_e": 0.1, "noise_power": 1e-12, "gamma": 3.9810717055349722,
         "delta": 0.05},
    ],
}


def test_scenario_from_dict_ignores_legacy_fields():
    legacy = scenario_from_dict(LEGACY_SCENARIO)
    current = generate_scenario(GeometryConfig(n_users=2, n_antennas=2, radius_km=0.5),
                                FadingConfig(), 4)
    assert scenario_to_dict(legacy) == scenario_to_dict(current)
    for ua, ub in zip(legacy.users, current.users):
        assert np.array_equal(ua.h_est, ub.h_est)
        assert ua.sigma_e == ub.sigma_e
    cfg = RunConfig(generate={}, algorithm="zf", r=2.0)
    _, report_legacy = run_algorithm("zf", legacy, cfg)
    _, report_current = run_algorithm("zf", scenario_from_dict(scenario_to_dict(current)), cfg)
    assert np.array_equal(report_legacy.powers, report_current.powers)
