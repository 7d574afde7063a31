"""Tests for scenario generation, the error model and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetbf.channel import (SIGMA_E_LIMIT, CellConfig, Scenario, _standard_complex,
                              draw_errors, generate_scenario, load_scenario, save_scenario,
                              scenario_from_dict, scenario_to_dict)
from offsetbf.cli import RunConfig, run_algorithm


def default_scenario(seed=0, **cell_kwargs):
    return generate_scenario(CellConfig(**cell_kwargs), seed)


def test_generate_scenario_default_shape():
    sc = default_scenario()
    assert sc.n_users == 3
    assert sc.n_antennas == 4
    assert sc.h_est.shape == (3, 4)
    assert np.all(sc.noise_power == 1e-12)
    assert np.allclose(sc.sinr_target, 10 ** 0.6)
    assert np.all(sc.sigma_e == 0.1)
    assert sc.sigma_e.shape == sc.noise_power.shape == sc.sinr_target.shape == (3,)


def test_generate_scenario_deterministic():
    a = default_scenario(seed=123)
    b = default_scenario(seed=123)
    assert a.h_est.tobytes() == b.h_est.tobytes()
    c = default_scenario(seed=124)
    assert not np.array_equal(a.h_est[0], c.h_est[0])


def test_generate_scenario_zero_error_estimates_exact():
    # sigma_e = 0 gives the true channel; a nonzero sigma_e subtracts sigma_e
    # times one fixed standard draw from it
    exact = default_scenario(seed=5, sigma_e=0.0).h_est
    e1 = exact - default_scenario(seed=5, sigma_e=0.1).h_est
    e2 = exact - default_scenario(seed=5, sigma_e=0.2).h_est
    assert np.all(e1 != 0)
    assert np.allclose(e2, 2.0 * e1, rtol=1e-9, atol=0.0)


def test_generate_scenario_invalid_config():
    with pytest.raises(ValueError):
        generate_scenario(CellConfig(n_users=0), 0)
    with pytest.raises(ValueError):
        generate_scenario(CellConfig(n_antennas=0), 0)
    with pytest.raises(ValueError):
        generate_scenario(CellConfig(radius_km=-1.0), 0)


def _scenario(k=3, nt=4, **kwargs):
    fields = dict(h_est=np.zeros((k, nt)), sigma_e=0.1, noise_power=1.0, sinr_target=1.0)
    fields.update(kwargs)
    return Scenario(**fields)


def test_scenario_broadcasts_scalars_and_owns_its_arrays():
    h_est = np.ones((2, 3), dtype=complex)
    sigma_e = np.array([0.1, 0.2])
    sc = Scenario(h_est=h_est, sigma_e=sigma_e, noise_power=0.5, sinr_target=2)
    assert (sc.n_users, sc.n_antennas) == (2, 3)
    assert sc.h_est.dtype == complex
    assert np.array_equal(sc.noise_power, [0.5, 0.5])
    assert np.array_equal(sc.sinr_target, [2.0, 2.0])
    assert sc.sinr_target.dtype == float
    h_est[0, 0] = 7.0
    sigma_e[0] = 0.3
    assert sc.h_est[0, 0] == 1.0
    assert sc.sigma_e[0] == 0.1


def test_scenario_sigma_e_validation():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma_e must be finite and nonnegative"):
            _scenario(sigma_e=bad)
    assert np.array_equal(_scenario(sigma_e=0).sigma_e, np.zeros(3))


def test_scenario_rejects_sigma_e_whose_fourth_power_overflows():
    # the slack variance holds sigma_e^4, which overflows from 2^256 up
    below = np.nextafter(2.0 ** 256, 0.0)
    assert np.isfinite(_scenario(sigma_e=below).sigma_e ** 4).all()
    for bad in (2.0 ** 256, 1e160, [0.1, 1e160, 0.2]):
        with pytest.raises(ValueError, match=r"sigma_e must be below 1\.158e\+77, where "
                                             r"sigma_e\^4 overflows, got 1"):
            _scenario(sigma_e=bad)


def test_scenario_rejects_non_finite_fields():
    for field in ("noise_power", "sinr_target"):
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                _scenario(**{field: bad})
    h_est = np.ones((3, 4), dtype=complex)
    h_est[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="h_est must be finite"):
        _scenario(h_est=h_est)


@pytest.mark.parametrize("field,message", [
    ("sigma_e", "sigma_e must be finite and nonnegative, got -0.5"),
    ("noise_power", "noise_power must be finite and positive, got -0.5"),
    ("sinr_target", "sinr_target must be finite and positive, got -0.5"),
])
def test_scenario_rejects_one_bad_entry_of_a_user_vector(field, message):
    values = np.array([0.1, 0.2, -0.5, 0.3])
    with pytest.raises(ValueError, match=message):
        _scenario(k=4, **{field: values})
    values[2] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _scenario(k=4, **{field: values})


@pytest.mark.parametrize("field", ["sigma_e", "noise_power", "sinr_target"])
def test_scenario_rejects_a_user_vector_of_the_wrong_length(field):
    for n in (3, 5, 1):
        with pytest.raises(ValueError, match=f"{field} has {n} entries for 4 users"):
            _scenario(k=4, **{field: np.full(n, 0.5)})
    with pytest.raises(ValueError, match=f"{field} has 4 entries for 4 users"):
        _scenario(k=4, **{field: np.full((4, 1), 0.5)})


def test_scenario_rejects_no_users_and_bad_shapes():
    with pytest.raises(ValueError, match="scenario needs at least one user"):
        _scenario(k=0)
    with pytest.raises(ValueError, match="h_est must have shape"):
        _scenario(h_est=np.ones(4))
    with pytest.raises(ValueError, match="sigma_e has 2 entries for 3 users"):
        _scenario(sigma_e=[0.1, 0.2])


def test_scenario_subset_keeps_order_values_and_copies():
    rng = np.random.default_rng(3)
    sc = Scenario(h_est=_standard_complex(rng, (4, 3)), sigma_e=[0.1, 0.2, 0.3, 0.4],
                  noise_power=[1.0, 2.0, 3.0, 4.0], sinr_target=[5.0, 6.0, 7.0, 8.0])
    sub = sc.subset([2, 0, 3])
    assert (sub.n_users, sub.n_antennas) == (3, 3)
    assert sub.h_est.tobytes() == sc.h_est[[2, 0, 3]].tobytes()
    assert np.array_equal(sub.sigma_e, [0.3, 0.1, 0.4])
    assert np.array_equal(sub.noise_power, [3.0, 1.0, 4.0])
    assert np.array_equal(sub.sinr_target, [7.0, 5.0, 8.0])
    whole = sc.subset(range(4))
    for name in ("h_est", "sigma_e", "noise_power", "sinr_target"):
        getattr(sub, name)[0] = 9.0
        getattr(whole, name)[0] = 9.0
    assert sc.h_est[2, 0] != 9.0 and sc.h_est[0, 0] != 9.0
    assert np.array_equal(sc.sigma_e, [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(sc.noise_power, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(sc.sinr_target, [5.0, 6.0, 7.0, 8.0])
    with pytest.raises(ValueError, match="scenario needs at least one user"):
        sc.subset([])


def test_draw_errors_degenerate_cases():
    assert np.array_equal(draw_errors(0.0, 4, 3, seed=0), np.zeros((3, 4)))


def test_draw_errors_iid_sample_covariance():
    nt = 4
    e = draw_errors(0.1, nt, 10 ** 6, seed=42)
    assert np.abs(e.mean()) < 1e-3
    sample_cov = e.T @ e.conj() / e.shape[0]
    target = 0.01 * np.eye(nt)
    rel = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert rel < 0.02


def test_draw_errors_prefix_stability():
    long = draw_errors(0.1, 4, 10, seed=11)
    short = draw_errors(0.1, 4, 4, seed=11)
    assert np.array_equal(long[:4], short)
    assert np.array_equal(draw_errors(0.1, 4, 1, seed=11)[0], long[0])


@pytest.mark.parametrize("blocks", [[5], [4, 4, 2], [1, 1, 1], [1024, 1024, 7]])
def test_draw_errors_block_by_block_equals_one_draw_bitwise(blocks):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(1, 2)))
    parts = [draw_errors(0.3, 4, n, rng) for n in blocks]
    whole = draw_errors(0.3, 4, sum(blocks),
                        np.random.SeedSequence(entropy=3, spawn_key=(1, 2)))
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("shape", [(7,), (3, 4), (50, 8), (2, 3, 5), (0, 4)])
def test_standard_complex_matches_interleaved_expression_bitwise(shape):
    for seed in range(20):
        z = np.random.default_rng(seed).standard_normal(size=shape + (2,))
        oracle = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        drawn = _standard_complex(np.random.default_rng(seed), shape)
        assert drawn.shape == oracle.shape
        assert drawn.tobytes() == oracle.tobytes()
        if len(shape) == 2:
            errors = draw_errors(0.3, shape[1], shape[0], seed)
            assert errors.tobytes() == (0.3 * oracle).tobytes()


def test_scenario_json_round_trip(tmp_path):
    sc = default_scenario(seed=9)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"n_antennas", "users"}
    assert set(doc["users"][0]) == {"h_est", "sigma_e", "noise_power", "gamma"}
    assert doc["users"][0]["h_est"][0] == [sc.h_est[0, 0].real, sc.h_est[0, 0].imag]
    back = load_scenario(path)
    assert back.n_antennas == sc.n_antennas
    for name in ("h_est", "sigma_e", "noise_power", "sinr_target"):
        assert getattr(back, name).tobytes() == getattr(sc, name).tobytes()


def test_scenario_from_dict_rejects_ragged_and_empty_user_lists():
    doc = scenario_to_dict(default_scenario(seed=9))
    doc["users"][1]["h_est"] = doc["users"][1]["h_est"][:3]
    with pytest.raises(ValueError, match="all users must share n_antennas"):
        scenario_from_dict(doc)
    doc["n_antennas"] = 3
    with pytest.raises(ValueError, match="all users must share n_antennas"):
        scenario_from_dict(doc)
    with pytest.raises(ValueError, match="scenario needs at least one user"):
        scenario_from_dict({"n_antennas": 4, "users": []})


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def scenarios(draw):
    """An arbitrary valid scenario of 1-5 users on 1-4 antennas."""
    k = draw(st.integers(1, 5))
    nt = draw(st.integers(1, 4))
    parts = draw(st.lists(finite, min_size=2 * k * nt, max_size=2 * k * nt))
    h_est = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    return Scenario(
        h_est=h_est.reshape(k, nt),
        sigma_e=draw(st.lists(st.floats(min_value=0.0, max_value=SIGMA_E_LIMIT,
                                        exclude_max=True), min_size=k, max_size=k)),
        noise_power=draw(st.lists(positive, min_size=k, max_size=k)),
        sinr_target=draw(st.lists(positive, min_size=k, max_size=k)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenarios(), st.data())
def test_scenario_dict_round_trip_is_exact_and_subset_permutes_users(sc, data):
    back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
    for name in ("h_est", "sigma_e", "noise_power", "sinr_target"):
        assert getattr(back, name).tobytes() == getattr(sc, name).tobytes()
    perm = data.draw(st.permutations(range(sc.n_users)))
    users = scenario_to_dict(sc)["users"]
    assert scenario_to_dict(sc.subset(perm))["users"] == [users[i] for i in perm]


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
    current = generate_scenario(CellConfig(n_users=2, n_antennas=2, radius_km=0.5), 4)
    assert scenario_to_dict(legacy) == scenario_to_dict(current)
    assert legacy.h_est.tobytes() == current.h_est.tobytes()
    assert legacy.sigma_e.tobytes() == current.sigma_e.tobytes()
    cfg = RunConfig(generate={}, algorithm="zf", r=2.0)
    report_legacy = run_algorithm("zf", legacy, cfg)
    report_current = run_algorithm("zf", scenario_from_dict(scenario_to_dict(current)), cfg)
    assert np.array_equal(report_legacy.powers, report_current.powers)
