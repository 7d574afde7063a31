"""End-to-end tests of the command-line front end (in-process)."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from offsetbf import cli, directions, powerload
from offsetbf.channel import (CellConfig, generate_scenario, save_scenario,
                              scenario_to_dict)

from helpers import scenario_from_rows, standard_complex, unit_scale_scenario

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
GENERATE_BLOCK = {
    "n_users": 3,
    "n_antennas": 4,
    "radius_km": 0.1,
    "sigma_e": 0.01,
    "shadowing_std_db": 4.0,
    "noise_dbm": -90.0,
    "gamma_db": 6.0,
    "seed": 3,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def unit_scenario_file(tmp_path):
    path = tmp_path / "unit_scenario.json"
    save_scenario(unit_scale_scenario(seed=0), path)
    return str(path)


def duplicate_scenario_file(tmp_path):
    rng = np.random.default_rng(13)
    base = standard_complex(rng, (4,))
    rows = np.vstack([base, base + 1e-6 * standard_complex(rng, (4,))])
    path = tmp_path / "duplicate_scenario.json"
    save_scenario(scenario_from_rows(rows), path)
    return str(path)


def singular_dual_scenario_file(tmp_path):
    # Unlike the duplicate pair above, this triple drives the direction
    # solver's dual iteration into a numerically singular matrix rather
    # than a sweep-limit timeout.
    rng = np.random.default_rng(13)
    rows = standard_complex(rng, (3, 4))
    rows[1] = rows[0] + 1e-6 * rows[2]
    path = tmp_path / "singular_scenario.json"
    save_scenario(scenario_from_rows(rows), path)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration errors (exit code 1)
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"generate": {}, "bogus": 1})
    code, out, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "config error" in err
    assert out == ""


def test_config_rejects_unknown_generate_keys(tmp_path, capsys):
    # r comes from the top-level r or delta only; a generate-level delta
    # would be stored in the scenario and never read by the design.
    cfg = write_config(tmp_path, {"generate": {**GENERATE_BLOCK, "delta": 0.05},
                                  "algorithm": "zf", "r": 2.0,
                                  "out": str(tmp_path / "r.json")})
    code, out, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "unknown generate keys: ['delta']" in err
    assert out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key,field", [
    ("gamma_db", "sinr_target"),
    ("noise_dbm", "noise_power"),
    ("sigma_e", "sigma_e"),
    ("radius_km", "h_est"),
    ("path_loss_exponent", "h_est"),
    ("shadowing_std_db", "h_est"),
])
def test_config_rejects_non_finite_generate_values(tmp_path, capsys, key, field):
    # The config check names the generate key. A library caller's cell skips
    # that check, and the scenario names its own field.
    cfg = write_config(tmp_path, {"generate": {**GENERATE_BLOCK, key: float("nan")},
                                  "algorithm": "zf", "r": 2.0,
                                  "out": str(tmp_path / "r.json")})
    code, out, err = run_cli(capsys, ["design", "--config", cfg])
    assert (code, out) == (1, "")
    assert err == f"config error: generate.{key} must be a finite number, got nan\n"
    assert not (tmp_path / "r.json").exists()
    cell = {name: value for name, value in GENERATE_BLOCK.items() if name != "seed"}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        generate_scenario(CellConfig(**{**cell, key: float("nan")}), 3)


@pytest.mark.parametrize("key,value,message", [
    ("gamma_db", 4000, "gamma_db 4000 overflows as a power ratio"),
    ("noise_dbm", 3100, "noise_dbm 3100 overflows as a power ratio"),
    ("shadowing_std_db", 1e308, "path_loss_exponent 3.52 and shadowing_std_db 1e+308 put a "
                                "large-scale gain beyond the float range"),
    ("path_loss_exponent", 1e300, "path_loss_exponent 1e+300 and shadowing_std_db 8.0 put a "
                                  "large-scale gain beyond the float range"),
])
def test_generate_values_beyond_the_float_range_are_config_errors(tmp_path, capsys, key,
                                                                   value, message):
    # The first two raised OverflowError out of main; the last two warned of an
    # overflow before "h_est must be finite". Warnings are errors here, so that
    # a warning would escape main too. The default cell and seed 0 are used,
    # where a user's large-scale gain overflows.
    cfg = write_config(tmp_path, {"generate": {key: value}, "algorithm": "zf", "r": 2.0,
                                  "out": str(tmp_path / "r.json")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, ["design", "--config", cfg]) == (1, "", f"config error: {message}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_scenario(CellConfig(**{key: value}), 0)
    assert not (tmp_path / "r.json").exists()


NAN = float("nan")
README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_table_covers_every_key_and_the_readme_names_them():
    assert list(cli.CONFIG) == [f.name for f in fields(cli.RunConfig)]
    assert all(isinstance(key, cli.Key) for key in cli.CONFIG.values())
    assert set(cli.GENERATE) == {f.name for f in fields(CellConfig)} | {"seed"}
    schema = README.read_text().split("### Config schema")[1].split("\n##")[0]
    unnamed = [name for name in cli.CONFIG if f"`{name}`" not in schema]
    unnamed += [name for name in cli.GENERATE if f"`generate.{name}`" not in schema]
    assert unnamed == []


def generate_with(**values):
    return {"generate": {**GENERATE_BLOCK, **values}}


@pytest.mark.parametrize("patch,message", [
    ({"r": NAN}, "r must be a finite number"),
    ({"total_power": NAN}, "total_power must be a finite number"),
    ({"total_power": 0.0}, "total_power must be positive"),
    ({"total_power": -1.0}, "total_power must be positive"),
    ({"r_min": NAN}, "r_min must be a finite number"),
    ({"r_cap": NAN}, "r_cap must be a finite number"),
    ({"rzf_loading": float("inf")}, "rzf_loading must be a finite number"),
    ({"r_grid": [1.0, NAN]}, "r_grid must be a finite number"),
    ({"r": True}, "r must be a finite number"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"n_trials": True}, "n_trials must be an integer"),
    ({"n_realizations": 2.5}, "n_realizations must be an integer"),
    (generate_with(n_users=2.5), "generate.n_users must be an integer"),
    (generate_with(n_users=True), "generate.n_users must be an integer"),
    (generate_with(n_antennas="4"), "generate.n_antennas must be an integer"),
    (generate_with(seed=1.5), "generate.seed must be an integer"),
    (generate_with(radius_km="0.5"), "generate.radius_km must be a finite number"),
    (generate_with(gamma_db=True), "generate.gamma_db must be a finite number"),
    (generate_with(sigma_e=[0.1]), "generate.sigma_e must be a finite number"),
    ({"delta": "0.05"}, "delta must be a finite number, got '0.05'"),
    ({"delta_grid": ["0.1", 0.2]}, "delta_grid must be a finite number, got '0.1'"),
    ({"seed": -1}, "seed must be at least 0, got -1"),
    (generate_with(seed=-1), "generate.seed must be at least 0, got -1"),
    ({"rzf_loading": -1}, "rzf_loading must be positive, got -1"),
    ({"rzf_loading": 0.0}, "rzf_loading must be positive, got 0.0"),
    ({"r_mode": "bogus"}, "r_mode must be one of ('cantelli', 'gaussian'), got 'bogus'"),
    ({"algorithms": "zf"}, "algorithms must be a list, got 'zf'"),
    ({"r_grid": 2.0}, "r_grid must be a list, got 2.0"),
    ({"delta_grid": "0.1"}, "delta_grid must be a list, got '0.1'"),
    ({"generate": ["n_users"]}, "generate must be an object, got ['n_users']"),
    (generate_with(n_users=0), "generate.n_users must be at least 1, got 0"),
    (generate_with(n_antennas=0), "generate.n_antennas must be at least 1, got 0"),
    (generate_with(radius_km=0.0), "generate.radius_km must be positive, got 0.0"),
    (generate_with(radius_km=-0.5), "generate.radius_km must be positive, got -0.5"),
    ({"algorithm": "socp"}, f"algorithm must be one of {cli.ALGORITHM_IDS}, got 'socp'"),
    ({"algorithms": ["zf", "socp"]},
     f"algorithms must be one of {cli.ALGORITHM_IDS}, got 'socp'"),
    ({"variance_mode": "fast"},
     "variance_mode must be one of ('exact', 'simplified'), got 'fast'"),
    ({"total_power": None}, "total_power must be a finite number, got None"),
])
def test_config_rejects_non_finite_and_non_integer_values(tmp_path, capsys, patch,
                                                          message):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, {"generate": GENERATE_BLOCK, "r": 2.0,
                                  "algorithm": "maxr_powersave", "out": str(out),
                                  **patch})
    code, stdout, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert err.startswith(f"config error: {message}")
    assert ", got " in err
    assert stdout == ""
    assert not out.exists()


def test_seed_override_is_checked_like_the_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, {"generate": GENERATE_BLOCK, "algorithm": "zf", "r": 2.0,
                                  "out": str(out)})
    code, stdout, err = run_cli(capsys, ["design", "--config", cfg, "--seed", "-1"])
    assert (code, stdout, err) == (1, "", "config error: seed must be at least 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("doc,message", [
    ({"generate": GENERATE_BLOCK, "out": 1}, "out must be a string, got 1"),
    ({"scenario_file": 0, "out": "r.json"}, "scenario_file must be a string, got 0"),
], ids=["out-descriptor", "scenario-file-descriptor"])
def test_config_paths_are_not_file_descriptors(tmp_path, doc, message):
    # An integer path would open a file descriptor: out 1 writes the report to
    # stdout, scenario_file 0 reads the scenario from stdin. The CLI runs in a
    # child process, so that neither can touch this one's descriptors.
    cfg = write_config(tmp_path, {"algorithm": "zf", "r": 2.0, **doc})
    scenario = json.dumps(scenario_to_dict(unit_scale_scenario(seed=0)))
    result = subprocess.run([sys.executable, "-m", "offsetbf.cli", "design", "--config", cfg],
                            input=scenario, capture_output=True, text=True, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"config error: {message}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_config_rejects_non_positive_r_cap_before_designing(tmp_path, capsys,
                                                            monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("reschedule ran before the config was checked")
    monkeypatch.setattr(powerload, "reschedule", not_reached)
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, {"generate": GENERATE_BLOCK,
                                  "algorithm": "maxr_powersave", "r_cap": 0,
                                  "out": str(out)})
    code, stdout, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert err == "config error: r_cap must be positive, got 0\n"
    assert stdout == ""
    assert not out.exists()


def test_config_rejects_zero_trials(tmp_path, capsys):
    # at 50 km no realization is viable, so the sweep would otherwise exit 0
    # with a NaN row without ever estimating an outage
    out = tmp_path / "none.csv"
    cfg = sweep_config(tmp_path, str(out), generate={**GENERATE_BLOCK, "radius_km": 50.0},
                       algorithms=["zf"], r_grid=[2.0], n_realizations=2, n_trials=0)
    code, stdout, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 1
    assert err == "config error: n_trials must be at least 1, got 0\n"
    assert stdout == ""
    assert not out.exists()


def test_trials_override_is_checked_like_the_config(tmp_path, capsys):
    out = tmp_path / "mc.json"
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "const_offset", "r": 2.0,
                                  "n_trials": 100, "out": str(out)})
    code, stdout, err = run_cli(capsys, ["montecarlo", "--config", cfg,
                                         "--trials", "0"])
    assert code == 1
    assert err == "config error: n_trials must be at least 1, got 0\n"
    assert stdout == ""
    assert not out.exists()


def test_config_rejects_non_finite_scenario_sigma_e(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    doc = scenario_to_dict(unit_scale_scenario(seed=0))
    doc["users"][1]["sigma_e"] = float("nan")
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"scenario_file": str(path), "algorithm": "zf",
                                  "r": 2.0, "out": str(tmp_path / "r.json")})
    code, out, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "config error: sigma_e must be finite" in err
    assert out == ""


@pytest.mark.parametrize("command,algorithm", [("maxr", "maxr_reschedule"),
                                               ("design", "zf")])
def test_config_rejects_scenario_sigma_e_whose_fourth_power_overflows(
        tmp_path, capsys, command, algorithm):
    # (1e160)^4 overflows, which the chain cannot handle (maxr_reschedule would
    # write NaN powers), so loading the scenario must stop both commands
    path = tmp_path / "scenario.json"
    doc = scenario_to_dict(scenario_from_rows(standard_complex(
        np.random.default_rng(0), (2, 4))))
    for user in doc["users"]:
        user["sigma_e"] = 1e160
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, {"scenario_file": str(path), "algorithm": algorithm,
                                  "r": 2.0, "total_power": 50.0, "out": str(out)})
    code, stdout, err = run_cli(capsys, [command, "--config", cfg])
    assert code == 1
    assert err == ("config error: sigma_e must be below 1.158e+77, where sigma_e^4 "
                   "overflows, got 1e+160\n")
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "scenario.json"]


@pytest.mark.parametrize("command,algorithm,cause", [
    ("maxr", "maxr_reschedule",
     "power loading left the float range: its Newton step is not finite"),
    ("design", "zf", "power loading did not converge in 50 iterations"),
])
def test_sigma_e_just_below_its_bound_is_a_failed_design(tmp_path, capsys, command,
                                                         algorithm, cause):
    # sigma_e = 1e77 passes Scenario's bound. maxr_reschedule's last user then
    # overflows sigma_f^2 at the max-r start, which the loader names; zf's
    # loading stays finite but has no fixed point (A^{-1} sigma^2 < 0), and
    # its Newton steps cycle. Both exit 2 with no RuntimeWarning on stderr.
    path = tmp_path / "scenario.json"
    doc = scenario_to_dict(scenario_from_rows(standard_complex(
        np.random.default_rng(0), (2, 4))))
    for user in doc["users"]:
        user["sigma_e"] = 1e77
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path, {"scenario_file": str(path), "algorithm": algorithm,
                                  "r": 2.0, "total_power": 50.0, "out": str(out)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, stdout, err) == (2, "", f"design failed: {cause}\n")
    assert not out.exists()


@pytest.mark.parametrize("factor", [1e155, 1e-170, 1e100, 1e-150])
def test_h_est_row_norms_outside_their_bound_are_a_config_error(tmp_path, capsys, factor):
    # The 3x4 cell at 0.5 km, seed 0, with every h_est entry times factor. Row
    # norms beyond 2^500 or below 2^-500 stop every id at loading with a
    # message that names h_est; within the bound no id exits 1.
    doc = scenario_to_dict(generate_scenario(
        CellConfig(n_users=3, n_antennas=4, radius_km=0.5), 0))
    for user in doc["users"]:
        user["h_est"] = [[re * factor, im * factor] for re, im in user["h_est"]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for name in cli.ALGORITHM_IDS:
        cfg = write_config(tmp_path, {"scenario_file": str(path), "algorithm": name,
                                      "r": 2.0, "out": str(tmp_path / "r.json")})
        code, _, err = run_cli(capsys, ["design", "--config", cfg])
        if factor in (1e155, 1e-170):
            assert code == 1
            assert err.startswith("config error: h_est row norms must be 0 or lie in "
                                  "[2^-500, 2^500], got "), (name, err)
        else:
            assert code != 1, (name, err)


def test_config_requires_exactly_one_scenario_source(tmp_path, capsys):
    scenario = unit_scenario_file(tmp_path)
    both = write_config(tmp_path, {"scenario_file": scenario, "generate": {}},
                        name="both.json")
    neither = write_config(tmp_path, {"algorithm": "zf", "r": 2.0},
                           name="neither.json")
    assert run_cli(capsys, ["design", "--config", both])[0] == 1
    assert run_cli(capsys, ["design", "--config", neither])[0] == 1


def test_config_rejects_unknown_algorithm(tmp_path, capsys):
    cfg = write_config(tmp_path, {"generate": {}, "algorithm": "socp"})
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 1
    cfg = write_config(tmp_path, {"generate": {}, "algorithms": ["zf", "socp"]},
                       name="list.json")
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 1
    cfg = write_config(tmp_path, {"generate": {}}, name="ok.json")
    code, _, err = run_cli(capsys, ["design", "--config", cfg,
                                    "--algorithms", "socp"])
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize("command", ["design", "maxr", "montecarlo"])
@pytest.mark.parametrize("source", ["config", "override"])
def test_a_single_design_command_rejects_a_list_of_algorithms(tmp_path, capsys, command,
                                                              source):
    # Only sweep runs a list; the other commands run one algorithm and must
    # not drop the rest of a list silently.
    out = tmp_path / "report.json"
    names = ["maxr", "avg_outage"] if command == "maxr" else ["zf", "mrt"]
    doc = {"scenario_file": unit_scenario_file(tmp_path), "r": 2.0, "out": str(out)}
    override = ["--algorithms", ",".join(names)] if source == "override" else []
    cfg = write_config(tmp_path, doc if override else {**doc, "algorithms": names})
    code, stdout, err = run_cli(capsys, [command, "--config", cfg, *override])
    assert (code, stdout) == (1, "")
    assert err == f"config error: {command} runs one algorithm, got algorithms {names}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "maxr", "montecarlo"])
def test_a_single_design_command_rejects_an_algorithms_entry_that_is_not_the_algorithm(
        tmp_path, capsys, command):
    out = tmp_path / "report.json"
    algorithm, names = ("maxr", ["avg_outage"]) if command == "maxr" else ("alg1", ["zf"])
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path), "r": 2.0,
                                  "algorithm": algorithm, "algorithms": names,
                                  "out": str(out)})
    code, stdout, err = run_cli(capsys, [command, "--config", cfg])
    assert (code, stdout) == (1, "")
    assert err == (f"config error: {command} runs one algorithm, "
                   f"got algorithm {algorithm!r} and algorithms {names}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "montecarlo"])
@pytest.mark.parametrize("source", ["config", "override"])
def test_a_one_entry_algorithms_list_sets_the_algorithm(tmp_path, capsys, command, source):
    # The override replaces the config's algorithm; a config gives the list alone.
    out = tmp_path / "report.json"
    doc = {"scenario_file": unit_scenario_file(tmp_path), "r": 2.0, "n_trials": 10,
           "out": str(out)}
    if source == "override":
        cfg = write_config(tmp_path, {**doc, "algorithm": "alg1"})
        code, _, _ = run_cli(capsys, [command, "--config", cfg, "--algorithms", "zf"])
    else:
        cfg = write_config(tmp_path, {**doc, "algorithms": ["zf"]})
        code, _, _ = run_cli(capsys, [command, "--config", cfg])
    assert code == 0
    assert json.loads(out.read_text())["algorithm"] == "zf"


def test_config_rejects_unknown_variance_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {"generate": {}, "variance_mode": "fast"})
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 1


def test_config_file_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["design", "--config",
                                    str(tmp_path / "missing.json")])
    assert code == 1
    assert "config error" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, ["design", "--config", str(broken)])[0] == 1


def test_config_must_be_a_json_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"generate": {}, "algorithm": "zf", "r": 2.0}]))
    for extra in ([], ["--trials", "10"]):
        code, out, err = run_cli(capsys, ["design", "--config", str(path), *extra])
        assert code == 1
        assert err == "config error: the config must be a JSON object\n"
        assert out == ""


def test_design_requires_offset_parameter(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "const_offset"})
    code, _, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "config error" in err


def test_design_resolves_offset_before_solving_directions(tmp_path, capsys):
    # Without r or delta this alg1 design is a config error (exit 1), even
    # though its direction solve would fail (exit 2, see below).
    cfg = write_config(tmp_path, {"generate": {"n_users": 4, "n_antennas": 8,
                                               "seed": 5},
                                  "algorithm": "alg1"})
    code, _, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "requires r or delta" in err


def test_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text("{truncated")
    cfg = write_config(tmp_path, {"scenario_file": str(bad), "algorithm": "zf",
                                  "r": 2.0})
    code, _, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 1
    assert "config error" in err


USER = {"h_est": [[1.0, 0.0]], "sigma_e": 0.1, "noise_power": 1.0, "gamma": 2.0}


@pytest.mark.parametrize("doc,detail", [
    ([1, 2], "the scenario must be a JSON object\n"),
    ({"n_antennas": 2, "users": 5}, ""),
    ({"n_antennas": 1, "users": [{**USER, "gamma": None}]}, ""),
    ({"n_antennas": 1, "users": [USER, {key: USER[key] for key in USER if key != "gamma"}]},
     "user 1 has no 'gamma'\n"),
    ({"n_antennas": 2}, "no 'users'\n"),
    ({"users": []}, "no 'n_antennas'\n"),
    ({"n_antennas": 1, "users": [USER, {**USER, "sigma_e": True}]},
     "user 1's sigma_e has non-number True\n"),
], ids=["list", "users-not-a-list", "null-gamma", "no-gamma", "no-users", "no-n-antennas",
        "sigma-e-true"])
def test_scenario_file_of_the_wrong_shape_is_a_config_error(tmp_path, doc, detail):
    # The CLI runs in a child process, so that a traceback would show on its stderr.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"scenario_file": str(path), "algorithm": "zf",
                                  "r": 2.0, "out": str(tmp_path / "r.json")})
    result = subprocess.run([sys.executable, "-m", "offsetbf.cli", "design", "--config", cfg],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith(f"config error: malformed scenario: {detail}")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# design and maxr subcommands
# ---------------------------------------------------------------------------

def test_design_smoke_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "alg1", "r": 2.0, "out": out})
    code, stdout, stderr = run_cli(capsys, ["design", "--config", cfg])
    assert code == 0
    assert stdout == out + "\n"
    assert stderr == ""
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["algorithm"] == "alg1"
    assert set(doc) == {"config", "algorithm", "report"}
    users = doc["report"]["users"]
    assert len(users) == 3
    assert all(not u["dropped"] for u in users)
    assert all(u["beta"] > 0 for u in users)
    assert sum(u["beta"] for u in users) > 0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == {"index", "beta", "r", "mu_f", "sigma_f",
                            "predicted_outage", "dropped"}


def test_design_delta_equivalent_to_cantelli_r(tmp_path, capsys):
    scenario = unit_scenario_file(tmp_path)
    out_delta = str(tmp_path / "delta.json")
    out_r = str(tmp_path / "r.json")
    cfg_delta = write_config(tmp_path, {"scenario_file": scenario,
                                        "algorithm": "const_offset",
                                        "delta": 0.1, "out": out_delta},
                             name="cfg_delta.json")
    cfg_r = write_config(tmp_path, {"scenario_file": scenario,
                                    "algorithm": "const_offset",
                                    "r": 3.0, "out": out_r}, name="cfg_r.json")
    assert run_cli(capsys, ["design", "--config", cfg_delta])[0] == 0
    assert run_cli(capsys, ["design", "--config", cfg_r])[0] == 0
    users_delta = json.loads((tmp_path / "delta.json").read_text())["report"]["users"]
    users_r = json.loads((tmp_path / "r.json").read_text())["report"]["users"]
    assert users_delta == users_r


def test_design_from_generate_block(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    cfg = write_config(tmp_path, {"generate": dict(GENERATE_BLOCK),
                                  "algorithm": "const_offset", "r": 2.0,
                                  "out": out})
    code, stdout, _ = run_cli(capsys, ["design", "--config", cfg])
    assert code == 0
    doc = json.loads((tmp_path / "gen.json").read_text())
    assert len(doc["report"]["users"]) == 3


def test_design_rerun_is_byte_identical(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "const_offset", "r": 2.0,
                                  "out": out})
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 0
    first_json = (tmp_path / "report.json").read_bytes()
    first_csv = (tmp_path / "report.csv").read_bytes()
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 0
    assert (tmp_path / "report.json").read_bytes() == first_json
    assert (tmp_path / "report.csv").read_bytes() == first_csv


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "zf", "r": 2.0,
                                  "out": str(tmp_path / "report.json")})
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 0
    assert run_cli(capsys, ["design", "--config", cfg, "--seed", "4"])[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_design_roundtrip_from_embedded_config(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "zf", "r": 2.0, "out": out})
    assert run_cli(capsys, ["design", "--config", cfg])[0] == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    embedded = write_config(tmp_path, doc["config"], name="embedded.json")
    out2 = str(tmp_path / "again.json")
    assert run_cli(capsys, ["design", "--config", embedded, "--out", out2])[0] == 0
    again = json.loads((tmp_path / "again.json").read_text())
    assert again["report"] == doc["report"]


def test_maxr_subcommand_defaults_to_maxr(tmp_path, capsys):
    out = str(tmp_path / "maxr.json")
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "total_power": 50.0, "out": out})
    code, stdout, _ = run_cli(capsys, ["maxr", "--config", cfg])
    assert code == 0
    doc = json.loads((tmp_path / "maxr.json").read_text())
    assert doc["algorithm"] == "maxr"
    users = doc["report"]["users"]
    assert sum(u["beta"] for u in users) == pytest.approx(50.0, abs=1e-8)
    offsets = {u["r"] for u in users}
    assert len(offsets) == 1


@pytest.mark.parametrize("override", [[], ["--algorithms", "zf"]])
def test_maxr_subcommand_rejects_a_fixed_offset_algorithm(tmp_path, capsys, override):
    out = tmp_path / "maxr.json"
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "alg1", "r": 2.0, "out": str(out)})
    code, stdout, err = run_cli(capsys, ["maxr", "--config", cfg, *override])
    assert (code, stdout) == (1, "")
    name = override[-1] if override else "alg1"
    assert err == ("config error: maxr runs a budgeted algorithm, one of ('maxr', "
                   f"'maxr_reschedule', 'maxr_powersave', 'avg_outage'), got '{name}'\n")
    assert not out.exists()


def test_maxr_reschedule_drops_duplicate_user(tmp_path, capsys):
    out = str(tmp_path / "resched.json")
    cfg = write_config(tmp_path, {"scenario_file": duplicate_scenario_file(tmp_path),
                                  "algorithm": "maxr_reschedule",
                                  "total_power": 50.0, "out": out})
    code, stdout, stderr = run_cli(capsys, ["maxr", "--config", cfg])
    assert code == 0
    doc = json.loads((tmp_path / "resched.json").read_text())
    assert doc["report"]["rescheduled"] != []
    users = doc["report"]["users"]
    dropped = [u for u in users if u["dropped"]]
    served = [u for u in users if not u["dropped"]]
    assert len(dropped) == 1
    assert dropped[0]["predicted_outage"] == 1.0
    assert dropped[0]["beta"] == 0.0
    assert len(served) == 1
    with open(tmp_path / "resched.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flags = {row["dropped"] for row in rows}
    assert flags == {"True", "False"}


def test_maxr_without_reschedule_fails_on_duplicates(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario_file": duplicate_scenario_file(tmp_path),
                                  "algorithm": "maxr", "total_power": 50.0,
                                  "out": str(tmp_path / "x.json")})
    code, _, err = run_cli(capsys, ["maxr", "--config", cfg])
    assert code == 2
    assert "design" in err


@pytest.mark.parametrize("algorithm,seed,total_power", [
    ("maxr", 0, 1e-14),
    ("avg_outage", 6, 1e-11),
])
def test_budget_below_qos_loading_is_design_infeasible(tmp_path, capsys, algorithm,
                                                       seed, total_power):
    # A budget below the zero-offset QoS power cannot fund offset zero; max-r
    # says so before its Newton loop, naming the budget.
    out = tmp_path / "x.json"
    cfg = write_config(tmp_path, {"generate": {"n_users": 4, "n_antennas": 8,
                                               "seed": seed, "radius_km": 3.2},
                                  "algorithm": algorithm, "total_power": total_power,
                                  "out": str(out)})
    code, stdout, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"design infeasible: power budget {total_power:g} W is below "
                          f"the zero-offset QoS power ")
    assert not out.exists()


def test_maxr_reports_singular_dual_as_design_failure(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       {"scenario_file": singular_dual_scenario_file(tmp_path),
                        "algorithm": "maxr", "total_power": 50.0,
                        "out": str(tmp_path / "x.json")})
    code, _, err = run_cli(capsys, ["maxr", "--config", cfg])
    assert code == 2
    assert "design failed" in err


def test_maxr_reschedule_recovers_from_singular_dual(tmp_path, capsys):
    out = str(tmp_path / "singular_resched.json")
    cfg = write_config(tmp_path,
                       {"scenario_file": singular_dual_scenario_file(tmp_path),
                        "algorithm": "maxr_reschedule",
                        "total_power": 50.0, "out": out})
    code, _, _ = run_cli(capsys, ["maxr", "--config", cfg])
    assert code == 0
    doc = json.loads((tmp_path / "singular_resched.json").read_text())
    assert doc["report"]["rescheduled"] != []
    served = [u for u in doc["report"]["users"] if not u["dropped"]]
    assert len(served) >= 1


def test_design_seed_override_changes_generated_scenario(tmp_path, capsys):
    block = {k: v for k, v in GENERATE_BLOCK.items() if k != "seed"}
    out = str(tmp_path / "seeded.json")
    cfg = write_config(tmp_path, {"generate": block, "algorithm": "zf",
                                  "r": 2.0, "out": out})
    assert run_cli(capsys, ["design", "--config", cfg, "--seed", "5"])[0] == 0
    first = json.loads((tmp_path / "seeded.json").read_text())["report"]["users"]
    assert run_cli(capsys, ["design", "--config", cfg, "--seed", "6"])[0] == 0
    second = json.loads((tmp_path / "seeded.json").read_text())["report"]["users"]
    assert first != second


def test_degenerate_channels_error_exits_2_not_as_config_error(tmp_path, capsys):
    # DegenerateChannelsError is a ValueError; it must still count as a
    # failed design rather than a configuration error
    out = tmp_path / "zf.json"
    cfg = write_config(tmp_path, {"generate": {"n_users": 5, "n_antennas": 4,
                                               "radius_km": 0.5, "seed": 0},
                                  "algorithm": "zf", "r": 2.0, "out": str(out)})
    code, stdout, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 2
    assert stdout == ""
    assert err == "design failed: ZF needs K <= N_t, got K=5, N_t=4\n"
    assert not out.exists()


@pytest.mark.parametrize("n_users,n_antennas,seed,cause", [
    (4, 8, 5, "dual fixed point left the positive cone"),
    (3, 4, 1, "nu fixed point did not converge in 500 sweeps"),
    (3, 4, 0, "power loading did not converge in 50 iterations"),
])
def test_alg1_design_failures_exit_2(tmp_path, capsys, n_users, n_antennas,
                                     seed, cause):
    cfg = write_config(tmp_path, {"generate": {"n_users": n_users,
                                               "n_antennas": n_antennas,
                                               "seed": seed},
                                  "algorithm": "alg1", "delta": 0.05,
                                  "r_mode": "gaussian",
                                  "out": str(tmp_path / "x.json")})
    code, out, err = run_cli(capsys, ["design", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err == f"design failed: {cause}\n"


def reference_report_files(cfg, name, report, extra=None):
    """The JSON and CSV texts as asdict, json.dump and csv.DictWriter wrote them."""
    doc = {"config": asdict(cfg), "algorithm": name, "report": report.to_dict()}
    if extra:
        doc.update(extra)
    csv_text = io.StringIO(newline="")
    writer = csv.DictWriter(csv_text, fieldnames=["index", "beta", "r", "mu_f", "sigma_f",
                                                  "predicted_outage", "dropped"])
    writer.writeheader()
    writer.writerows(doc["report"]["users"])
    return json.dumps(doc, indent=2), csv_text.getvalue()


@pytest.mark.parametrize("command,doc,out_name,csv_name", [
    ("design", {"generate": dict(GENERATE_BLOCK), "algorithm": "const_offset", "r": 2.0,
                "r_grid": [1.0, 2.5], "algorithms": ["const_offset"]},
     "design.json", "design.csv"),
    ("montecarlo", {"algorithm": "maxr_reschedule", "total_power": 50.0,
                    "n_trials": 200}, "mc_report", "mc_report.csv"),
])
def test_report_files_keep_their_bytes(tmp_path, capsys, monkeypatch, command, doc,
                                       out_name, csv_name):
    # The montecarlo case has the extra keys and a dropped user, whose None
    # fields are empty in the CSV, and an --out without .json.
    if "generate" not in doc:
        doc = {"scenario_file": duplicate_scenario_file(tmp_path), **doc}
    calls = []
    write_report = cli._write_report

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return write_report(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_report", recording)
    out = tmp_path / out_name
    code, stdout, _ = run_cli(capsys, [command, "--config", write_config(tmp_path, doc),
                                       "--out", str(out)])
    assert code == 0 and stdout == f"{out}\n"
    (args, kwargs), = calls
    want_json, want_csv = reference_report_files(*args, **kwargs)
    assert out.read_bytes() == want_json.encode()
    assert (tmp_path / csv_name).read_bytes() == want_csv.encode()
    if command == "montecarlo":
        assert kwargs["extra"]["n_trials"] == 200
        assert ",0.0,,,,1.0,True\r\n" in want_csv     # the dropped user


# ---------------------------------------------------------------------------
# montecarlo subcommand
# ---------------------------------------------------------------------------

def test_montecarlo_reports_empirical_outage(tmp_path, capsys):
    out = str(tmp_path / "mc.json")
    cfg = write_config(tmp_path, {"scenario_file": unit_scenario_file(tmp_path),
                                  "algorithm": "const_offset", "r": 2.0,
                                  "out": out})
    code, stdout, _ = run_cli(capsys, ["montecarlo", "--config", cfg,
                                       "--trials", "300"])
    assert code == 0
    doc = json.loads((tmp_path / "mc.json").read_text())
    assert doc["n_trials"] == 300
    assert len(doc["outage"]) == 3
    assert all(0.0 <= p <= 1.0 for p in doc["outage"])
    assert len(doc["stderr_outage"]) == 3


def test_montecarlo_marks_dropped_users_in_outage(tmp_path, capsys):
    out = str(tmp_path / "mc_drop.json")
    cfg = write_config(tmp_path, {"scenario_file": duplicate_scenario_file(tmp_path),
                                  "algorithm": "maxr_reschedule",
                                  "total_power": 50.0, "n_trials": 200,
                                  "out": out})
    code, _, _ = run_cli(capsys, ["montecarlo", "--config", cfg])
    assert code == 0
    doc = json.loads((tmp_path / "mc_drop.json").read_text())
    dropped_index = doc["report"]["rescheduled"][0]
    assert doc["outage"][dropped_index] == 1.0
    assert doc["stderr_outage"][dropped_index] == 0.0


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

def sweep_config(tmp_path, out, **overrides):
    doc = {"generate": dict(GENERATE_BLOCK), "algorithm": "zf",
           "algorithms": ["zf", "const_offset"], "r_grid": [1.0, 2.0, 3.0],
           "n_realizations": 3, "n_trials": 50, "out": out}
    doc.update(overrides)
    return write_config(tmp_path, doc, name="sweep.json")


def test_sweep_grid_rows_and_determinism(tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    cfg = sweep_config(tmp_path, out)
    code, stdout, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    assert stdout == out + "\n"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert sum(1 for row in rows if row["algorithm"] == "zf") == 3
    assert sum(1 for row in rows if row["algorithm"] == "const_offset") == 3
    first = (tmp_path / "sweep.csv").read_bytes()
    assert run_cli(capsys, ["sweep", "--config", cfg])[0] == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_algorithms_override(tmp_path, capsys):
    out = str(tmp_path / "solo.csv")
    cfg = sweep_config(tmp_path, out)
    code, _, _ = run_cli(capsys, ["sweep", "--config", cfg,
                                  "--algorithms", "zf"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(row["algorithm"] == "zf" for row in rows)


def test_sweep_zero_uncertainty_zero_outage(tmp_path, capsys):
    out = str(tmp_path / "zero.csv")
    block = {**GENERATE_BLOCK, "sigma_e": 0.0}
    cfg = sweep_config(tmp_path, out, generate=block, algorithms=["const_offset"],
                       r_grid=[1.0, 2.0])
    code, _, _ = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["mean_outage"] == "0" for row in rows)
    assert all(row["stderr_outage"] == "0" for row in rows)


def test_sweep_config_errors(tmp_path, capsys):
    scenario = unit_scenario_file(tmp_path)
    from_file = write_config(tmp_path, {"scenario_file": scenario,
                                        "algorithm": "zf",
                                        "r_grid": [1.0]}, name="file.json")
    assert run_cli(capsys, ["sweep", "--config", from_file])[0] == 1
    no_grid = sweep_config(tmp_path, str(tmp_path / "x.csv"), r_grid=None)
    assert run_cli(capsys, ["sweep", "--config", no_grid])[0] == 1
    bad_algo = sweep_config(tmp_path, str(tmp_path / "y.csv"),
                            algorithms=["maxr"])
    assert run_cli(capsys, ["sweep", "--config", bad_algo])[0] == 1


def test_sweep_repeated_algorithm_repeats_its_rows(tmp_path, capsys):
    rows = {}
    for tag, names in (("once", ["zf", "const_offset"]),
                       ("twice", ["zf", "zf", "const_offset"])):
        out = tmp_path / f"{tag}.csv"
        cfg = sweep_config(tmp_path, str(out), algorithms=names)
        assert run_cli(capsys, ["sweep", "--config", cfg])[0] == 0
        with open(out, newline="") as fh:
            rows[tag] = list(csv.reader(fh))
    once = rows["once"]
    expected = [once[0]] + [row for row in once[1:]
                            for _ in range(2 if row[0] == "zf" else 1)]
    assert rows["twice"] == expected


@pytest.mark.parametrize("overrides", [
    {"n_realizations": 0},
    {"n_realizations": -2},
    {"r_grid": []},
    {"r_grid": None, "delta_grid": []},
], ids=["zero-realizations", "negative-realizations", "empty-r-grid",
        "empty-delta-grid"])
def test_sweep_rejects_empty_sweeps(tmp_path, capsys, overrides):
    out = tmp_path / "empty.csv"
    block = {**GENERATE_BLOCK, "radius_km": 0.5}
    doc = {"generate": block, "algorithms": ["zf"], "r_grid": [2.0],
           "n_trials": 100, **overrides}
    cfg = sweep_config(tmp_path, str(out), **doc)
    code, stdout, err = run_cli(capsys, ["sweep", "--config", cfg])
    assert code == 1
    assert stdout == ""
    assert err.startswith("config error:")
    assert not out.exists()


def test_sweep_builds_r_independent_designs_once_per_realization(tmp_path, capsys,
                                                                 monkeypatch):
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("zf_directions", "rzf_directions", "const_offset_directions",
                 "alg1_directions"):
        counted(directions, name)
    counted(powerload, "coupling_matrix")
    counted(powerload, "alg2_power_load")
    out = str(tmp_path / "counted.csv")
    block = {**GENERATE_BLOCK, "radius_km": 0.5}
    cfg = sweep_config(tmp_path, out, generate=block,
                       algorithms=["zf", "rzf", "const_offset", "alg1"])
    assert run_cli(capsys, ["sweep", "--config", cfg])[0] == 0
    n_realizations, n_r = 3, 3
    # alg1 starts every solve from ZF proxies
    assert counts["zf_directions"] == n_realizations + n_realizations * n_r
    assert counts["rzf_directions"] == n_realizations
    assert counts["const_offset_directions"] == n_realizations
    assert counts["alg1_directions"] == n_realizations * n_r
    assert counts["coupling_matrix"] == 3 * n_realizations + n_realizations * n_r
    assert counts["alg2_power_load"] == 4 * n_realizations * n_r
