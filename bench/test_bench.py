"""Self-tests of the benchmark: tracing, flop counts, percentiles, output checks.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import check
import measure
from tracer import Span, Tracer, kernel_flops, layer_metrics, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from offsetbf import channel, cli, directions, montecarlo, powerload, stats  # noqa: E402

MODULES = [channel, stats, directions, powerload, montecarlo, cli]


def test_self_time_on_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [5.5, 7], which overlap
    spans = [Span("root", 0.0, end=10.0), Span("a", 1.0, parent=0, end=4.0),
             Span("c", 2.0, parent=1, end=3.0), Span("b", 5.0, parent=0, end=9.0),
             Span("d", 5.0, parent=3, end=6.0), Span("e", 5.5, parent=3, end=7.0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_tracer_spans_parents_and_self_time():
    clock = iter(range(100))
    module = types.ModuleType("fakepkg.layer")

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    inner.__module__ = outer.__module__ = module.__name__
    module.inner, module.outer = inner, outer
    sys.modules["fakepkg"] = types.ModuleType("fakepkg")
    sys.modules["fakepkg.layer"] = module
    tracer = Tracer(clock=lambda: next(clock))
    try:
        tracer.install([module])
        assert module.outer() == 2
    finally:
        tracer.remove()
        del sys.modules["fakepkg"], sys.modules["fakepkg.layer"]
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("layer.outer", None), ("layer.inner", 0), ("layer.inner", 0)]
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert self_times(tracer.spans) == [3, 1, 1]
    assert module.outer is outer


def test_dense_flops_formulas():
    real = np.eye(4)
    cplx = np.eye(4, dtype=complex)
    assert kernel_flops("solve", real, np.ones(4)) == pytest.approx(2 / 3 * 64 + 2 * 16)
    assert kernel_flops("solve", real, np.ones((4, 3))) == pytest.approx(2 / 3 * 64 + 2 * 16 * 3)
    assert kernel_flops("solve", real, np.ones(4, dtype=complex)) == pytest.approx(
        4 * (2 / 3 * 64 + 2 * 16))
    assert kernel_flops("inv", real) == 2 * 64
    assert kernel_flops("eigh", cplx) == 4 * 9 * 64
    assert kernel_flops("eig", cplx) == 4 * 25 * 64
    assert kernel_flops("inv", np.stack([real] * 5)) == 5 * 2 * 64


def test_dense_flops_follow_the_kernels_a_direction_solver_calls():
    h = np.random.default_rng(0).standard_normal((3, 5)) + 0j
    gammas = np.full(3, 4.0)
    nu = directions.solve_nu_constant_offset(h, gammas)
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        directions.directions_constant_offset(nu, h, gammas)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer.spans)
    # one complex 5 x 5 eigh per user
    assert metrics["directions.dense_flops"] == (3 * 4 * 9 * 125, "flop", 1)
    assert metrics["directions.directions_constant_offset.linalg_calls"] == (3, "count", 1)


def test_percentile_rule_keeps_ten_samples_beyond_the_tail():
    for n in range(1, 2001):
        values = list(range(n))
        p = measure.tail_percentile(n)
        assert measure.enough_for_p90(n) == (n >= 100)
        if p is None:
            assert n < 20
            continue
        tail = measure.percentile(values, p)
        assert sum(1 for v in values if v > tail) >= 10
        higher = [c for c in measure.TAIL_CANDIDATES if c > p]
        assert all(measure.beyond(n, c) < 10 for c in higher)


def test_process_age_counts_from_process_start():
    # a fresh interpreter that sleeps 0.3 s before asking is at least that old
    out = subprocess.run(
        [sys.executable, "-c",
         "import time, measure; time.sleep(0.3); print(measure.process_age())"],
        cwd=Path(__file__).resolve().parent, capture_output=True, text=True,
        timeout=60, check=True)
    assert 0.3 <= float(out.stdout) < 10.0


def test_setup_only_prints_the_set_up_time():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "alg1_cells", "--seed", "1",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    assert 0.0 < float(out.stdout) < 60.0


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.p90(list(range(99)))
    assert measure.p90(list(range(100))) == 89


def _design(tmp_path, config, command="design"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("field, factor", [("mu_f", 1.001), ("predicted_outage", 0.99),
                                           ("beta", 1.01)])
def test_output_check_rejects_a_perturbed_report(tmp_path, field, factor):
    config = WORKLOADS["powersave_cells"].make_cell((20, "maxr_powersave"), 3).config
    doc = _design(tmp_path, config, command="maxr")
    summary, problems = check.check_design_report(doc, config)
    assert problems == []
    reference = {"exit": 0, **summary}
    doc["report"]["users"][0][field] *= factor
    summary, problems = check.check_design_report(doc, config)
    assert problems
    if field == "beta":
        assert check.compare_to_reference({"exit": 0, **summary}, reference)
    assert check.compare_to_reference({"exit": 2}, reference)


def test_sweep_check_rejects_perturbed_rows():
    config = WORKLOADS["outage_sweep"].make_cell(None, 0).config
    header = ",".join(check.SWEEP_COLUMNS)
    rows = [f"{a},{r:g},1e-10,0.1,0.01,2" for r in config["r_grid"]
            for a in config["algorithms"]]
    summary, failed, problems = check.check_sweep_csv("\n".join([header] + rows), config)
    assert (failed, problems) == (0, [])
    bad = [row.replace(",0.1,", ",1.5,") for row in rows]
    assert check.check_sweep_csv("\n".join([header] + bad), config)[2]
    bad = rows[:-1] + [rows[-1][:-1] + "3"]
    assert check.check_sweep_csv("\n".join([header] + bad), config)[2]
    shifted = {"rows": [r[:3] + [r[3] * 1.01] + r[4:] for r in summary["rows"]]}
    assert check.compare_to_reference({"exit": 0, **shifted}, {"exit": 0, **summary})


def test_traced_run_removes_its_wrappers(tmp_path):
    originals = {(m.__name__, name): obj for m in MODULES + [np.linalg]
                 for name, obj in vars(m).items() if callable(obj)}
    config = {"generate": {"n_users": 4, "n_antennas": 8, "seed": 1},
              "algorithm": "const_offset", "r": 1.0}
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        _design(tmp_path, config)
    finally:
        tracer.remove()
    traced = len(tracer.spans)
    assert traced > 0
    assert {s.name for s in tracer.spans} >= {"cli.main", "cli.run_algorithm",
                                              "directions.solve_nu_constant_offset",
                                              "powerload.alg2_power_load"}
    _design(tmp_path, config)
    assert len(tracer.spans) == traced
    for m in MODULES + [np.linalg]:
        for name, obj in vars(m).items():
            if callable(obj):
                assert obj is originals[(m.__name__, name)], f"{m.__name__}.{name}"


def test_declared_per_layer_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = {name: unit for name, (_, unit, _) in layer_metrics([]).items()}
    produced.update({"cli.report_bytes": "B", "trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == produced
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_workload_calls_are_seeded_and_referenced():
    for workload in WORKLOADS.values():
        warm_a, calls_a = workload.calls(7)
        warm_b, calls_b = workload.calls(7)
        assert calls_a == calls_b and warm_a == warm_b
        assert calls_a != workload.calls(8)[1]
        assert len(calls_a) == len({c.cell_id for c in calls_a})
        assert not {c.cell_id for c in warm_a} & {c.cell_id for c in calls_a}
        reference = json.loads((ROOT / "bench" / "reference" / f"{workload.name}.json")
                               .read_text())["cells"]
        assert {c.cell_id for c in workload.pool()} == set(reference)
        assert all(math.isfinite(b) for c in reference.values() for b in c.get("beta", []))


def test_no_pool_cell_fails():
    # every recorded call exits 0 and every sweep row keeps all its realizations
    for workload in WORKLOADS.values():
        reference = json.loads((ROOT / "bench" / "reference" / f"{workload.name}.json")
                               .read_text())["cells"]
        for cell in workload.pool():
            expected = reference[cell.cell_id]
            assert expected["exit"] == 0, cell.cell_id
            realizations = cell.config.get("n_realizations")
            assert all(row[-1] == realizations for row in expected.get("rows", [])), \
                cell.cell_id


def test_compare_verdicts():
    from compare import verdict
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "better"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert verdict(parent, [v * 1.01 for v in parent[::-1]], "lower", 0.1)[0] == "within"
    wide = [50.0, 150.0] * 5
    assert verdict(wide, wide[::-1], "lower", 0.1)[0] == "unresolved"
    assert verdict(wide, [10.0] * 10, "lower", 0.1) == ("better", 10, 10)
