"""Structural guards over the package sources: imports stay at module level,
the modules of offsetbf import each other without cycles, the power loaders
take the noise and variance mode from the coupling only, no power loader
takes a coupling beside a report (a report carries its own), the trial count
and the reports keep the slots of montecarlo.estimate_outage,
powerload.reschedule and powerload.max_r_power_load that the benchmark
tracer reads, the package loads no scipy module, only the lapack
module reaches numpy.linalg's private gufunc module, every gufunc it
exports has a caller, so has every private module-level function, no public
function takes a private parameter, cli imports no numpy and reaches the
design chain through offsetbf.design alone, only the cli tests import cli, and
the package version is read from offsetbf.__version__."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import tomllib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from offsetbf import montecarlo, powerload
from offsetbf.powerload import CouplingMatrix, DesignReport

from helpers import unit_scale_scenario

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "offsetbf"
TESTS_DIR = Path(__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _imported_modules(tree):
    """Names of the offsetbf modules that a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "offsetbf":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "offsetbf" and len(parts) > 1:
                    found.add(parts[1])
    return found & set(MODULES)


def test_no_function_level_imports():
    misplaced = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    misplaced.append(f"{name}.py:{node.lineno} in {func.name}()")
    assert misplaced == []


def test_intra_package_imports_are_acyclic():
    graph = {name: _imported_modules(tree) - {name} for name, tree in MODULES.items()}
    assert graph["cli"] >= {"channel", "design", "powerload"}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_only_coupling_builders_take_noise_or_variance_mode():
    public = inspect.getmembers(powerload, lambda obj: inspect.isfunction(obj)
                                and obj.__module__ == powerload.__name__)
    takers = {name for name, fn in public if not name.startswith("_")
              and {"noise", "variance_mode"} & set(inspect.signature(fn).parameters)}
    assert takers == {"coupling_matrix", "reschedule"}


def test_no_power_loader_takes_a_coupling_beside_a_report():
    public = inspect.getmembers(powerload, lambda obj: inspect.isfunction(obj)
                                and obj.__module__ == powerload.__name__)
    pairs = {name for name, fn in public if not name.startswith("_")
             and {CouplingMatrix, DesignReport} <= {
                 param.annotation for param in inspect.signature(fn).parameters.values()}}
    assert pairs == set()


def test_estimate_outage_trial_count_is_third_parameter():
    # bench/tracer.py reads the trial count of a positional call as args[2]
    params = list(inspect.signature(montecarlo.estimate_outage).parameters)
    assert params[2] == "n_trials"


def test_reschedule_and_max_r_reports_keep_their_slots():
    # bench/tracer.py reads reschedule(...)[1] and max_r_power_load(...)[2]
    scenario = unit_scale_scenario(seed=0)
    rescheduled = powerload.reschedule(scenario, total_power=50.0)
    assert isinstance(rescheduled[1], DesignReport)
    coupling = rescheduled[0]
    assert isinstance(powerload.max_r_power_load(coupling, 50.0)[2], DesignReport)


def test_importing_the_package_loads_no_scipy():
    """offsetbf needs numpy alone: stats takes its Gaussian functions from the
    standard library. With scipy.special, importing offsetbf.cli took about
    twice as long (a median of 474 against 220 ms on a 2-vCPU x86_64 VM) and
    17.6 MB more peak RSS; scipy.linalg, whose zgesv would do alg1's per-user
    solve with the same bits as numpy's gufunc, adds about 55 ms and 7.5 MB
    more. Importing offsetbf.cli loads every module of the package, and with
    them no scipy module."""
    probe = ("import sys, offsetbf.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('offsetbf', 'scipy')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)})
    assert result.stdout.strip() == repr(
        ["offsetbf"] + [f"offsetbf.{name}" for name in sorted(MODULES) if name != "__init__"])


def test_only_the_lapack_module_imports_numpy_private_linalg_gufuncs():
    """lapack.py states once why numpy.linalg._umath_linalg is safe to use; every
    other module reaches the gufuncs through it."""
    importers = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any("_umath_linalg" in part for part in names):
                importers.add(name)
    assert importers == {"lapack"}


def test_every_lapack_gufunc_has_a_caller_in_the_package():
    """offsetbf.lapack re-exports only gufuncs that another module calls as
    lapack.<name>, so a solver that stops using one takes its import along."""
    exported = {alias.name for node in ast.walk(MODULES["lapack"])
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg._umath_linalg"
                for alias in node.names}
    used = {node.attr for name, tree in MODULES.items() if name != "lapack"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lapack"}
    assert exported and exported <= used


def test_every_private_function_has_a_caller_in_the_package():
    """Every module-level `_`-prefixed function is named somewhere in the
    package outside its own body, so a helper whose last caller inlines it
    goes with it."""
    uncalled = []
    for name, tree in MODULES.items():
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or not func.name.startswith("_") \
                    or func.name.startswith("__"):
                continue
            inside = {id(node) for node in ast.walk(func)}
            if not any(func.name in (getattr(node, "id", None), getattr(node, "attr", None))
                       for module in MODULES.values() for node in ast.walk(module)
                       if id(node) not in inside):
                uncalled.append(f"{name}.{func.name}")
    assert uncalled == []


def test_no_public_function_takes_a_private_parameter():
    """A `_`-prefixed keyword is a back door that only some callers know of;
    a value built once belongs in an argument of its own (alg1's dual)."""
    private = []
    for name in sorted(MODULES.keys() - {"__init__"}):
        module = importlib.import_module(f"offsetbf.{name}")
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if attr.startswith("_") or fn.__module__ != module.__name__:
                continue
            private += [f"{name}.{attr}({param})" for param in inspect.signature(fn).parameters
                        if param.startswith("_")]
    assert private == []


def test_cli_imports_no_numpy():
    """cli parses the config, runs the design modules and writes their values;
    array work belongs to those modules, so cli has no numpy import."""
    imported = set()
    for node in ast.walk(MODULES["cli"]):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported and "numpy" not in imported


def test_cli_reaches_the_design_chain_through_design_alone():
    """design.designer is the one place that pairs an id with its directions
    and loading, so cli imports neither the direction solvers nor the LAPACK
    gufuncs beneath them."""
    assert not _imported_modules(MODULES["cli"]) & {"directions", "lapack"}


def test_only_the_cli_tests_import_cli():
    """The other tests design through offsetbf.design, with explicit options,
    and build their cells with generate_scenario."""
    importers = {path.name for path in TESTS_DIR.glob("*.py")
                 if "cli" in _imported_modules(ast.parse(path.read_text()))}
    assert importers == {"test_cli.py"}


def test_package_version_is_read_from_the_package():
    """pyproject.toml declares the version dynamic, read from
    offsetbf.__version__, so that the two cannot disagree."""
    pyproject = tomllib.loads((PACKAGE_DIR.parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "offsetbf.__version__"}
