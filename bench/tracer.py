"""Spans around the public functions of offsetbf, installed from outside.

The tracer replaces every public function of the traced modules, in every
offsetbf namespace that holds a reference to it, with a wrapper that records
a span (name, start, end, parent, request). It also wraps the numpy.linalg
kernels solve, inv, eig and eigh: a kernel call is not a span, it is counted,
with its computed dense flops, on the innermost open span. `remove` restores
every original, so code run afterwards in the same process is not traced.
"""

import functools
import inspect
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

KERNELS = ("solve", "inv", "eig", "eigh")
# Real flops per complex flop: one complex multiply-add is four real ones.
COMPLEX_FACTOR = 4


def kernel_flops(kernel: str, a, b=None) -> float:
    """Computed dense flops of one numpy.linalg call (not measured).

    For an n x n operand (times the batch size, times 4 if complex):
      solve: 2/3 n^3 + 2 n^2 m for m right-hand sides (LU plus two triangular solves)
      inv:   2 n^3
      eigh:  9 n^3  (tridiagonal reduction, QR iteration and back-transformation)
      eig:   25 n^3 (Hessenberg reduction, QR iteration and eigenvectors)
    These are the usual Golub-Van Loan operation counts.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    complex_op = np.iscomplexobj(a)
    if kernel == "solve":
        b = np.asarray(b)
        m = b.shape[-1] if b.ndim == a.ndim else 1
        complex_op = complex_op or np.iscomplexobj(b)
        flops = 2.0 / 3.0 * n ** 3 + 2.0 * n ** 2 * m
    elif kernel == "inv":
        flops = 2.0 * n ** 3
    elif kernel == "eigh":
        flops = 9.0 * n ** 3
    elif kernel == "eig":
        flops = 25.0 * n ** 3
    else:
        raise ValueError(f"no flop formula for {kernel!r}")
    return flops * batch * (COMPLEX_FACTOR if complex_op else 1)


@dataclass
class Span:
    name: str
    start: float
    parent: int = None
    request: int = None
    end: float = None
    error: str = None
    kernels: Counter = field(default_factory=Counter)
    flops: float = 0.0
    info: dict = field(default_factory=dict)


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part its children cover."""
    children = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def _max_r_info(args, kwargs, result):
    return {"iterations": result[2].iterations_used}


def _reschedule_info(args, kwargs, result):
    return {"drops": len(result[1].rescheduled)}


def _cap_info(args, kwargs, result):
    return {"capped": result.note.startswith("offset capped")}


def _outage_info(args, kwargs, result):
    n_trials = args[2] if len(args) > 2 else kwargs["n_trials"]
    return {"trials": n_trials}


# What the benchmark reads from a traced function's arguments and result.
INFO = {
    "powerload.max_r_power_load": _max_r_info,
    "powerload.reschedule": _reschedule_info,
    "powerload.power_saving_cap": _cap_info,
    "montecarlo.estimate_outage": _outage_info,
}


class Tracer:
    """Install with `install(modules)`, run the traced work, then `remove()`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else None,
                        self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result
        return wrapper

    def _wrap_kernel(self, fn, kernel):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                span = self.spans[self._stack[-1]]
                span.kernels[kernel] += 1
                span.flops += kernel_flops(kernel, *args[:2])
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules) -> None:
        """Wrap the public functions defined in `modules` and the linalg kernels."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        package = modules[0].__name__.partition(".")[0]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == package or name.startswith(package + ".")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(namespace, attr, entry[1])
        for kernel in KERNELS:
            self._patch(np.linalg, kernel,
                        self._wrap_kernel(getattr(np.linalg, kernel), kernel))

    def _patch(self, namespace, attr, replacement):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def remove(self) -> None:
        """Restore every original function."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


def _per_call(total, calls):
    return total / calls if calls else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit, samples)}.

    samples is the number of spans behind the value. self_s, calls, errors,
    drops, trials and dense_flops are totals over the pass; linalg_calls,
    iterations and attempts_per_call are means per call; useful_ratio and
    capped_ratio are shares of calls.
    """
    own = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def of(name):
        return [spans[i] for i in by_name.get(name, ())]

    def errors(name):
        return sum(1 for s in of(name) if s.error)

    def info(name, key):
        return [s.info[key] for s in of(name) if key in s.info]

    out = {}
    for name in ("directions.solve_nu", "directions.directions_from_nu",
                 "directions.solve_nu_constant_offset",
                 "directions.directions_constant_offset",
                 "powerload.coupling_matrix", "powerload.alg2_power_load",
                 "powerload.max_r_power_load", "powerload.reschedule",
                 "montecarlo.estimate_outage", "montecarlo.sweep",
                 "channel.draw_errors", "channel.generate_scenario",
                 "cli.main", "cli.run_algorithm"):
        picked = [own[i] for i in by_name.get(name, ())]
        out[f"{name}.self_s"] = (sum(picked), "s", len(picked))
    for name in ("directions.solve_nu", "directions.solve_nu_constant_offset",
                 "powerload.coupling_matrix", "powerload.alg2_power_load",
                 "montecarlo.estimate_outage"):
        out[f"{name}.calls"] = (len(of(name)), "count", len(of(name)))
    for name in ("directions.solve_nu", "powerload.alg2_power_load"):
        out[f"{name}.errors"] = (errors(name), "count", len(of(name)))
    for name in ("directions.solve_nu", "directions.directions_from_nu",
                 "directions.solve_nu_constant_offset",
                 "directions.directions_constant_offset"):
        kernels = sum(sum(s.kernels.values()) for s in of(name))
        out[f"{name}.linalg_calls"] = (_per_call(kernels, len(of(name))), "count",
                                       len(of(name)))
    in_directions = [s for s in spans if s.name.startswith("directions.")]
    out["directions.dense_flops"] = (sum(s.flops for s in in_directions), "flop",
                                     len(in_directions))

    alg2 = of("powerload.alg2_power_load")
    # alg2 takes Newton steps, one linalg.solve each
    out["powerload.alg2_power_load.iterations"] = (
        _per_call(sum(s.kernels["solve"] for s in alg2), len(alg2)), "count", len(alg2))
    out["powerload.alg2_power_load.useful_ratio"] = (
        _per_call(sum(1 for s in alg2 if not s.error), len(alg2)), "ratio", len(alg2))
    iterations = info("powerload.max_r_power_load", "iterations")
    out["powerload.max_r_power_load.iterations"] = (
        _per_call(sum(iterations), len(iterations)), "count", len(iterations))

    resched = set(by_name.get("powerload.reschedule", ()))
    attempts = sum(1 for s in of("directions.solve_nu_constant_offset")
                   if s.parent in resched)
    out["powerload.reschedule.attempts_per_call"] = (
        _per_call(attempts, len(resched)), "count", len(resched))
    out["powerload.reschedule.drops"] = (
        sum(info("powerload.reschedule", "drops")), "count", len(resched))
    capped = info("powerload.power_saving_cap", "capped")
    out["powerload.power_saving_cap.capped_ratio"] = (
        _per_call(sum(capped), len(capped)), "ratio", len(capped))
    trials = info("montecarlo.estimate_outage", "trials")
    out["montecarlo.estimate_outage.trials"] = (sum(trials), "count", len(trials))
    in_stats = [own[i] for i, s in enumerate(spans) if s.name.startswith("stats.")]
    out["stats.self_s"] = (sum(in_stats), "s", len(in_stats))
    return out
