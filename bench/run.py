"""offsetbf benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N [--trace 0|1] [--record FILE]
    python3 bench/run.py --all --seed N [--record FILE]
    python3 bench/run.py --record-reference [--workload NAME]
    python3 bench/run.py --workload NAME --seed N --setup-only

One client calls `offsetbf.cli.main` in-process and starts each call only
after the previous one returned. A run repeats whole passes over the call
list of its seed for run_seconds of BENCHMARK.json, which --seconds may only
restate; every output is checked against model invariants and the recorded
reference before it counts. With --trace 0 the run reports the end-to-end
metrics (set-up time, latency, throughput, memory); with
--trace 1 it makes one untraced and one traced pass and reports the
per-layer metrics.
The last line of stdout is the result JSON; the line before it is the full
record (environment, sample counts), which --record also appends to FILE.
See bench/README.md.
"""

import os

import measure

# One BLAS/OpenMP thread in this process and its children, set before numpy loads.
for _name in measure.THREAD_VARIABLES:
    os.environ[_name] = "1"
# One core for this process and its children: unpinned, the scheduler moves the
# process between cores, and the refilled caches and wake-up delays made single
# calls up to three times slower at random.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
CHILD_TIMEOUT_S = 170
# Set-ups per untraced run that setup_s is the median of: this process's own
# and those of fresh processes started after the timed calls.
SETUP_SAMPLES = 5


def workdir() -> Path:
    """Scratch directory of this process, relative to the checkout root (the
    working directory), so report contents do not depend on where the checkout is."""
    return Path("bench", ".work", f"{os.getpid():07d}")


class CheckError(Exception):
    """An output failed its check; the run reports correct = false."""


class PackageMissing(Exception):
    """The offsetbf sources are not in the checkout."""


def load_cli():
    """Import offsetbf from the checkout's src/, never from elsewhere."""
    if not (SRC / "offsetbf" / "__init__.py").is_file():
        raise PackageMissing(f"no offsetbf package under {SRC}")
    sys.path.insert(0, str(SRC))
    from offsetbf import cli
    if Path(cli.__file__).resolve().parent != SRC / "offsetbf":
        raise PackageMissing(f"offsetbf imported from {cli.__file__}, not {SRC}")
    return cli


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        raise CheckError(f"no reference outputs at {path}; run --record-reference")
    with open(path) as fh:
        return json.load(fh)["cells"]


class Session:
    """Set-up of one workload: package import, generated configs, warm-up."""

    def __init__(self, workload, seed: int, work: Path, reference=None):
        self.cli = load_cli()
        self.workload = workload
        self.work = work
        self.reference = reference
        work.mkdir(parents=True, exist_ok=True)
        self.warmup, self.calls = workload.calls(seed)
        self.config_paths = {}
        for cell in self.warmup + self.calls:
            self.write_config(cell)
        for i, cell in enumerate(self.warmup):
            self.call(cell, f"warm-up call {i}")

    def write_config(self, cell) -> None:
        path = self.work / f"cell{len(self.config_paths)}.json"
        with open(path, "w") as fh:
            json.dump(cell.config, fh)
        self.config_paths[cell.cell_id] = str(path)

    def call(self, cell, label: str) -> dict:
        """One checked CLI call: {seconds, ops, failed, report_bytes, observed}."""
        out = self.work / ("sweep.csv" if cell.command == "sweep" else "report.json")
        outputs = [out] if cell.command == "sweep" else [out, out.with_suffix(".csv")]
        for path in outputs:
            path.unlink(missing_ok=True)
        argv = [cell.command, "--config", self.config_paths[cell.cell_id],
                "--out", str(out)]
        where = f"workload {self.workload.name}, {label} ({cell.cell_id})"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:
                raise CheckError(f"{where}: cli.main raised {exc!r}") from exc
            seconds = time.perf_counter() - start
        if code not in (0, 2):
            raise CheckError(f"{where}: exit code {code}: {stderr.getvalue().strip()}")

        problems, summary, failed, report_bytes = [], {}, 0, 0
        if code == 2:
            failed = cell.ops
            if stdout.getvalue() or any(p.exists() for p in outputs):
                problems.append("a failed call printed a path or wrote a report")
        else:
            if stdout.getvalue() != f"{out}\n":
                problems.append(f"stdout {stdout.getvalue()!r} is not the output path")
            report_bytes = sum(p.stat().st_size for p in outputs)
            text = out.read_text()
            if cell.command == "sweep":
                summary, failed, found = check.check_sweep_csv(text, cell.config)
            else:
                summary, found = check.check_design_report(json.loads(text), cell.config)
            problems += found
        observed = {"exit": code, **summary}
        if self.reference is not None:
            expected = self.reference.get(cell.cell_id)
            if expected is None:
                problems.append("no reference recorded for this cell")
            else:
                problems += check.compare_to_reference(
                    observed, check.from_json_summary(expected))
        if problems:
            raise CheckError(f"{where}: " + "; ".join(problems))
        return {"seconds": seconds, "ops": cell.ops, "failed": failed,
                "report_bytes": report_bytes, "observed": observed}

    def run_pass(self, tracer=None) -> list:
        results = []
        for i, cell in enumerate(self.calls):
            if tracer is not None:
                tracer.request = i
            results.append(self.call(cell, f"call {i}"))
        return results


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def setup_samples(own: float, workload: str, seed: int) -> list:
    """own plus the set-up times of SETUP_SAMPLES - 1 fresh --setup-only processes,
    started one after the other."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = [own]
    while len(samples) < SETUP_SAMPLES:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise CheckError(f"set-up process exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def untraced_run(session, seed: int, seconds: float) -> tuple:
    own_setup = measure.process_age()
    results, pass_rates = [], []
    start = time.perf_counter()
    # Whole passes only, so failed_ratio is exact; one more pass while it should
    # end nearer to `seconds` than stopping now would, and until p90 has its samples.
    elapsed = 0.0
    while (not pass_rates or elapsed + elapsed / len(pass_rates) / 2 < seconds
           or not measure.enough_for_p90(len(results))):
        pass_results = session.run_pass()
        results += pass_results
        pass_rates.append(sum(r["ops"] for r in pass_results)
                          / sum(r["seconds"] for r in pass_results))
        elapsed = time.perf_counter() - start
    latencies = [r["seconds"] for r in results]
    ops = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    n = len(latencies)
    setups = setup_samples(own_setup, session.workload.name, seed)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms", n),
        "latency_p90_ms": metric(measure.p90(latencies) * 1e3, "ms", n),
        # median over passes, each with the same mix: one slow pass does not set it
        "ops_per_s": metric(statistics.median(pass_rates), "1/s", len(pass_rates)),
        "failed_ratio": metric(failed / ops, "ratio", ops),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    tail = measure.tail_percentile(n)
    extra = {"passes": len(pass_rates), "calls": n, "setup_samples_s": setups,
             "latency_tail": {"percentile": tail, "samples": n,
                              "ms": measure.percentile(latencies, tail) * 1e3}}
    return metrics, ops, failed, extra


def traced_run(session) -> tuple:
    from offsetbf import channel, cli, directions, montecarlo, powerload, stats
    untraced = session.run_pass()
    original_main = cli.main
    tracer = Tracer()
    tracer.install([channel, stats, directions, powerload, montecarlo, cli])
    try:
        traced = session.run_pass(tracer)
    finally:
        tracer.remove()
    if cli.main is not original_main:
        raise CheckError("tracer wrappers were not removed")
    ops = sum(r["ops"] for r in traced)
    failed = sum(r["failed"] for r in traced)
    metrics = {name: metric(*value) for name, value in layer_metrics(tracer.spans).items()}
    metrics["cli.report_bytes"] = metric(
        sum(r["report_bytes"] for r in traced), "B", len(traced))
    wall_untraced = sum(r["seconds"] for r in untraced)
    wall_traced = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_ratio"] = metric(
        wall_traced / wall_untraced - 1.0, "ratio", len(traced))
    return metrics, ops, failed, {"passes": 1, "calls": len(traced),
                                  "spans": len(tracer.spans)}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> list:
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def print_table(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} calls={record['calls']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    load_cli()
    work = workdir()
    try:
        session = Session(workload, args.seed, work, load_reference(workload.name))
        if args.trace:
            metrics, ops, failed, extra = traced_run(session)
        else:
            metrics, ops, failed, extra = untraced_run(session, args.seed, args.seconds)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": True, "attempted": ops, "failed": failed,
              **extra, "metrics": metrics,
              "environment": measure.environment(ROOT),
              "time": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print_table(record)
    print(json.dumps(record))
    print(json.dumps({
        "correct": True, "attempted": ops, "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in declared_metrics(args.trace)}}))
    return 0


def setup_only(args) -> int:
    """Set a workload up as a run does, then print this process's set-up time."""
    work = workdir()
    try:
        workload = WORKLOADS[args.workload]
        Session(workload, args.seed, work, load_reference(workload.name))
        setup = measure.process_age()
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(setup)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced; prints every metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--trace", "0"]
        if args.record:
            argv += ["--record", args.record]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr.strip()}")
            status = 1
            continue
        print_table(json.loads(lines[-2]))
    return status


def record_reference(args) -> int:
    """Record the outputs of every pool cell at the current commit."""
    REFERENCE.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = workdir()
    try:
        for name in names:
            workload = WORKLOADS[name]
            session = Session(workload, 0, work)
            cells = {}
            for cell in workload.pool():
                session.write_config(cell)
                result = session.call(cell, "reference")
                cells[cell.cell_id] = check.to_json_summary(result["observed"])
            with open(REFERENCE / f"{name}.json", "w") as fh:
                json.dump({"workload": name, "cells": cells}, fh, indent=0)
                fh.write("\n")
            failed = sum(1 for c in cells.values() if c["exit"] != 0)
            print(f"{name}: {len(cells)} cells recorded, {failed} exit 2")
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, which fixes the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this JSONL file")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, each in a fresh process")
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference outputs for every pool cell")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the set-up time in seconds and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record:
        args.record = os.path.abspath(args.record)
    os.chdir(ROOT)
    run_seconds = benchmark_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds must equal run_seconds = {run_seconds} of BENCHMARK.json")
    args.seconds = float(run_seconds)
    try:
        if args.record_reference:
            return record_reference(args)
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            return setup_only(args)
        return run_workload(args)
    except PackageMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
