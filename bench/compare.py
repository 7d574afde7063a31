"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `run.py --record FILE` appended. Make the
runs in alternating order (parent, change, parent, ...), with the same seeds
on both sides; the i-th run of a workload on one side is paired
with the i-th run of that workload on the other.

For every workload and end-to-end metric the table gives each side's median
and quartiles, the pairs the change won (ties count for neither side) and a
verdict:
  better      the change won at least 9 in 10 pairs and the medians differ by
              more than the parent's own quartile distance;
  unresolved  the parent's quartile distance exceeds the metric's bound, and
              not every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than the
              bound;
  within      none of the above: no regression beyond the bound.
Bounds come from BENCHMARK.json. failed_ratio needs no verdict: every run
checks each call's exit code and each sweep row's n_viable against the
recorded reference, so a change that fails more operations fails the check.
Traced records get a second table of per-layer medians and their ratio.
"""

import json
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def verdict(parent, change, better: str, bound: float) -> tuple:
    """(label, pairs won by the change, pairs) for one metric's run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, med, q3 = measure.quartiles(parent)
    _, change_med, _ = measure.quartiles(change)
    gain = sign * (change_med - med)
    scale = abs(med) if med else 1.0
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        label = "better"
    elif (q3 - q1) / scale > bound:
        all_better = all(sign * (c - p) > 0 for p in parent for c in change)
        label = "better" if all_better else "unresolved"
    elif -gain > bound * scale:
        label = "worse"
    else:
        label = "within"
    return label, wins, len(pairs)


def end_to_end_specs() -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def _fmt(values) -> str:
    q1, med, q3 = measure.quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_path, change_path, out=sys.stdout) -> dict:
    parent, change = load(parent_path), load(change_path)
    verdicts = {}
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        if [r["seed"] for r in p_runs] != [r["seed"] for r in c_runs]:
            print(f"warning: {workload}: the two sides ran different seeds", file=out)
        print(f"\n{workload} (trace={trace}): {len(p_runs)} parent runs, "
              f"{len(c_runs)} change runs", file=out)
        if trace:
            names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
            print(f"  {'metric':48s} {'parent median':>13s} {'change median':>13s}  ratio",
                  file=out)
            for name in names:
                p_med = measure.quartiles([r["metrics"][name]["value"] for r in p_runs])[1]
                c_med = measure.quartiles([r["metrics"][name]["value"] for r in c_runs])[1]
                ratio = f"{c_med / p_med:.3f}" if p_med else "-"
                print(f"  {name:48s} {p_med:13.5g} {c_med:13.5g}  {ratio}", file=out)
            continue
        print(f"  {'metric':16s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s}  won  verdict", file=out)
        for name, better, bound in end_to_end_specs():
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            label, wins, pairs = verdict(p_vals, c_vals, better, bound)
            verdicts[(workload, name)] = label
            print(f"  {name:16s} {_fmt(p_vals):>36s} {_fmt(c_vals):>36s} "
                  f"{wins:2d}/{pairs:<2d} {label}", file=out)
    return verdicts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    compare(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
