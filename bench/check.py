"""Output checks for every benchmark call.

A call's outputs are checked against invariants of the model (offset
equalities, predicted outage, budget) and summarised; the summary is then
compared with the reference recorded for the same cell. The formulas here are
written from the model, independently of the package, so they can catch a
change that breaks the package's own bookkeeping.
"""

import csv
import io
import math

from scipy.special import ndtri

REL_TOL = 1e-6
SWEEP_COLUMNS = ("algorithm", "r", "mean_power_W", "mean_outage",
                 "stderr_outage", "n_viable")
MAXR_FAMILY = ("maxr", "maxr_reschedule", "maxr_powersave", "avg_outage")


def close(a, b, rel=REL_TOL, floor=0.0) -> bool:
    """|a - b| within rel of the larger magnitude (or within floor); NaN equals NaN."""
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def q_tail(x: float) -> float:
    """Standard normal tail Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def check_design_report(doc: dict, config: dict) -> tuple:
    """Check a design/maxr JSON report; returns (summary, problems)."""
    problems = []
    algorithm = config["algorithm"]
    n_users = config["generate"]["n_users"]
    if doc.get("algorithm") != algorithm:
        problems.append(f"algorithm {doc.get('algorithm')!r} != {algorithm!r}")
    report = doc["report"]
    users = sorted(report["users"], key=lambda u: u["index"])
    if [u["index"] for u in users] != list(range(n_users)):
        problems.append(f"user indices {[u['index'] for u in users]}")
    served = [u for u in users if not u["dropped"]]
    if not served:
        problems.append("no user served")
    for u in users:
        if u["dropped"] and (u["beta"] != 0.0 or u["predicted_outage"] != 1.0):
            problems.append(f"dropped user {u['index']} has power or outage < 1")
        if u["beta"] < 0:
            problems.append(f"user {u['index']} has negative power {u['beta']}")

    for u in served:
        mu, sigma, r = u["mu_f"], u["sigma_f"], u["r"]
        if sigma < 0:
            problems.append(f"user {u['index']} sigma_f {sigma} < 0")
            continue
        expected = (0.0 if mu >= 0 else 1.0) if sigma == 0 else q_tail(mu / sigma)
        if not close(u["predicted_outage"], expected, floor=1e-15):
            problems.append(f"user {u['index']} predicted_outage "
                            f"{u['predicted_outage']} != Q(mu/sigma) = {expected}")
        if algorithm != "avg_outage" and not close(mu, r * sigma):
            problems.append(f"user {u['index']} mu_f {mu} != r sigma_f {r * sigma}")

    total = sum(u["beta"] for u in users)
    if not close(total, report["total_power"]):
        problems.append(f"sum of beta {total} != total_power {report['total_power']}")
    if algorithm in MAXR_FAMILY:
        budget = config["total_power"]
        offsets = [u["r"] for u in served]
        if algorithm != "avg_outage" and offsets and not all(
                close(r, offsets[0]) for r in offsets):
            problems.append(f"served users have different offsets {offsets}")
        if total > budget * (1.0 + REL_TOL):
            problems.append(f"total power {total} exceeds the budget {budget}")
        capped = report["note"].startswith("offset capped")
        if capped:
            if not all(close(r, config["r_cap"]) for r in offsets):
                problems.append(f"capped design has offsets {offsets} != {config['r_cap']}")
        elif not close(total, budget):
            problems.append(f"max-r design spends {total}, not the budget {budget}")
    else:
        r_expected = float(ndtri(1.0 - config["delta"]))
        for u in served:
            if not close(u["r"], r_expected):
                problems.append(f"user {u['index']} r {u['r']} != {r_expected}")
    return {"beta": [u["beta"] for u in users]}, problems


def check_sweep_csv(text: str, config: dict) -> tuple:
    """Check a sweep CSV; returns (summary, failed cells, problems).

    A (realization, r) cell fails when some algorithm was not viable on that
    realization at that r, i.e. it is missing from n_viable.
    """
    problems = []
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != SWEEP_COLUMNS:
        return {"rows": []}, 0, [f"sweep columns {header} != {SWEEP_COLUMNS}"]
    realizations = config["n_realizations"]
    algorithms, grid = config["algorithms"], config["r_grid"]
    rows = []
    for raw in reader:
        rows.append([raw[0], *map(float, raw[1:5]), int(raw[5])])
    expected = [(a, float(r)) for r in grid for a in algorithms]
    if [(row[0], row[1]) for row in rows] != expected:
        problems.append(f"sweep rows {[(row[0], row[1]) for row in rows]} != {expected}")

    viable_at = {}
    for name, r, power, outage, stderr, n_viable in rows:
        if not 0 <= n_viable <= realizations:
            problems.append(f"{name} r={r}: n_viable {n_viable} not in [0, {realizations}]")
        if viable_at.setdefault(r, n_viable) != n_viable:
            problems.append(f"r={r}: algorithms disagree on n_viable")
        if n_viable == 0:
            if not all(math.isnan(v) for v in (power, outage, stderr)):
                problems.append(f"{name} r={r}: no viable realization but finite means")
        elif not (0.0 <= outage <= 1.0 and stderr >= 0.0 and 0.0 < power < math.inf):
            problems.append(f"{name} r={r}: outage {outage}, stderr {stderr}, power {power}")
    failed = sum(realizations - n for n in viable_at.values())
    return {"rows": rows}, failed, problems


def compare_to_reference(observed: dict, reference: dict) -> list:
    """Compare a call's exit code and summary with the recorded reference."""
    if observed["exit"] != reference["exit"]:
        return [f"exit code {observed['exit']} != reference {reference['exit']}"]
    problems = []
    if "beta" in reference:
        got, want = observed["beta"], reference["beta"]
        if len(got) != len(want) or not all(close(a, b) for a, b in zip(got, want)):
            problems.append(f"beta {got} != reference {want}")
    if "rows" in reference:
        got, want = observed["rows"], reference["rows"]
        same = len(got) == len(want) and all(
            g[0] == w[0] and g[5] == w[5]
            and all(close(a, b) for a, b in zip(g[1:5], w[1:5]))
            for g, w in zip(got, want))
        if not same:
            problems.append(f"sweep rows {got} != reference {want}")
    return problems


def to_json_summary(summary: dict) -> dict:
    """Summary in JSON-safe form: NaN becomes None, floats keep 12 digits."""
    def clean(v):
        if isinstance(v, float):
            return None if math.isnan(v) else float(f"{v:.12g}")
        if isinstance(v, list):
            return [clean(x) for x in v]
        return v
    return {key: clean(value) for key, value in summary.items()}


def from_json_summary(summary: dict) -> dict:
    """Inverse of to_json_summary for sweep rows (None back to NaN)."""
    out = dict(summary)
    if "rows" in out:
        out["rows"] = [[math.nan if v is None else v for v in row] for row in out["rows"]]
    return out
