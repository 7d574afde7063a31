"""Percentiles, quartiles and the environment record shared by run and compare."""

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int):
    """Highest candidate percentile with at least ten samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND_TAIL:
            return p
    return None


def enough_for_p90(n: int) -> bool:
    return beyond(n, 90.0) >= MIN_BEYOND_TAIL


def p90(values) -> float:
    """The 90th percentile, refused unless ten samples lie beyond it."""
    if not enough_for_p90(len(values)):
        raise ValueError(f"{len(values)} samples leave fewer than "
                         f"{MIN_BEYOND_TAIL} beyond p90")
    return percentile(values, 90.0)


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def process_age() -> float:
    """Seconds since this process started, to the 1/CLK_TCK resolution of the
    start time the kernel keeps (field 22 of /proc/self/stat, on the boot-time clock)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    # imported here: run.py imports this module before it pins the BLAS threads
    import numpy
    import scipy
    return {
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }
