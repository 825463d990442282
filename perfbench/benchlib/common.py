"""Shared pieces of the benchmark: paths, seeds, digests, statistics,
provenance, set-up timing and the metric record every workload fills.

The benchmark drives the simulator only through its public entry
points; ``src/`` is put on ``sys.path`` by ``run.py`` and never edited.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

#: repository (or checkout) root: perfbench/benchlib/common.py -> ../../..
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: working space for farm stores, journals and span spools; removed
#: when a run ends
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "expected.json")

#: the seed the expected digests are pinned for
DEFAULT_SEED = 12345
#: a seed never used while tuning anything: held out for checking a
#: later performance claim on inputs it was not developed against
HELDOUT_SEED = 271828

#: worker processes for the sweeps: two, or fewer on a smaller host
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Short content hash of a JSON-able value."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:20]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def trimmed_mean(values: List[float]) -> float:
    """Mean without the lowest and highest value (of five or more)."""
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, plus the largest reaped child
    when *include_children* (forked workers report their own peak)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def clean_environment() -> None:
    """Drop every ``REPRO_*`` setting (sanitizer, budgets, kernel, job
    counts, farm db...) so the benchmark always measures the defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


class ImportClock:
    """Seconds a fresh interpreter spends importing ``repro`` and
    loading the workload registry (interpreter start-up excluded).

    Workloads take one sample between timed sections all through a run
    and report the median, so a slow stretch of the host moves it less.
    """

    PROBE = (
        "import sys, time\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "t0 = time.perf_counter()\n"
        "import repro\n"
        "from repro.workloads.base import load_all_workloads\n"
        "load_all_workloads()\n"
        "print(time.perf_counter() - t0)\n"
    )

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE], capture_output=True,
            text=True, timeout=120, env=env, cwd=ROOT, check=True)
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def median(self) -> float:
        if not self.samples:
            self.sample()
        return median(self.samples)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _loadavg() -> List[float]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def _git_rev() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def source_hash() -> str:
    """Content hash of every ``src/**/*.py`` file: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Provenance:
    """Where and how a result was measured.  Compare only results whose
    ``host`` matches and which were made back to back."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "git_rev": _git_rev(),
            "source_hash": source_hash(),
            "python": platform.python_version(),
            "host": platform.node(),
            "nproc": len(os.sched_getaffinity(0)),
            "workers": WORKERS,
            "loadavg_start": _loadavg(),
            "started": time.time(),
        }

    def finish(self) -> dict:
        self.record["loadavg_end"] = _loadavg()
        self.record["elapsed_s"] = time.time() - self.record["started"]
        return self.record


class Result:
    """Metrics, attempted/failed job counts and failure notes of one run."""

    def __init__(self):
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: human-readable lines printed before the result line
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fail(self, what: str, jobs: int = 1) -> None:
        """Count *jobs* failed jobs, noting why."""
        self.failed += jobs
        self.failures.append(what)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def ok_frac(self) -> float:
        return 1.0 - min(self.failed, self.attempted) / max(1, self.attempted)
