"""The ``sweep_local`` and ``farm_campaign`` workloads: one grid of many
tiny matrix jobs, run through ``eval.runner.run_matrix`` (a fork process
pool per call, one call per grid seed) or as one farm campaign
(``farm.campaign.run_campaign`` on a fresh SQLite store) that is then
resubmitted unchanged and served from the result cache.

Per-job overhead dominates: pool start-up, fork, pickling, SQLite
claim/complete writes and the ``run_summary`` cycle attribution.  The
simulator layers do little.  The grid is identical in both workloads,
so they differ only in the durable-execution path.

Every row must equal the in-process reference row of its job (and, at
the default seed, the pinned digest); cached rows must equal fresh ones.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import tempfile
import time
from time import perf_counter
from typing import Dict, List, Tuple

from benchlib import common, fig89, tracing

#: apps whose size follows ``scale`` (matmul's does not), so every job
#: is a few milliseconds of simulation
APPS = ("fib", "cilksort", "Counter", "Tree")
GROUP = {"fib": "cilk", "cilksort": "cilk", "Counter": "ustm",
         "Tree": "ustm"}
DESIGNS = ("S_PLUS", "WS_PLUS", "SW_PLUS", "W_PLUS", "WEE")
CORES = 2
SCALE = 0.02
#: grid seeds per round: jobs = len(APPS) * len(DESIGNS) * N_SEEDS
N_SEEDS = 10
#: rounds measured at least, however short the run
MIN_ROUNDS = 3
#: farm set-ups timed for ``setup_s``
SETUP_TRIALS = 5
#: cached resubmissions timed per round (each takes milliseconds)
CACHED_REPEATS = 5
#: code revision baked into farm content keys (each store is fresh)
FARM_REV = "perfbench"
#: a campaign still unfinished after this long has failed: a job that
#: keeps failing is retried forever when there are fewer workers than
#: the quarantine threshold of distinct failing workers
CAMPAIGN_TIMEOUT_S = 60.0


def grid_seeds(seed: int) -> List[int]:
    return [seed + i for i in range(N_SEEDS)]


def grid_size() -> int:
    return len(APPS) * len(DESIGNS) * N_SEEDS


def row_key(row: dict) -> str:
    return f"{row['name']}:{row['design']}:{row['seed']}"


def _plain(summary) -> dict:
    """A runner row as the farm stores it (JSON round trip)."""
    return json.loads(common.canonical(dataclasses.asdict(summary)))


def reference(seed: int) -> Tuple[Dict[str, dict], Dict[str, int]]:
    """Every grid job run in-process through ``run_summary``: the rows
    the pool and farm must reproduce, and each job's event count."""
    from repro.eval.runner import run_summary
    from repro.sim.machine import Machine

    executed: List[int] = []
    run = Machine.run

    def counted_run(machine, *args, **kwargs):
        out = run(machine, *args, **kwargs)
        executed.append(machine.queue.executed)
        return out

    rows: Dict[str, dict] = {}
    events: Dict[str, int] = {}
    Machine.run = counted_run
    try:
        for s in grid_seeds(seed):
            for app in APPS:
                for design in DESIGNS:
                    executed.clear()
                    row = _plain(run_summary(app, design, CORES, SCALE, s))
                    rows[row_key(row)] = row
                    events[row_key(row)] = sum(executed)
    finally:
        Machine.run = run
    return rows, events


def expected_digests(seed: int) -> Dict[str, str]:
    if seed != common.DEFAULT_SEED:
        return {}
    return common.load_expected()["sweep"]


def check_rows(rows: Dict[str, dict], ref: Dict[str, dict], what: str,
               result: common.Result) -> None:
    result.attempt(len(ref))
    missing = sorted(set(ref) - set(rows))
    if missing:
        result.fail(f"{what}: {len(missing)} rows missing, e.g. {missing[0]}",
                    jobs=len(missing))
    bad = [k for k in ref if k in rows and rows[k] != ref[k]]
    if bad:
        result.fail(f"{what}: {len(bad)} rows differ from the in-process "
                    f"reference, e.g. {bad[0]}", jobs=len(bad))
    degraded = [k for k, r in rows.items() if r.get("degraded")]
    if degraded:
        result.fail(f"{what}: {len(degraded)} degraded rows", jobs=len(degraded))


def timed_round(fn, ref: Dict[str, dict], what: str,
                result: common.Result):
    """``(rows, seconds)`` of one sweep, its rows checked; rows is None
    when the sweep raised (every job of it then counts as failed)."""
    t0 = perf_counter()
    try:
        rows = fn()
    except Exception as exc:  # a broken sweep is counted, not fatal
        result.attempt(len(ref))
        result.fail(f"{what}: {type(exc).__name__}: {exc}", jobs=len(ref))
        return None, perf_counter() - t0
    seconds = perf_counter() - t0
    check_rows(rows, ref, what, result)
    return rows, seconds


# ----------------------------------------------------------------------
# the two execution paths
# ----------------------------------------------------------------------

class LocalPath:
    """``run_matrix`` once per grid seed; the cached path resumes each
    call from its complete JSONL journal (zero simulations)."""

    def __init__(self, seed: int, workdir: str):
        self.seeds = grid_seeds(seed)
        self.workdir = workdir

    def _journal(self, s: int) -> str:
        return os.path.join(self.workdir, f"journal-{s}.jsonl")

    def _sweep(self, journal: bool, resume: bool) -> Dict[str, dict]:
        from repro.common.params import FenceDesign
        from repro.eval.runner import run_matrix

        designs = [FenceDesign[d] for d in DESIGNS]
        rows: Dict[str, dict] = {}
        for s in self.seeds:
            out = run_matrix(
                list(APPS), designs, num_cores=CORES, scale=SCALE, seed=s,
                jobs=common.WORKERS,
                journal=self._journal(s) if journal else None, resume=resume)
            for summary in out.values():
                row = _plain(summary)
                rows[row_key(row)] = row
        return rows

    def prepare(self) -> Dict[str, dict]:
        """Warm-up sweep that also writes the resume journals."""
        return self._sweep(journal=True, resume=False)

    def fresh(self) -> Dict[str, dict]:
        return self._sweep(journal=False, resume=False)

    def cached(self) -> Dict[str, dict]:
        return self._sweep(journal=True, resume=True)

    def setup_s(self) -> float:
        """No set-up beyond the import: ``run_matrix`` starts its pool
        inside the timed sweep."""
        return 0.0


class FarmPath:
    """The grid as one campaign on a fresh store; the cached path
    resubmits the identical campaign to the same store."""

    def __init__(self, seed: int, workdir: str):
        from repro.farm.spec import CampaignSpec

        self.spec = CampaignSpec.make(
            "matrix", APPS, DESIGNS, grid_seeds(seed), core_counts=(CORES,),
            scale=SCALE, rev=FARM_REV)
        self.workdir = workdir
        self.serial = 0
        self.db = None
        #: wall time of the last fresh campaign's return
        self.returned_at = 0.0

    def _new_db(self) -> str:
        self.serial += 1
        return os.path.join(self.workdir, f"farm-{self.serial}.sqlite")

    def _campaign(self) -> Dict[str, dict]:
        from repro.farm.campaign import run_campaign

        rows = run_campaign(self.db, self.spec, workers=common.WORKERS,
                            timeout=CAMPAIGN_TIMEOUT_S)
        return {row_key(r): r for r in rows.values()}

    def prepare(self) -> Dict[str, dict]:
        return self.fresh()

    def fresh(self) -> Dict[str, dict]:
        self.db = self._new_db()
        rows = self._campaign()
        self.returned_at = time.time()
        return rows

    def cached(self) -> Dict[str, dict]:
        return self._campaign()

    def status(self) -> dict:
        """Store facts about the last campaign (read after timing)."""
        from repro.farm.store import FarmStore

        with FarmStore(self.db) as store:
            status = store.status(self.spec.campaign_id())
        conn = sqlite3.connect(self.db)
        try:
            last, = conn.execute(
                "SELECT MAX(created_at) FROM results").fetchone()
        finally:
            conn.close()
        status["last_result_at"] = last
        return status

    def setup_s(self) -> float:
        """Median time to create a store, submit the campaign and start
        the worker pool (the pool is stopped again untimed)."""
        from repro.farm.campaign import submit
        from repro.farm.pool import WorkerPool

        times = []
        for _ in range(SETUP_TRIALS):
            db = self._new_db()
            t0 = perf_counter()
            cid, _counts = submit(db, self.spec)
            pool = WorkerPool(db, cid, common.WORKERS)
            pool.start()
            times.append(perf_counter() - t0)
            pool.stop()
        return common.median(times)


PATHS = {"sweep_local": LocalPath, "farm_campaign": FarmPath}


def _workdir(workload: str) -> str:
    os.makedirs(common.WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload}-", dir=common.WORK)


def _check_farm(path, result: common.Result) -> None:
    status = path.status()
    if status.get("quarantined"):
        result.fail(f"farm: {status['quarantined']} jobs quarantined",
                    jobs=status["quarantined"])


def _reference(seed: int, result: common.Result):
    ref, events = reference(seed)
    result.attempt(len(ref))
    want = expected_digests(seed)
    bad = [k for k in want if common.digest(ref.get(k)) != want[k]]
    if bad:
        result.fail(f"reference: {len(bad)} rows differ from the pinned "
                    f"digests, e.g. {bad[0]}", jobs=len(bad))
    return ref, events


def model_ratios(ref: Dict[str, dict]) -> Tuple[float, float]:
    """fig89's two headline ratios over the grid's rows (see
    :func:`benchlib.fig89.pooled_ratios`)."""
    return fig89.pooled_ratios(
        (GROUP[r["name"]], r["design"], r["cycles"],
         r["stats"]["txn_commits"]) for r in ref.values())


def measure(workload: str, seed: int, seconds: float,
            result: common.Result) -> None:
    """The timed run: fresh and cached rounds alternate until the time
    is up (at least :data:`MIN_ROUNDS` of each)."""
    workdir = _workdir(workload)
    ref, events = _reference(seed, result)
    path = PATHS[workload](seed, workdir)
    setup_extra = path.setup_s()
    if timed_round(path.prepare, ref, f"{workload} warm-up", result)[0] \
            is None:
        raise RuntimeError(f"{workload}: the warm-up sweep failed")

    fresh_s: List[float] = []
    cached_s: List[float] = []
    clock = common.ImportClock()
    while len(fresh_s) < MIN_ROUNDS or \
            sum(fresh_s) + sum(cached_s) < seconds:
        clock.sample()
        rows, dt = timed_round(path.fresh, ref, f"{workload} fresh", result)
        if rows is None:
            break
        fresh_s.append(dt)
        if workload == "farm_campaign":
            _check_farm(path, result)
        for _ in range(CACHED_REPEATS):
            rows, dt = timed_round(path.cached, ref, f"{workload} cached",
                                   result)
            if rows is None:
                break
            cached_s.append(dt)
        if rows is None:
            break
    if not (fresh_s and cached_s):
        raise RuntimeError(f"{workload}: no sweep completed")

    jobs = grid_size()
    # a farm round's wall steps by the coordinator's 0.25 s poll: a
    # trimmed mean turns the mix of step counts into a smooth figure
    wall = common.trimmed_mean(fresh_s)
    result.put("wall_s", wall, "s")
    result.put("events_per_s", sum(events.values()) / wall, "1/s")
    for group in ("cilk", "ustm"):
        part = sum(n for k, n in events.items()
                   if GROUP[k.split(":")[0]] == group)
        result.put(f"events_per_s.{group}", part / wall, "1/s")
    result.put("jobs_per_s", jobs / wall, "1/s")
    # a cached pass takes 20-80 ms, short enough that the fastest one
    # misses the host's slow stretches, which moved the median by ~20%
    result.put("cached_jobs_per_s", jobs / min(cached_s), "1/s")
    result.put("setup_s", clock.median() + setup_extra, "s")
    result.put("peak_rss_mb", common.peak_rss_mb(True), "MB")
    time_ratio, tput_gain = model_ratios(ref)
    result.notes.append(
        f"{workload}: WS+/S+ time {time_ratio:.3f}, WS+/S+ throughput "
        f"{tput_gain:.3f} over the grid")
    result.notes.append(
        f"{workload}: {len(fresh_s)} rounds of {jobs} jobs "
        f"({common.WORKERS} workers); fresh "
        f"{min(fresh_s):.3f}-{max(fresh_s):.3f} s, cached "
        f"{min(cached_s):.4f}-{max(cached_s):.4f} s")


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def measure_traced(workload: str, seed: int, seconds: float,
                   result: common.Result) -> None:
    """Each iteration runs an untraced sweep, a lightly traced fresh and
    cached sweep (runner, farm and whole ``Machine.run`` spans: the
    runner and farm figures) and a fully traced fresh sweep (every
    simulator layer too: the layer figures).  Every sweep's rows must
    equal the reference.  Figures are per round, times per job or per
    call where named so."""
    workdir = _workdir(workload)
    ref, events = _reference(seed, result)
    path = PATHS[workload](seed, workdir)
    if timed_round(path.prepare, ref, f"{workload} warm-up", result)[0] \
            is None:
        raise RuntimeError(f"{workload}: the warm-up sweep failed")

    light = _spooled_tracer(workdir, "light")
    full = _spooled_tracer(workdir, "full")
    walls = {"untraced": 0.0, "light": 0.0, "full": 0.0}
    rounds = 0
    farm = {"idle": [], "attempts": [], "quarantined": 0, "cache_hits": 0}
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        rows, dt = timed_round(path.fresh, ref, f"{workload} untraced",
                               result)
        if rows is None:
            break
        walls["untraced"] += dt
        wrappers = tracing.PipelineWrappers(light, sim_layers=False)
        wrappers.install()
        try:
            rows, dt = timed_round(path.fresh, ref, f"{workload} traced",
                                   result)
            # the pool's workers have exited: their spools are complete
            light.collect_spool()
            claims = light.counts.get("store.claims", 0)
            cached, _ = timed_round(path.cached, ref,
                                    f"{workload} traced cached", result)
        finally:
            wrappers.uninstall()
        light.collect_spool()
        if rows is None or cached is None:
            break
        walls["light"] += dt
        if workload == "farm_campaign":
            farm["cache_hits"] += len(cached) - (
                light.counts.get("store.claims", 0) - claims)
            status = path.status()
            farm["idle"].append(path.returned_at - status["last_result_at"])
            farm["attempts"].append(status["attempts"] / status["total"])
            farm["quarantined"] += status["quarantined"]
        wrappers = tracing.PipelineWrappers(full, sim_layers=True)
        wrappers.install()
        try:
            rows, dt = timed_round(path.fresh, ref,
                                   f"{workload} fully traced", result)
        finally:
            wrappers.uninstall()
        full.collect_spool()
        if rows is None:
            break
        walls["full"] += dt
        rounds += 1
    if rounds == 0:
        raise RuntimeError(f"{workload}: no traced sweep completed")

    jobs = grid_size()
    job_ns = light.durations.get("runner.job", [])
    run_ns = light.durations.get("sim.run", [])
    if len(job_ns) != rounds * jobs:
        result.fail(f"trace: {len(job_ns)} runner spans reported for "
                    f"{rounds * jobs} jobs")
    per_job = max(1, len(job_ns))
    result.put("runner.job_s.p50", common.percentile(job_ns, 50) / 1e9, "s")
    result.put("runner.job_s.p90", common.percentile(job_ns, 90) / 1e9, "s")
    result.put("runner.summary_s",
               (sum(job_ns) - sum(run_ns)) / 1e9 / per_job, "s")
    worker_s = common.WORKERS * walls["light"]
    result.put("runner.overhead_s",
               max(0.0, worker_s - sum(job_ns) / 1e9) / per_job, "s")
    result.put("sim.run_s", sum(run_ns) / 1e9 / per_job, "s")
    result.put("sim.run_share", sum(run_ns) / 1e9 / worker_s, "frac")
    counts = {k: v / rounds for k, v in full.counts.items()}
    fig89.report_layers(
        result, full, rounds, sum(full.durations.get("sim.run", [])) / 1e9,
        counts, walls["untraced"] / rounds)
    report_farm(result, light, rounds, farm)
    result.put("trace.overhead", walls["full"] / walls["untraced"], "x")
    result.put("trace.light_overhead", walls["light"] / walls["untraced"],
               "x")
    fig89.put_model_ratios(result, *model_ratios(ref))
    result.notes.append(f"{workload} traced: {rounds} rounds")


def _spooled_tracer(workdir: str, name: str) -> tracing.Tracer:
    spool = os.path.join(workdir, f"spool-{name}")
    os.makedirs(spool, exist_ok=True)
    return tracing.Tracer(spool)


def report_farm(result: common.Result, tracer: tracing.Tracer, rounds: int,
                farm: dict) -> None:
    """Farm figures: mean seconds per store call and per pool start,
    counts per round, and the coordinator's idle tail per campaign."""
    def mean_s(name):
        durs = tracer.durations.get(name, [])
        return sum(durs) / 1e9 / max(1, len(durs))

    for name in ("submit", "claim", "complete", "rows"):
        result.put(f"store.{name}_s", mean_s(f"store.{name}"), "s")
    result.put("store.claims", tracer.counts.get("store.claims", 0) / rounds,
               "count")
    result.put("store.completes",
               tracer.counts.get("store.complete", 0) / rounds, "count")
    result.put("store.cache_hits", farm["cache_hits"] / rounds, "count")
    result.put("pool.spawn_s", mean_s("pool.spawn"), "s")
    idle, attempts = farm["idle"], farm["attempts"]
    result.put("farm.idle_s", common.median(idle) if idle else 0.0, "s")
    result.put("farm.attempts_per_job",
               common.median(attempts) if attempts else 0.0, "count")
    result.put("farm.quarantined", farm["quarantined"] / rounds, "count")
