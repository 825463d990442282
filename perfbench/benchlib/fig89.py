"""The ``fig89`` workload: the paper's 8-core Fig. 8/9 matrix in-process.

fib and matmul (cilk: compute- and read-hit-heavy) and Counter and Tree
(ustm: store-, fence- and bounce-heavy) under S+, WS+, W+ and Wee, each
under several machine seeds, built with ``Machine`` + ``Workload.setup``
and run with ``Machine.run``.  The simulator layers do nearly all the
work; the runner and farm none.

Whole passes over the cases run until the run's time is up.  A case's
time is the fastest of its runs: on a shared host other tenants' load
only ever adds time, and comes in stretches long enough that a median
over a few runs moved by 15-20% from one process to the next.  Every run
of a case must reproduce the same simulated digest, and at the default
seed the pinned one.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List, Tuple

from benchlib import common, tracing

APPS = ("fib", "matmul", "Counter", "Tree")
DESIGNS = ("S_PLUS", "WS_PLUS", "W_PLUS", "WEE")
GROUP = {"fib": "cilk", "matmul": "cilk", "Counter": "ustm", "Tree": "ustm"}
CORES = 8
SCALE = 0.25
#: machine seeds per (app, design): ``seed .. seed+SEEDS-1``.  One
#: seed's event count varies by up to 35% (cilk work stealing), so a
#: pass pools several.  Short cases under several seeds gave a steadier
#: figure than longer cases under one: see perfbench/README.md
SEEDS = 4
#: ``(app, design, seed offset)``
Case = Tuple[str, str, int]
CASES: Tuple[Case, ...] = tuple(
    (app, design, k) for k in range(SEEDS) for app in APPS
    for design in DESIGNS)

#: the paper's headline values the modelled ratios are printed beside
PAPER_WSPLUS_TIME_RATIO = 0.91
PAPER_WSPLUS_TPUT_GAIN = 1.38


def case_key(case: Case) -> str:
    return "{}:{}:+{}".format(*case)


def build(case, seed: int, tracer=None):
    """Construct and set up one case; returns ``(workload, machine)``."""
    from repro.common.params import FenceDesign, MachineParams
    from repro.sim.machine import Machine
    from repro.workloads.base import REGISTRY, load_all_workloads

    load_all_workloads()
    app, design, offset = case
    workload = REGISTRY[app](scale=SCALE)
    params = MachineParams().with_cores(CORES).with_design(
        FenceDesign[design])
    machine = Machine(params, seed=seed + offset)
    if tracer is not None:
        tracing.instrument_machine(machine, tracer)
    workload.setup(machine)
    return workload, machine


class CaseRun:
    __slots__ = ("setup_s", "run_s", "events", "digest", "cycles",
                 "commits", "counts")


def run_case(case, seed: int, tracer=None) -> CaseRun:
    """Build, run and check one case; raises on any failure."""
    gc.collect()
    t0 = perf_counter()
    workload, machine = build(case, seed, tracer)
    t1 = perf_counter()
    result = machine.run(max_cycles=workload.cycle_budget)
    t2 = perf_counter()
    if result.degraded:
        raise RuntimeError(f"degraded: {result.degraded_reason}")
    workload.check(machine)
    out = CaseRun()
    out.setup_s = t1 - t0
    out.run_s = t2 - t1
    out.events = machine.queue.executed
    out.cycles = result.cycles
    out.commits = result.stats.txn_commits
    out.digest = {
        "cycles": result.cycles,
        "events": machine.queue.executed,
        "stats": common.digest(result.stats.to_dict()),
    }
    out.counts = tracing.machine_counts(machine, result)
    return out


def expected_digests(seed: int) -> Dict[str, dict]:
    if seed != common.DEFAULT_SEED:
        return {}
    return common.load_expected()["fig89"]


class Checker:
    """Each case's digest must repeat exactly, and at the default seed
    match the pinned one."""

    def __init__(self, seed: int, result: common.Result):
        self.expected = expected_digests(seed)
        self.seen: Dict[str, dict] = {}
        self.result = result

    def check(self, case, digest: dict) -> bool:
        key = case_key(case)
        first = self.seen.setdefault(key, digest)
        if digest != first:
            self.result.fail(f"{key}: digest changed between repeats")
            return False
        want = self.expected.get(key)
        if want is not None and digest != want:
            self.result.fail(f"{key}: digest {digest} != pinned {want}")
            return False
        return True


def _attempt(case, seed, checker, result, tracer=None):
    result.attempt()
    try:
        run = run_case(case, seed, tracer)
    except Exception as exc:  # a failing job is counted, not fatal
        result.fail(f"{case_key(case)}: {type(exc).__name__}: {exc}")
        return None
    # a run whose digest is wrong still ran: it is counted as failed
    # and still timed, so the result line says what went wrong
    checker.check(case, run.digest)
    return run


def pooled_ratios(runs) -> Tuple[float, float]:
    """The modelled design's headline numbers from ``(group, design,
    cycles, commits)`` runs, pooled over apps and seeds: WS+/S+ cycles
    on the cilk runs (paper Fig. 8) and WS+/S+ transactions per cycle on
    the ustm runs (paper Fig. 9)."""
    totals: Dict[Tuple[str, str], List[int]] = {}
    for group, design, cycles, commits in runs:
        t = totals.setdefault((group, design), [0, 0])
        t[0] += cycles
        t[1] += commits
    ws, s = "WS+", "S+"
    time_ratio = totals[("cilk", ws)][0] / totals[("cilk", s)][0]
    tput = {d: totals[("ustm", d)][1] / totals[("ustm", d)][0]
            for d in (ws, s)}
    return time_ratio, tput[ws] / tput[s]


def model_ratios(runs: Dict[Case, CaseRun]) -> Tuple[float, float]:
    from repro.common.params import FenceDesign

    return pooled_ratios(
        (GROUP[app], FenceDesign[design].value, run.cycles, run.commits)
        for (app, design, _), run in runs.items())


def _run_until(seconds: float, attempt, samples, clock) -> None:
    """Run whole passes over the cases until *seconds* of case time have
    passed.  An import-time sample goes between passes, untimed."""
    elapsed = 0.0
    while True:
        for case in CASES:
            t0 = perf_counter()
            run = attempt(case)
            elapsed += perf_counter() - t0
            if run is not None:
                samples[case].append(run)
        clock.sample()
        if elapsed >= seconds:
            return


def measure(seed: int, seconds: float, result: common.Result) -> None:
    """The timed run: end-to-end metrics, tracing off."""
    checker = Checker(seed, result)
    samples: Dict[Case, List[CaseRun]] = {c: [] for c in CASES}
    clock = common.ImportClock()
    _run_until(seconds, lambda case: _attempt(case, seed, checker, result),
               samples, clock)
    missing = [case_key(c) for c in CASES if not samples[c]]
    if missing:
        raise RuntimeError(f"no successful run of {missing}")

    run_s = {c: min(r.run_s for r in samples[c]) for c in CASES}
    setup_s = sum(common.median(r.setup_s for r in samples[c])
                  for c in CASES)
    first = {c: samples[c][0] for c in CASES}
    wall = sum(run_s.values())
    events = sum(first[c].events for c in CASES)
    result.put("wall_s", wall, "s")
    result.put("events_per_s", events / wall, "1/s")
    for group in ("cilk", "ustm"):
        part = [c for c in CASES if GROUP[c[0]] == group]
        result.put(f"events_per_s.{group}",
                   sum(first[c].events for c in part)
                   / sum(run_s[c] for c in part), "1/s")
    result.put("jobs_per_s", len(CASES) / wall, "1/s")
    # the in-process path has no result cache: asking for a case again
    # simulates it again, at the same rate
    result.put("cached_jobs_per_s", len(CASES) / wall, "1/s")
    result.put("setup_s", clock.median() + setup_s, "s")
    result.put("peak_rss_mb", common.peak_rss_mb(False), "MB")
    time_ratio, tput_gain = model_ratios(first)
    reps = sorted({len(v) for v in samples.values()})
    result.notes.append(
        f"fig89: {len(CASES)} cases x {reps} reps, {events} events/pass; "
        f"WS+/S+ time {time_ratio:.3f} (paper {PAPER_WSPLUS_TIME_RATIO}), "
        f"WS+/S+ throughput {tput_gain:.3f} "
        f"(paper {PAPER_WSPLUS_TPUT_GAIN})")


def measure_traced(seed: int, seconds: float, result: common.Result) -> None:
    """The traced run: each case untraced then traced, whole passes until
    the time is up.  Per-layer figures are per pass of the matrix."""
    checker = Checker(seed, result)
    tracer = tracing.Tracer()
    counts: Dict[str, float] = {}
    plain_runs: Dict[Case, CaseRun] = {}
    untraced_s = traced_s = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for case in CASES:
            plain = _attempt(case, seed, checker, result)
            traced = _attempt(case, seed, checker, result, tracer)
            if plain is None or traced is None:
                continue
            untraced_s += plain.run_s
            traced_s += traced.run_s
            if passes == 0:
                plain_runs[case] = plain
                for k, v in plain.counts.items():
                    counts[k] = counts.get(k, 0) + v
        passes += 1
    report_layers(result, tracer, passes, traced_s, counts,
                  untraced_s / passes)
    result.put("trace.overhead", traced_s / untraced_s, "x")
    if len(plain_runs) == len(CASES):
        put_model_ratios(result, *model_ratios(plain_runs))
    result.notes.append(f"fig89 traced: {passes} passes")


def put_model_ratios(result: common.Result, time_ratio: float,
                     tput_gain: float) -> None:
    result.put("wsplus_time_ratio", time_ratio, "x")
    result.put("wsplus_tput_gain", tput_gain, "x")


def report_layers(result: common.Result, tracer: tracing.Tracer,
                  per: int, traced_wall_s: float, counts: Dict[str, float],
                  untraced_wall_s: float) -> None:
    """Simulator-layer metrics from *tracer* (totals divided by *per*)
    and one pass's *counts*; checks the self times add up."""
    self_ns = tracer.self_ns
    sim_ns = sum(self_ns.get(layer, 0) for layer in tracing.SIM_LAYERS)
    run_ns = sum(tracer.durations.get("sim.run", []))
    if sim_ns != run_ns:
        result.fail(f"trace: layer self times {sim_ns} ns != traced "
                    f"Machine.run time {run_ns} ns")
    if abs(run_ns / 1e9 - traced_wall_s) > 0.01 * traced_wall_s:
        result.fail(f"trace: span wall {run_ns / 1e9:.3f} s != timed "
                    f"wall {traced_wall_s:.3f} s")
    for layer in tracing.SIM_LAYERS:
        ns = self_ns.get(layer, 0)
        result.put(f"{layer}.self_s", ns / 1e9 / per, "s")
        result.put(f"{layer}.share", ns / max(1, run_ns), "frac")
    events = counts.get("events.count", 0)
    result.put("events.count", events, "count")
    result.put("events.ns_per_event",
               1e9 * untraced_wall_s / max(1, events), "ns")
    for key in ("core.ops", "fences.sf", "fences.wf", "fences.recoveries",
                "l1.hits", "l1.misses", "writebuffer.retries",
                "directory.transactions", "directory.bounces", "noc.bytes"):
        result.put(key, counts.get(key, 0), "count")
    result.put("noc.retry_frac", counts.get("noc.retry_bytes", 0)
               / max(1, counts.get("noc.bytes", 0)), "frac")
    for key in ("gen.sends", "pumps.ticks"):
        result.put(key, tracer.counts.get(key, 0) / per, "count")
