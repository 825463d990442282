"""Outside-in layer tracing: host self time per simulator, runner and
farm layer, recorded by wrapping public entry points from here.

Nothing in ``src/`` is edited.  The simulator is instrumented per
machine instance (:func:`instrument_machine`): every callback the event
queue dispatches is timed under its event label's layer, and the entry
points one layer calls in another (L1 controller, directory bank, NoC,
the core's completion callbacks, thread generators) open child spans.
The runner and farm are wrapped at module or class level before worker
processes fork (:class:`PipelineWrappers`); workers inherit the wrappers
and append their totals to a spool directory the parent reads back.

A layer's self time is its spans' duration minus their child spans'.
``events`` is the self time of ``Machine.run`` itself: the event kernel
plus everything between callbacks.  Per process, the self times of all
layers add up exactly (integer nanoseconds) to the top-level span time.
"""

from __future__ import annotations

import glob
import json
import os
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: simulator layers, in report order
SIM_LAYERS = ("events", "core", "gen", "l1", "directory", "noc", "pumps",
              "other")

#: event-label prefix -> layer of the dispatched callback's own code
LABEL_PREFIX_LAYER = {
    "cpu": "core",
    "cfence": "core",
    "l1": "l1",
    "dir": "directory",
    "watchdog": "pumps",
    "governor": "pumps",
    "sanitizer": "pumps",
    "metrics": "pumps",
}

_WRAPPED = "_perfbench_layer"


def label_layer(label: str) -> str:
    """Layer an event label belongs to; ``other`` when none claims it."""
    return LABEL_PREFIX_LAYER.get(label.split(".", 1)[0], "other")


class Tracer:
    """Per-layer self-time and count accumulators over nested spans.

    Spans are folded into totals as they close (no per-span records),
    which keeps a traced million-event run in constant memory.  A tracer
    inherited by a forked worker starts from zero there and, when it has
    a *spool* directory, appends its cumulative totals to
    ``spans-<pid>.jsonl`` after every top-level span.
    """

    def __init__(self, spool: Optional[str] = None):
        self.owner = self.pid = os.getpid()
        self.spool = spool
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: duration lists of the spans opened with ``record=``
        self.durations: Dict[str, List[int]] = defaultdict(list)
        #: open spans' accumulated child time; slot 0 collects the
        #: duration of top-level spans
        self.stack: List[int] = [0]

    def reset(self) -> None:
        """Zero every total in place (wrappers hold the containers)."""
        self.self_ns.clear()
        self.counts.clear()
        self.durations.clear()
        self.stack[:] = [0]

    @property
    def top_ns(self) -> int:
        return self.stack[0]

    # -- span wrappers -------------------------------------------------

    def wrap(self, layer: str, fn: Callable, record: Optional[str] = None,
             main_thread_only: bool = False) -> Callable:
        """*fn* timed as a span of *layer*; ``record`` also keeps each
        duration under that name."""
        tracer = self
        stack = self.stack
        self_ns = self.self_ns

        def timed(*args, **kwargs):
            if main_thread_only and \
                    threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            if tracer.pid != os.getpid():
                # first span in a forked worker: drop inherited totals
                tracer.pid = os.getpid()
                tracer.reset()
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self_ns[layer] += dur - stack.pop()
                stack[-1] += dur
                if record is not None:
                    tracer.durations[record].append(dur)
                if len(stack) == 1 and tracer.pid != tracer.owner:
                    tracer._spool_totals()

        setattr(timed, _WRAPPED, layer)
        return timed

    def wrap_callback(self, layer: str, fn: Callable) -> Callable:
        """Hot-path variant of :meth:`wrap` for simulator callbacks
        (positional arguments only), always nested in a run span."""
        if getattr(fn, _WRAPPED, None) == layer:
            return fn
        stack = self.stack
        self_ns = self.self_ns

        def timed(*args):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                dur = perf_counter_ns() - t0
                self_ns[layer] += dur - stack.pop()
                stack[-1] += dur

        setattr(timed, _WRAPPED, layer)
        return timed

    def wrap_entry(self, layer: str, fn: Callable) -> Callable:
        """:meth:`wrap_callback` for entry-point methods, which callers
        may pass keyword arguments."""
        stack = self.stack
        self_ns = self.self_ns

        def timed(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self_ns[layer] += dur - stack.pop()
                stack[-1] += dur

        return timed

    # -- worker processes ----------------------------------------------

    def _spool_totals(self) -> None:
        if self.spool is None:
            return
        path = os.path.join(self.spool, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "top_ns": self.top_ns,
        }

    def merge(self, snap: dict) -> None:
        for k, v in snap["self_ns"].items():
            self.self_ns[k] += v
        for k, v in snap["counts"].items():
            self.counts[k] += v
        for k, v in snap["durations"].items():
            self.durations[k].extend(v)
        self.stack[0] += snap["top_ns"]

    def collect_spool(self) -> int:
        """Merge and remove the workers' spooled totals; returns how
        many worker processes reported."""
        files = sorted(glob.glob(os.path.join(self.spool, "spans-*.jsonl")))
        for path in files:
            with open(path) as fh:
                lines = fh.read().splitlines()
            # each line is the worker's cumulative snapshot; a worker
            # stopped mid-write leaves a torn last line
            for line in reversed(lines):
                try:
                    snap = json.loads(line)
                except ValueError:
                    continue
                self.merge(snap)
                break
            os.remove(path)
        return len(files)


# ----------------------------------------------------------------------
# simulator layers: per machine instance
# ----------------------------------------------------------------------

class _GenProxy:
    """Thread-generator stand-in timing each advance as ``gen``."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __iter__(self):
        return self

    def _advance(self, method, arg):
        tracer = self._tracer
        stack = tracer.stack
        stack.append(0)
        t0 = perf_counter_ns()
        try:
            return method(arg)
        finally:
            dur = perf_counter_ns() - t0
            tracer.self_ns["gen"] += dur - stack.pop()
            stack[-1] += dur
            tracer.counts["gen.sends"] += 1

    def __next__(self):
        return self._advance(self._gen.send, None)

    def send(self, value):
        return self._advance(self._gen.send, value)

    def throw(self, *exc):
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


def instrument_machine(machine, tracer: Tracer) -> None:
    """Time one :class:`Machine`'s layers.  Call after construction and
    before the workload's ``setup`` (which spawns the threads)."""
    cb = tracer.wrap_callback
    layers: Dict[str, str] = {}

    queue_schedule = machine.queue.schedule
    counts = tracer.counts

    def schedule(delay, fn, label=""):
        layer = layers.get(label)
        if layer is None:
            layer = layers[label] = label_layer(label)
        if layer == "pumps":
            counts["pumps.ticks"] += 1
        return queue_schedule(delay, cb(layer, fn), label)

    machine.queue.schedule = schedule

    for l1 in machine.l1s:
        _instrument_l1(l1, cb, tracer.wrap_entry)
    for bank in machine.banks:
        receive = bank.receive

        def bank_receive(txn, _receive=receive):
            # the requester's completion closure is L1 code that runs
            # inside the directory's reply callback
            if txn.on_done is not None:
                txn.on_done = cb("l1", txn.on_done)
            return _receive(txn)

        bank.receive = tracer.wrap_entry("directory", bank_receive)
    machine.noc.send_cost = tracer.wrap_entry("noc", machine.noc.send_cost)

    spawn = machine.spawn

    def traced_spawn(fn, shared=None, core=None):
        return spawn(lambda ctx: _GenProxy(fn(ctx), tracer), shared=shared,
                     core=core)

    machine.spawn = traced_spawn
    run = machine.run
    machine.run = tracer.wrap("events", run, record="sim.run")


def _instrument_l1(l1, cb, wrap_entry) -> None:
    read, store, rmw = l1.read, l1.issue_store, l1.issue_rmw

    # the core hands the L1 its completion callbacks: those are the core
    # entry points the memory side calls back into
    def l1_read(addr, on_done):
        return read(addr, cb("core", on_done))

    def l1_issue_store(entry, on_done, on_bounce):
        return store(entry, cb("core", on_done), cb("core", on_bounce))

    def l1_issue_rmw(word, apply_fn, on_done, on_bounce, po=0):
        return rmw(word, apply_fn, cb("core", on_done),
                   cb("core", on_bounce), po)

    l1.read = wrap_entry("l1", l1_read)
    l1.issue_store = wrap_entry("l1", l1_issue_store)
    l1.issue_rmw = wrap_entry("l1", l1_issue_rmw)
    l1.handle_inv = wrap_entry("l1", l1.handle_inv)
    l1.handle_downgrade = wrap_entry("l1", l1.handle_downgrade)


def machine_counts(machine, result) -> Dict[str, float]:
    """Deterministic per-run work counts behind the per-layer times."""
    stats = result.stats
    return {
        "events.count": machine.queue.executed,
        "core.ops": stats.total_instructions,
        "fences.sf": stats.total_sf,
        "fences.wf": stats.total_wf,
        "fences.recoveries": stats.wplus_recoveries,
        "l1.hits": stats.l1_hits,
        "l1.misses": stats.l1_misses,
        "writebuffer.retries": stats.write_retries,
        "directory.transactions": stats.coherence_transactions,
        "directory.bounces": stats.bounces,
        "noc.bytes": stats.network_bytes,
        "noc.retry_bytes": stats.retry_bytes,
    }


# ----------------------------------------------------------------------
# runner and farm layers: module / class level, inherited by forks
# ----------------------------------------------------------------------

#: FarmStore methods traced -> short span name
STORE_CALLS = {"submit_campaign": "submit", "claim": "claim",
               "complete": "complete", "rows": "rows"}


class PipelineWrappers:
    """Installs (and removes) the runner/farm/simulator wrappers.

    ``run_summary`` is the per-job runner span in every worker; every
    :class:`Machine` built meanwhile is instrumented like fig89's (or,
    without *sim_layers*, only timed as a whole); farm store calls and
    pool start-up get their own spans.
    """

    def __init__(self, tracer: Tracer, sim_layers: bool = True):
        self.tracer = tracer
        #: False: time only ``Machine.run`` as a whole (a light trace
        #: for the runner and farm figures)
        self.sim_layers = sim_layers
        self._saved: List[tuple] = []

    def _patch(self, owner, name: str, new) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        from repro.eval import runner
        from repro.farm import pool, store
        from repro.sim.machine import Machine

        tr = self.tracer
        self._patch(runner, "run_summary",
                    tr.wrap("runner", runner.run_summary, record="runner.job"))

        init = Machine.__init__

        def machine_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            if self.sim_layers:
                instrument_machine(machine, tr)
            else:
                machine.run = tr.wrap("events", machine.run,
                                      record="sim.run")
            machine.run = _counting_run(machine, tr)

        self._patch(Machine, "__init__", machine_init)
        for name, short in STORE_CALLS.items():
            fn = getattr(store.FarmStore, name)
            self._patch(store.FarmStore, name,
                        tr.wrap(f"store.{short}",
                                _store_counter(tr, short, fn),
                                record=f"store.{short}",
                                main_thread_only=True))
        self._patch(pool.WorkerPool, "start",
                    tr.wrap("pool.spawn", pool.WorkerPool.start,
                            record="pool.spawn"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


def _counting_run(machine, tracer: Tracer):
    run = machine.run

    def counted(*args, **kwargs):
        result = run(*args, **kwargs)
        for key, value in machine_counts(machine, result).items():
            tracer.counts[key] += value
        return result

    return counted


def _store_counter(tracer: Tracer, name: str, fn):
    if name != "claim":
        def counted(*args, **kwargs):
            tracer.counts[f"store.{name}"] += 1
            return fn(*args, **kwargs)
        return counted

    def claim(*args, **kwargs):
        got = fn(*args, **kwargs)
        if got is not None:
            tracer.counts["store.claims"] += 1
        return got

    return claim
