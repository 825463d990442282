"""A farm worker: claim → heartbeat → execute → complete, forever.

Workers are crash-only processes.  They hold no state the store does
not: a worker SIGKILLed at *any* point loses at most its current lease,
which expires and the job is reassigned.  While executing, the worker's
heartbeat thread (one per worker, started on its first claim, with its
own store connection — SQLite connections are not thread-safe) renews
the lease, so a long job under a short lease is safe as long as the
worker is actually alive; a *stalled-but-alive* worker that stops
heartbeating loses the lease, someone else runs the job, and the
content-addressed result store absorbs the duplicate completion
(exactly-once rows).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.farm import store as store_mod
from repro.farm.exec import execute_job
from repro.farm.store import FarmStore


@dataclass(frozen=True)
class FarmConfig:
    """Tuning knobs shared by workers and the coordinator."""

    #: lease duration; heartbeats renew at a third of this
    lease_secs: float = 15.0
    #: idle polling interval when no job is claimable yet
    poll_secs: float = 0.5
    #: distinct-worker failures before quarantine
    quarantine_after: int = store_mod.DEFAULT_QUARANTINE_AFTER
    backoff_base: float = store_mod.DEFAULT_BACKOFF_BASE
    backoff_cap: float = store_mod.DEFAULT_BACKOFF_CAP
    #: where quarantine bundles and chaos diagnostics land
    diag_dir: Optional[str] = None
    db_timeout: float = 30.0

    @property
    def heartbeat_secs(self) -> float:
        return max(0.05, self.lease_secs / 3.0)


@dataclass
class WorkerStats:
    claimed: int = 0
    completed: int = 0
    duplicates: int = 0
    failed: int = 0
    statuses: dict = field(default_factory=dict)


class _Heartbeat:
    """Renews the running job's lease from a dedicated connection/thread.

    One per worker process: the thread and its store connection start
    with the first renewed job and live until :meth:`close`.  Inside
    ``renewing(key)`` the lease on *key* is renewed every
    ``heartbeat_secs``; leaving it waits out any renewal in flight, so
    a finished job's lease is never touched again.
    """

    def __init__(self, db_path: str, campaign: str, worker: str,
                 config: FarmConfig):
        self._db_path = db_path
        self._campaign = campaign
        self._worker = worker
        self._lease_secs = config.lease_secs
        self._interval = config.heartbeat_secs
        self._timeout = config.db_timeout
        #: guards _key/_closed; held across each renewal
        self._cond = threading.Condition()
        self._key: Optional[str] = None
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    def _watch(self, key: Optional[str]) -> None:
        with self._cond:
            self._key = key
            self._cond.notify()

    @contextmanager
    def renewing(self, key: str) -> Iterator[None]:
        self._watch(key)
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        try:
            yield
        finally:
            self._watch(None)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        store = FarmStore(self._db_path, timeout=self._timeout)
        try:
            with self._cond:
                while not self._closed:
                    key = self._key
                    if key is None:
                        self._cond.wait()
                    elif not self._cond.wait_for(
                            lambda: self._closed or self._key != key,
                            self._interval):
                        # a lost lease is not fatal: the job may run
                        # twice, and completion is idempotent — keep
                        # running to the end
                        store.heartbeat(key, self._campaign, self._worker,
                                        self._lease_secs)
        finally:
            store.close()


def run_worker(
    db_path: str,
    campaign: str,
    config: Optional[FarmConfig] = None,
    worker: Optional[str] = None,
    max_jobs: Optional[int] = None,
    once: bool = False,
) -> WorkerStats:
    """Drain jobs from *campaign* until it is done (or *max_jobs*).

    With *once* the worker exits the first time nothing is claimable
    instead of polling — the coordinator's pool uses the polling mode,
    tests and one-shot CLI invocations use *once*.
    """
    config = config or FarmConfig()
    worker = worker or store_mod.default_worker_id()
    stats = WorkerStats()
    store = FarmStore(db_path, timeout=config.db_timeout,
                      diag_dir=config.diag_dir)
    heartbeat = _Heartbeat(db_path, campaign, worker, config)
    try:
        while True:
            if max_jobs is not None and stats.claimed >= max_jobs:
                return stats
            claimed = store.claim(
                campaign, worker, config.lease_secs,
                quarantine_after=config.quarantine_after,
            )
            if claimed is None:
                if once or store.campaign_done(campaign):
                    return stats
                time.sleep(config.poll_secs)  # backoff-gated retries
                continue
            key, spec = claimed
            stats.claimed += 1
            try:
                with heartbeat.renewing(key):
                    row = execute_job(spec, diag_dir=config.diag_dir)
            except BaseException as exc:
                stats.failed += 1
                store.fail(
                    key, campaign, worker,
                    f"{type(exc).__name__}: {exc}",
                    quarantine_after=config.quarantine_after,
                    backoff_base=config.backoff_base,
                    backoff_cap=config.backoff_cap,
                )
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                continue
            status = store.complete(key, campaign, worker, row)
            stats.statuses[status] = stats.statuses.get(status, 0) + 1
            if status == "inserted":
                stats.completed += 1
            else:
                stats.duplicates += 1
    finally:
        heartbeat.close()
        store.close()


def worker_main(db_path: str, campaign: str, config: FarmConfig,
                worker: str) -> None:
    """Entry point for pool-spawned worker processes."""
    run_worker(db_path, campaign, config=config, worker=worker)
