"""Self-healing worker pool.

The coordinator keeps *n* worker processes alive for the duration of a
campaign.  Workers are expendable: :meth:`WorkerPool.ensure` respawns
any that exited — cleanly, by exception, or by SIGKILL — under a fresh
worker id, so a kill-happy environment only costs lease timeouts, never
progress.  The pool deliberately does **not** inspect exit codes to
decide whether work was lost; the store's lease protocol is the single
source of truth for that.

A slot is respawned at most once per ``respawn_secs``, so a worker that
dies at start-up costs a fork per interval, not a fork loop, even though
:meth:`WorkerPool.wait` returns the moment a worker exits.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as wait_any
from typing import List, Optional

from repro.farm.worker import FarmConfig, worker_main

_CTX = multiprocessing.get_context("fork")


class WorkerPool:
    def __init__(self, db_path: str, campaign: str, size: int,
                 config: Optional[FarmConfig] = None,
                 name_prefix: str = "farm-w",
                 respawn_secs: float = 0.25):
        self.db_path = db_path
        self.campaign = campaign
        self.size = size
        self.config = config or FarmConfig()
        self.name_prefix = name_prefix
        self.respawn_secs = respawn_secs
        self.procs: List[multiprocessing.Process] = []
        #: workers respawned after dying (the self-healing counter)
        self.respawns = 0
        self._serial = 0
        #: monotonic spawn time of each slot's current process
        self._born: List[float] = []

    def _spawn(self) -> multiprocessing.Process:
        self._serial += 1
        wid = f"{self.name_prefix}{self._serial}"
        proc = _CTX.Process(
            target=worker_main,
            args=(self.db_path, self.campaign, self.config, wid),
            name=wid,
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> None:
        self.procs = [self._spawn() for _ in range(self.size)]
        self._born = [time.monotonic()] * self.size

    def ensure(self) -> int:
        """Respawn dead workers whose slot may respawn again; returns
        how many are alive now."""
        now = time.monotonic()
        for slot, proc in enumerate(self.procs):
            if proc.is_alive() or now - self._born[slot] < self.respawn_secs:
                continue
            proc.join(timeout=0)
            self.respawns += 1
            self.procs[slot] = self._spawn()
            self._born[slot] = now
        return self.alive()

    def wait(self, timeout: float) -> None:
        """Block until a live worker exits or *timeout* passes — or, if
        a dead worker's slot is still held back, until it may respawn."""
        now = time.monotonic()
        live = []
        for slot, proc in enumerate(self.procs):
            if proc.is_alive():
                live.append(proc.sentinel)
            else:
                ready = self._born[slot] + self.respawn_secs - now
                timeout = min(timeout, max(0.0, ready))
        if live:
            wait_any(live, timeout)
        else:
            time.sleep(timeout)

    def alive(self) -> int:
        return sum(1 for p in self.procs if p.is_alive())

    def stop(self, timeout: float = 10.0) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=timeout)
        self.procs = []
        self._born = []

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
