"""Fault-tolerant experiment farm.

A durable campaign service for the repo's simulation sweeps: jobs are
content-addressed ``(design, workload, config, seed, code-rev)`` rows
in a crash-safe SQLite store, workers lease them (heartbeats, expiry
reassignment, capped-backoff retries, poison-job quarantine), and the
result cache makes identical re-submissions free.  See
``docs/FARM.md``.
"""

from repro.farm.campaign import run_campaign, submit
from repro.farm.spec import CampaignSpec, JobSpec, code_rev
from repro.farm.store import FarmStore, default_worker_id
from repro.farm.worker import FarmConfig, run_worker

__all__ = [
    "CampaignSpec",
    "FarmConfig",
    "FarmStore",
    "JobSpec",
    "code_rev",
    "default_worker_id",
    "run_campaign",
    "run_worker",
    "submit",
]
