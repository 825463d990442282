"""Campaign semantics: farm sweeps are bit-identical to local ones,
re-submission is free (content-addressed cache), coordinator restarts
resume, and the legacy clients round-trip through the farm."""

import dataclasses
import json
import os

import pytest

from repro.common.errors import ConfigError
from repro.common.params import FenceDesign
from repro.farm import campaign as campaign_mod
from repro.farm import worker as worker_mod
from repro.farm.campaign import run_campaign
from repro.farm.spec import CampaignSpec
from repro.farm.store import FarmStore
from repro.farm.worker import FarmConfig, run_worker

DESIGNS = [FenceDesign.S_PLUS, FenceDesign.W_PLUS]
GRID = dict(core_counts=[2], scale=0.06)


@pytest.fixture(autouse=True)
def _pinned_rev(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "test-rev")
    monkeypatch.delenv("REPRO_FARM_DB", raising=False)


def _spec(workloads=("fib",), designs=DESIGNS, seeds=(5,)):
    return CampaignSpec.make("matrix", workloads, designs, seeds=seeds,
                             **GRID)


# ----------------------------------------------------------------------
# inline campaigns, caching, resume
# ----------------------------------------------------------------------

def test_inline_campaign_produces_every_row(tmp_path):
    db = str(tmp_path / "farm.sqlite")
    spec = _spec(seeds=(5, 6))
    rows = run_campaign(db, spec, workers=0)
    assert len(rows) == 4
    for row in rows.values():
        assert row["completed"] is True
        assert row["num_cores"] == 2


def test_resubmitted_campaign_runs_zero_new_simulations(tmp_path,
                                                        monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    spec = _spec()
    calls = []
    from repro.farm import exec as exec_mod

    real = exec_mod.execute_job

    def counting(spec_, diag_dir=None):
        calls.append(spec_.content_key())
        return real(spec_, diag_dir)

    monkeypatch.setattr(exec_mod, "execute_job", counting)
    monkeypatch.setattr(worker_mod, "execute_job", counting)
    first = run_campaign(db, spec, workers=0)
    assert len(calls) == 2
    again = run_campaign(db, spec, workers=0)
    assert len(calls) == 2  # cache hit: zero new simulations
    assert again == first


def test_cache_spans_campaigns_but_not_code_revisions(tmp_path,
                                                      monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    calls = []
    from repro.farm import exec as exec_mod

    real = exec_mod.execute_job

    def counting(spec_, diag_dir=None):
        calls.append(spec_.content_key())
        return real(spec_, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", counting)
    run_campaign(db, _spec(seeds=(5,)), workers=0)
    assert len(calls) == 2
    # a superset campaign only pays for the new seed
    run_campaign(db, _spec(seeds=(5, 6)), workers=0)
    assert len(calls) == 4
    # a new code revision is a different job identity: nothing cached
    monkeypatch.setenv("REPRO_CODE_REV", "other-rev")
    run_campaign(db, _spec(seeds=(5,)), workers=0)
    assert len(calls) == 6


def test_coordinator_restart_resumes_to_identical_rows(tmp_path):
    """Kill the coordinator after two jobs; re-running the identical
    campaign finishes exactly the rest, bit-identically."""
    db = str(tmp_path / "farm.sqlite")
    clean_db = str(tmp_path / "clean.sqlite")
    spec = _spec(seeds=(5, 6))  # 4 jobs
    clean = run_campaign(clean_db, spec, workers=0)

    cid, _ = campaign_mod.submit(db, spec)
    run_worker(db, cid, max_jobs=2)  # "coordinator died" after 2 jobs
    with FarmStore(db) as store:
        assert store.status(cid)["done"] == 2
        assert not store.campaign_done(cid)
    resumed = run_campaign(db, spec, workers=0)  # the restart
    assert resumed == clean
    with FarmStore(db) as store:
        st = store.status(cid)
        assert st["done"] == 4 and st["attempts"] == 4  # no re-runs


def test_worker_pool_campaign_matches_inline_rows(tmp_path):
    db = str(tmp_path / "farm.sqlite")
    inline_db = str(tmp_path / "inline.sqlite")
    spec = _spec(seeds=(5, 6, 7))
    cfg = FarmConfig(lease_secs=10.0, poll_secs=0.02)
    pooled = run_campaign(db, spec, workers=2, config=cfg,
                          poll_secs=0.02, timeout=120)
    inline = run_campaign(inline_db, spec, workers=0)
    assert pooled == inline  # scheduling cannot change the rows


def test_finished_campaign_resubmit_starts_no_pool(tmp_path, monkeypatch):
    from repro.farm.pool import WorkerPool

    db = str(tmp_path / "farm.sqlite")
    spec = _spec()
    first = run_campaign(db, spec, workers=0)

    def no_pool(self):
        raise AssertionError("a finished campaign started a worker pool")

    monkeypatch.setattr(WorkerPool, "start", no_pool)
    assert run_campaign(db, spec, workers=2) == first


def test_coordinator_wakes_when_workers_finish(tmp_path):
    """The coordinator waits on its workers' exits, not a fixed tick:
    a tiny campaign ends long before one 5 s poll would."""
    import time

    db = str(tmp_path / "farm.sqlite")
    t0 = time.monotonic()
    rows = run_campaign(db, _spec(), workers=2, poll_secs=5.0, timeout=60)
    assert len(rows) == 2
    assert time.monotonic() - t0 < 2.0


def test_respawn_rate_is_bounded(tmp_path, monkeypatch):
    """A worker that dies at start-up is respawned at most once per
    slot per poll, not in a tight fork loop."""
    from repro.farm import pool as pool_mod

    def dies_at_once(*args):
        raise RuntimeError("worker dies at start-up")

    monkeypatch.setattr(pool_mod, "worker_main", dies_at_once)
    seen = []
    timeout, poll, workers = 1.0, 0.1, 2
    with pytest.raises(TimeoutError):
        run_campaign(str(tmp_path / "farm.sqlite"), _spec(),
                     workers=workers, poll_secs=poll, timeout=timeout,
                     on_poll=lambda store, pool: seen.append(pool))
    assert seen[-1].respawns >= 1  # it did try to heal
    assert seen[-1].respawns <= workers * (timeout / poll + 1)


# ----------------------------------------------------------------------
# heartbeats: one thread per worker, renewing only the running job
# ----------------------------------------------------------------------

def _record_heartbeats(monkeypatch, job_secs):
    """Slow every job down by *job_secs* and log each lease renewal
    and completion as ``(key, thread, time)``."""
    import threading
    import time

    from repro.farm.exec import execute_job as real

    beats, completions = [], {}
    heartbeat, complete = FarmStore.heartbeat, FarmStore.complete

    def slow(job, diag_dir=None):
        time.sleep(job_secs)
        return real(job, diag_dir)

    def logged_heartbeat(self, key, *args):
        beats.append((key, threading.current_thread(), time.monotonic()))
        return heartbeat(self, key, *args)

    def logged_complete(self, key, *args):
        status = complete(self, key, *args)
        completions[key] = time.monotonic()
        return status

    monkeypatch.setattr(worker_mod, "execute_job", slow)
    monkeypatch.setattr(FarmStore, "heartbeat", logged_heartbeat)
    monkeypatch.setattr(FarmStore, "complete", logged_complete)
    return beats, completions


def test_one_heartbeat_thread_serves_consecutive_jobs(tmp_path,
                                                      monkeypatch):
    beats, _ = _record_heartbeats(monkeypatch, job_secs=0.2)
    db = str(tmp_path / "farm.sqlite")
    cid, _ = campaign_mod.submit(db, _spec(seeds=(5, 6)))  # 4 jobs
    cfg = FarmConfig(lease_secs=0.15)  # renew every 0.05 s
    stats = run_worker(db, cid, config=cfg, once=True)
    assert stats.completed == 4
    assert len({key for key, _, _ in beats}) == 4  # every job renewed
    # the log holds every thread object, so ids cannot be recycled
    assert len({id(thread) for _, thread, _ in beats}) == 1


def test_job_outliving_its_lease_is_renewed_not_reclaimed(tmp_path,
                                                          monkeypatch):
    import time

    from repro.farm.exec import execute_job as real

    db = str(tmp_path / "farm.sqlite")
    cid, _ = campaign_mod.submit(
        db, _spec(designs=[FenceDesign.S_PLUS]))  # 1 job
    cfg = FarmConfig(lease_secs=0.6)
    intruder = []

    def outlives_lease(job, diag_dir=None):
        time.sleep(2 * cfg.lease_secs)
        with FarmStore(db) as other:
            intruder.append(other.claim(cid, "intruder", 30.0))
        return real(job, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", outlives_lease)
    stats = run_worker(db, cid, config=cfg, worker="w1", once=True)
    assert intruder == [None]  # the renewed lease kept it unclaimable
    assert stats.completed == 1
    with FarmStore(db) as store:
        st = store.status(cid)
        assert st["done"] == 1 and st["attempts"] == 1


def test_finished_job_lease_is_no_longer_renewed(tmp_path, monkeypatch):
    beats, completions = _record_heartbeats(monkeypatch, job_secs=0.3)
    db = str(tmp_path / "farm.sqlite")
    cid, _ = campaign_mod.submit(db, _spec())  # 2 jobs, run in turn
    run_worker(db, cid, config=FarmConfig(lease_secs=0.15), once=True)
    assert len(completions) == 2
    for key, done_at in completions.items():
        renewed = [t for k, _, t in beats if k == key]
        assert renewed  # it was renewed while it ran...
        assert max(renewed) < done_at  # ...and never after it finished


def test_heartbeat_never_renews_a_stale_key(tmp_path, monkeypatch):
    """Stress the hand-over between the worker and its heartbeat
    thread: with very frequent thread switches, every renewal is for
    the job running at that moment, never for one already finished."""
    import random
    import sys
    import time

    renewed, stale = [], []
    heartbeat = FarmStore.heartbeat

    def checked(self, key, *args):
        renewed.append(key)
        if key != hb._key:  # the renewal runs under hb's lock
            stale.append(key)
        return heartbeat(self, key, *args)

    monkeypatch.setattr(FarmStore, "heartbeat", checked)
    hb = worker_mod._Heartbeat(str(tmp_path / "farm.sqlite"), "c", "w1",
                               FarmConfig(lease_secs=0.15))
    rng = random.Random(5)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(30):
            with hb.renewing(f"k{i}"):
                time.sleep(rng.uniform(0.0, 0.08))
    finally:
        sys.setswitchinterval(old)
        hb.close()
    assert not hb._thread.is_alive()
    assert renewed and stale == []


# ----------------------------------------------------------------------
# stalled-but-alive worker: duplicate execution, exactly-once rows
# ----------------------------------------------------------------------

def test_stalled_worker_duplicate_execution_keeps_one_row(tmp_path):
    """w1 claims, stalls past its lease without heartbeating; w2 runs
    the job and completes; then w1 wakes up and completes too.  The
    result store must hold exactly one row, bit-identical no matter
    who wrote it — the deterministic-simulation contract."""
    import time

    from repro.farm.exec import execute_job

    db = str(tmp_path / "farm.sqlite")
    spec = _spec(seeds=(5,), designs=[FenceDesign.S_PLUS])
    with FarmStore(db) as store:
        cid, _ = store.submit_campaign(spec)
        key, job1 = store.claim(cid, "w1", lease_secs=0.0)  # stalls now
        reclaimed = store.claim(cid, "w2", 30.0,
                                now=time.time() + 0.001)
        assert reclaimed is not None and reclaimed[0] == key
        job2 = reclaimed[1]
        assert job1 == job2
        row2 = execute_job(job2)
        assert store.complete(key, cid, "w2", row2) == "inserted"
        row1 = execute_job(job1)  # w1 wakes and finishes anyway
        assert row1 == row2  # deterministic: same spec, same row
        assert store.complete(key, cid, "w1", row1) == "duplicate"
        assert store.rows(cid) == {key: row2}  # single row, bit-identical
        assert store.result_count() == 1
        assert store.duplicates_total() == 1
        assert store.status(cid)["done"] == 1


# ----------------------------------------------------------------------
# poison jobs drain through quarantine, not livelock
# ----------------------------------------------------------------------

def test_poison_job_quarantines_and_campaign_still_finishes(
        tmp_path, monkeypatch):
    db = str(tmp_path / "farm.sqlite")
    diag = tmp_path / "diag"
    spec = _spec(seeds=(5,), designs=DESIGNS)  # 2 jobs
    poison = spec.expand()[0].content_key()
    from repro.farm.exec import execute_job as real

    def sometimes_poisoned(job, diag_dir=None):
        if job.content_key() == poison:
            raise RuntimeError("synthetic poison")
        return real(job, diag_dir)

    monkeypatch.setattr(worker_mod, "execute_job", sometimes_poisoned)
    cid, _ = campaign_mod.submit(db, spec, diag_dir=str(diag))
    cfg = FarmConfig(quarantine_after=3, backoff_base=0.01,
                     diag_dir=str(diag))
    # three distinct workers each hit the poison job (the retry
    # backoff gates each worker off it after one failure)
    import time as time_mod

    for worker in ("w1", "w2", "w3"):
        run_worker(db, cid, config=cfg, worker=worker, once=True)
        time_mod.sleep(0.05)  # let the poison job's backoff expire
    with FarmStore(db) as store:
        assert store.campaign_done(cid)
        st = store.status(cid)
        assert st["quarantined"] == 1 and st["done"] == 1
        (q,) = store.quarantined(cid)
        assert "synthetic poison" in q["last_error"]
        assert set(q["failed_workers"]) == {"w1", "w2", "w3"}
    assert list(diag.glob("quarantine_*.json"))  # the watchdog bundle
    # the collector refuses to pretend the quarantined row exists
    from repro.farm.clients import farm_run_matrix

    with pytest.raises(ConfigError, match="unproduced"):
        farm_run_matrix(["fib"], DESIGNS, num_cores=2, scale=0.06,
                        seed=5, db=db, workers=0)


# ----------------------------------------------------------------------
# the run_matrix client: bit-identical rows, journal export
# ----------------------------------------------------------------------

def test_farm_run_matrix_matches_local_run_matrix(tmp_path):
    from repro.eval.runner import run_matrix

    db = str(tmp_path / "farm.sqlite")
    kwargs = dict(names=["fib"], designs=DESIGNS, num_cores=2,
                  scale=0.06, seed=5)
    local = run_matrix(jobs=1, **kwargs)
    farmed = run_matrix(farm_db=db, farm_workers=0, **kwargs)
    assert farmed.keys() == local.keys()
    for key in local:
        assert (dataclasses.asdict(farmed[key])
                == dataclasses.asdict(local[key]))


def test_run_matrix_honours_farm_db_env(tmp_path, monkeypatch):
    from repro.eval.runner import run_matrix

    db = str(tmp_path / "farm.sqlite")
    monkeypatch.setenv("REPRO_FARM_DB", db)
    monkeypatch.setenv("REPRO_FARM_WORKERS", "0")
    rows = run_matrix(["fib"], [FenceDesign.S_PLUS], num_cores=2,
                      scale=0.06, seed=5)
    assert os.path.exists(db)
    assert len(rows) == 1


def test_farm_journal_export_is_readable_by_load_journal(tmp_path):
    from repro.eval.runner import load_journal, run_matrix

    db = str(tmp_path / "farm.sqlite")
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=DESIGNS, num_cores=2,
                  scale=0.06, seed=5)
    farmed = run_matrix(farm_db=db, farm_workers=0, journal=journal,
                        **kwargs)
    loaded = load_journal(journal)
    assert len(loaded) == len(farmed) == 2
    by_key = {(s.name, s.design, s.num_cores): s for s in loaded.values()}
    for key, summary in farmed.items():
        assert dataclasses.asdict(by_key[key]) == dataclasses.asdict(summary)


def test_farm_journal_export_appends_missing_after_torn_tail(tmp_path):
    """A journal with a torn tail and one missing row is healed by the
    farm export, not rewritten: existing complete lines survive."""
    from repro.eval.runner import load_journal, run_matrix

    db = str(tmp_path / "farm.sqlite")
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=DESIGNS, num_cores=2,
                  scale=0.06, seed=5)
    run_matrix(farm_db=db, farm_workers=0, journal=journal, **kwargs)
    lines = open(journal).readlines()
    assert len(lines) == 2
    with open(journal, "w") as fh:
        fh.write(lines[0])
        fh.write('{"name": "fib", "design"')  # torn mid-append, no \n
    resumed = run_matrix(farm_db=db, farm_workers=0, journal=journal,
                         resume=True, **kwargs)
    loaded = load_journal(journal)
    assert len(loaded) == len(resumed) == 2
    # the surviving complete line was kept verbatim (append-missing)
    assert open(journal).readlines()[0] == lines[0]


def test_farm_run_matrix_respects_journal_overwrite_guard(tmp_path):
    from repro.eval.runner import run_matrix

    db = str(tmp_path / "farm.sqlite")
    journal = str(tmp_path / "sweep.jsonl")
    kwargs = dict(names=["fib"], designs=[FenceDesign.S_PLUS],
                  num_cores=2, scale=0.06, seed=5)
    run_matrix(farm_db=db, farm_workers=0, journal=journal, **kwargs)
    with pytest.raises(ConfigError, match="already exists"):
        run_matrix(farm_db=db, farm_workers=0, journal=journal, **kwargs)
    run_matrix(farm_db=db, farm_workers=0, journal=journal,
               overwrite_journal=True, **kwargs)
    assert os.path.exists(journal + ".bak")


# ----------------------------------------------------------------------
# the chaos and perf clients
# ----------------------------------------------------------------------

def test_farm_chaos_matrix_matches_local(tmp_path):
    from repro.faults.chaos import run_chaos_matrix

    db = str(tmp_path / "farm.sqlite")
    kwargs = dict(scenarios=["noc_jitter"],
                  designs=[FenceDesign.S_PLUS], seeds=[1, 2])
    local = run_chaos_matrix(**kwargs)
    farmed = run_chaos_matrix(farm_db=db, farm_workers=0, **kwargs)
    assert farmed["cases"] == local["cases"]
    assert farmed["total_cases"] == 2


def test_farm_chaos_journal_round_trips(tmp_path):
    from repro.faults.chaos import _load_journal, run_chaos_matrix

    db = str(tmp_path / "farm.sqlite")
    journal = str(tmp_path / "chaos.jsonl")
    report = run_chaos_matrix(
        scenarios=["noc_jitter"], designs=[FenceDesign.S_PLUS],
        seeds=[1], farm_db=db, farm_workers=0, journal=journal)
    done = _load_journal(journal)
    assert len(done) == report["total_cases"] == 1


def test_farm_perf_profile_serves_cache_on_resubmit(tmp_path):
    from repro.perf.harness import run_profile

    db = str(tmp_path / "farm.sqlite")
    first = run_profile("tiny", reps=1, farm_db=db, farm_workers=0)
    second = run_profile("tiny", reps=1, farm_db=db, farm_workers=0)
    assert [c["key"] for c in first["cases"]] == [
        c["key"] for c in second["cases"]]
    # cached rows are identical down to the recorded wall timings
    assert first["cases"] == second["cases"]
