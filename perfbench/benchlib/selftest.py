"""Fast self-test of the benchmark at tiny sizes.

* every end-to-end metric of ``BENCHMARK.json`` prints, with its unit,
  on every workload (tracing off), and every per-layer one when traced;
* a clean tiny run of each workload has no failed job;
* a deliberately wrong pinned digest makes jobs fail (``ok_frac`` < 1),
  which shows the correctness gate is live;
* ``expected.json`` pins every job of the full-size default-seed grid.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List

from benchlib import common, fig89, sweeps

SPEC_PATH = os.path.join(common.ROOT, "BENCHMARK.json")


def _shrink() -> None:
    fig89.CASES = tuple((app, design, 0) for app in ("fib", "Counter")
                        for design in ("S_PLUS", "WS_PLUS"))
    fig89.CORES = 4
    fig89.SCALE = 0.05
    sweeps.N_SEEDS = 1
    sweeps.MIN_ROUNDS = 1
    sweeps.CACHED_REPEATS = 1
    sweeps.SETUP_TRIALS = 1


def _run(workload: str, trace: bool, expect: Callable) -> common.Result:
    """One tiny run with *expect* standing in for the pinned digests."""
    from run import run_workload

    fig89.expected_digests = sweeps.expected_digests = expect
    return run_workload(workload, common.DEFAULT_SEED + 1, 0.0, trace)


def main() -> int:
    from run import WORKLOADS, fill_unmeasured

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    full_cases = [fig89.case_key(c) for c in fig89.CASES]
    full_jobs = sweeps.grid_size()
    _shrink()
    problems: List[str] = []

    expected = common.load_expected()
    if sorted(expected["fig89"]) != sorted(full_cases) or \
            len(expected["sweep"]) != full_jobs:
        problems.append("expected.json does not pin the full grid")

    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            result = _run(workload, trace, lambda seed: {})
            fill_unmeasured(result, spec, trace)
            got = {k: m["unit"] for k, m in result.metrics.items()}
            if got != want:
                problems.append(
                    f"{workload} {kind}: missing {sorted(set(want) - set(got))}"
                    f", unexpected {sorted(set(got) - set(want))}, units "
                    f"differ for {sorted(k for k in want if k in got and got[k] != want[k])}")
            if result.failed:
                problems.append(f"{workload} {kind}: clean run failed: "
                                f"{result.failures[:3]}")
            print(f"{workload:14s} {kind:10s} {len(got)} metrics, "
                  f"{result.attempted} jobs, {result.failed} failed")

    wrong = {
        "fig89": lambda seed: {
            fig89.case_key(c): {"cycles": -1, "events": -1, "stats": "x"}
            for c in fig89.CASES},
        "sweep_local": lambda seed: {
            k: "0" * 20 for k in sweeps.reference(seed)[0]},
    }
    for workload, expect in wrong.items():
        result = _run(workload, False, expect)
        live = result.failed > 0 and result.metrics["ok_frac"]["value"] < 1
        print(f"{workload:14s} wrong digest: {result.failed} of "
              f"{result.attempted} jobs failed")
        if not live:
            problems.append(f"{workload}: a wrong pinned digest went unseen")

    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
