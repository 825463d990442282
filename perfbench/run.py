"""Repository benchmark: simulator throughput on the Fig. 8/9 matrix and
tiny-job sweeps through the local runner and the experiment farm.

One run::

    python3 perfbench/run.py --workload fig89 --seed 12345 --seconds 20 --trace 0

prints human-readable lines, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics (tracing off), ``--trace 1`` the per-layer ones
from a separate traced run.  Other modes::

    python3 perfbench/run.py --all [--trace 1]   # every workload, one line each
    python3 perfbench/run.py --self-test         # tiny sizes, fast
    python3 perfbench/run.py --pin               # rewrite expected.json

Run from the repository root; the simulator is imported from ``src/``.
Exit status: 0 when results were printed (a failed check shows as
``"correct": false`` and ``failed`` > 0), 1 when the self-test fails,
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import common  # noqa: E402

WORKLOADS = ("fig89", "sweep_local", "farm_campaign")


def _import_simulator() -> None:
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        raise SystemExit(f"error: no simulator sources under {common.SRC}")
    sys.path.insert(0, common.SRC)
    import repro  # noqa: F401


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> common.Result:
    from benchlib import fig89, sweeps

    result = common.Result()
    if workload == "fig89":
        (fig89.measure_traced if trace else fig89.measure)(
            seed, seconds, result)
    else:
        (sweeps.measure_traced if trace else sweeps.measure)(
            workload, seed, seconds, result)
    if not trace:
        result.put("ok_frac", result.ok_frac(), "frac")
    return result


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fill_unmeasured(result: common.Result, spec: dict, trace: bool) -> None:
    """Report the metrics a workload does not exercise (the farm's on
    fig89, say) as 0, so every run prints the full metric set."""
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in result.metrics:
            result.put(metric["name"], 0.0, metric["unit"])


def emit(workload: str, result: common.Result, provenance: dict,
         last: bool) -> None:
    for note in result.notes:
        print(note)
    for failure in result.failures[:20]:
        print(f"FAILED {failure}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, metric in result.metrics.items():
        print(f"  {workload:14s} {name:28s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    if not last:
        line = {"workload": workload, **line}
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-size check that every metric prints and "
                         "that a wrong pinned digest is caught")
    ap.add_argument("--pin", action="store_true",
                    help="recompute expected.json at the default seed")
    args = ap.parse_args(argv)
    if not (args.workload or args.all or args.self_test or args.pin):
        ap.error("one of --workload, --all, --self-test, --pin is required")

    common.clean_environment()
    try:
        _import_simulator()
    except (SystemExit, ImportError) as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    os.makedirs(common.WORK, exist_ok=True)
    try:
        if args.self_test:
            from benchlib import selftest
            return selftest.main()
        if args.pin:
            from benchlib import pin
            pin.main()
            return 0
        spec = load_spec()
        names = WORKLOADS if args.all else (args.workload,)
        for name in names:
            prov = common.Provenance(name, args.seed, args.seconds,
                                     bool(args.trace))
            try:
                result = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace))
            except Exception:
                traceback.print_exc()
                return 2
            fill_unmeasured(result, spec, bool(args.trace))
            emit(name, result, prov.finish(), last=not args.all)
        return 0
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string-hash randomization made the same simulation run up to
        # ~10% faster or slower from one interpreter to the next; pin it
        # (the simulated results do not depend on it)
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
