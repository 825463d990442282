"""Recompute ``expected.json``: every job's simulated digest at the
default seed.  The simulated machine must stay bit-identical, so a later
change should never need to run this."""

from __future__ import annotations

import json

from benchlib import common, fig89, sweeps


def main() -> None:
    seed = common.DEFAULT_SEED
    expected = {
        "seed": seed,
        "fig89": {fig89.case_key(c): fig89.run_case(c, seed).digest
                  for c in fig89.CASES},
        "sweep": {k: common.digest(row)
                  for k, row in sorted(sweeps.reference(seed)[0].items())},
    }
    with open(common.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {common.EXPECTED_PATH}: {len(expected['fig89'])} fig89 "
          f"cases, {len(expected['sweep'])} sweep jobs")
