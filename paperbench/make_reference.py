"""Regenerate reference.json: every workload's run fingerprints at the
reference seed.

Run from the root of a source checkout, only when a change is meant to
alter simulated results (a speed-only change must leave them identical)::

    python3 paperbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE_PATH, WORKDIR, import_program
from workloads import REFERENCE_SEED, WORKLOADS, run_workload


def main() -> int:
    src = import_program()
    references = {}
    WORKDIR.mkdir(exist_ok=True)
    try:
        for name in WORKLOADS:
            outcome = run_workload(name, seed=REFERENCE_SEED, seconds=0,
                                   trace=False, workdir=WORKDIR, src=src)
            if outcome.failed:
                print(f"error: {name} failed its own repeat check",
                      file=sys.stderr)
                return 1
            references[name] = outcome.fingerprints
            print(f"{name}: {len(outcome.fingerprints)} fingerprints")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "workloads": references},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
