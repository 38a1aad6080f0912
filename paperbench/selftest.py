"""Self-tests of the benchmark, on a tiny size of every workload.

Run from the root of a source checkout; exits 0 when every check holds::

    python3 paperbench/selftest.py

Checks, per workload:

* an untraced pass prints every end-to-end metric of BENCHMARK.json with
  its unit, and fails nothing;
* a traced pass prints every per-layer metric with its unit;
* a held-out seed gives repetitions that agree with each other;
* a perturbed reference fingerprint drives ``failed`` above 0 and
  ``ok_frac`` below 1.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

from run import HERE, WORKDIR, import_program
from workloads import TINY, WORKLOADS, run_workload


def _check_metrics(problems: list[str], where: str, metrics: dict,
                   declared: list[dict]) -> None:
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
            continue
        value, unit = metrics[name]
        if unit != spec["unit"]:
            problems.append(f"{where}: {name} has unit {unit!r}, "
                            f"BENCHMARK.json says {spec['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a number")
    extra = set(metrics) - {spec["name"] for spec in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")


def main() -> int:
    src = import_program()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems: list[str] = []
    WORKDIR.mkdir(exist_ok=True)
    try:
        for name in WORKLOADS:
            plain = run_workload(name, seed=1, seconds=0, trace=False,
                                 size=TINY, workdir=WORKDIR, src=src)
            _check_metrics(problems, f"{name} untraced", plain.metrics,
                           declared["end_to_end"])
            if plain.failed or plain.attempted < 1:
                problems.append(f"{name}: untraced pass failed "
                                f"{plain.failed}/{plain.attempted}")

            traced = run_workload(name, seed=1, seconds=0, trace=True,
                                  size=TINY, workdir=WORKDIR, src=src)
            _check_metrics(problems, f"{name} traced", traced.metrics,
                           declared["per_layer"])
            if traced.failed:
                problems.append(f"{name}: traced repetition differs from "
                                "the untraced one")

            held_out = run_workload(name, seed=5, seconds=1, trace=False,
                                    size=TINY, workdir=WORKDIR, src=src)
            if held_out.failed:
                problems.append(f"{name}: repetitions at a held-out seed "
                                "disagree")

            perturbed = dict(plain.fingerprints)
            label = sorted(perturbed)[0]
            perturbed[label] = perturbed[label].replace("(", "[", 1)
            checked = run_workload(name, seed=1, seconds=0, trace=False,
                                   size=TINY, reference=perturbed,
                                   workdir=WORKDIR, src=src)
            if checked.failed < 1 or checked.metrics["ok_frac"][0] >= 1.0:
                problems.append(f"{name}: a perturbed reference "
                                "fingerprint did not count as a failure")
            print(f"{name}: {plain.attempted} runs checked, "
                  f"{len(traced.metrics)} per-layer metrics")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
