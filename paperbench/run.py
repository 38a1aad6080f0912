"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a source checkout::

    python3 paperbench/run.py --workload paper_uniform --seed 1 \\
        --seconds 20 --trace 0

The workload repeats for ``--seconds`` seconds.  ``--trace 0`` prints the
end-to-end metrics of untraced repetitions; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics plus the
tracing overhead.  Every run's results are fingerprinted: at the
reference seed they must equal ``reference.json``, at any other seed the
repetitions must agree with each other.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: Scratch files (the sweep journal, worker records) live here, inside
#: the checkout the benchmark runs from.
WORKDIR = Path(".paperbench_work")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def import_program() -> Path:
    """Put the program's ``src/`` on the path; returns that directory."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program source at {src / 'repro'}; run from the "
            "root of a repro checkout")
    sys.path.insert(0, str(src))
    return src


def load_reference(workload: str, seed: int) -> tuple[dict | None, set]:
    """(fingerprints to match or None, labels a repetition must produce)."""
    data = json.loads(REFERENCE_PATH.read_text())
    fingerprints = data["workloads"][workload]
    if seed == data["seed"]:
        return fingerprints, set(fingerprints)
    return None, set(fingerprints)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = import_program()
    from workloads import REFERENCE_SEED, run_workload, workload_digest

    reference, labels = load_reference(args.workload, args.seed)
    WORKDIR.mkdir(exist_ok=True)
    try:
        outcome = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), reference=reference, labels=labels,
            workdir=WORKDIR, src=src)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    checked = ("checked against reference.json"
               if outcome.checked_against_reference else
               f"held-out seed (reference seed is {REFERENCE_SEED}); "
               "repetitions checked against each other")
    print(f"fingerprint {args.workload} seed={args.seed} "
          f"sha256={workload_digest(outcome.fingerprints)} ({checked})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
