"""Ablation harness for the policy stabilisers (DESIGN.md Section 7).

The reproduction adds three documented, switchable mechanisms on top of
the paper's literal Table 1 policy: the congestion down-scale guard, the
congestion rescue, and pressure-aware utilisation.  This harness runs the
same workload with each mechanism removed in turn (and with all removed =
the literal paper policy), so the contribution of every design choice is
measurable.

Used by ``benchmarks/bench_policy_ablation.py`` and runnable standalone::

    python -m repro.experiments.ablation --scale smoke
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.config import PolicyConfig
from repro.experiments.configs import (
    ExperimentScale,
    get_scale,
    power_config,
    reference_rates,
)
from repro.experiments.fig5 import uniform_factory
from repro.experiments.runner import run_simulation
from repro.metrics.ascii import format_table
from repro.metrics.summary import RunResult

#: Ablation variants: name -> PolicyConfig-overrides relative to default.
VARIANTS: dict[str, dict] = {
    "full": {},
    "no_guard": {"congestion_inhibits_downscale": False},
    "no_rescue": {"congestion_rescue": False},
    "no_pressure": {"pressure_aware_utilisation": False},
    "paper_literal": {
        "congestion_inhibits_downscale": False,
        "congestion_rescue": False,
        "pressure_aware_utilisation": False,
    },
}


def variant_policy(name: str, window_cycles: int) -> PolicyConfig:
    """The policy configuration for one ablation variant."""
    if name not in VARIANTS:
        raise KeyError(f"unknown variant {name!r}; known: {sorted(VARIANTS)}")
    return replace(PolicyConfig(window_cycles=window_cycles),
                   **VARIANTS[name])


def run_ablation(scale: ExperimentScale, load: str = "medium",
                 seed: int = 1,
                 variants: tuple[str, ...] | None = None
                 ) -> dict[str, RunResult]:
    """Run every variant on the same uniform workload."""
    rate = reference_rates(scale.network)[load]
    factory = uniform_factory(rate)
    names = variants or tuple(VARIANTS)
    results = {}
    for name in names:
        policy = variant_policy(name, scale.policy_window_cycles)
        power = power_config(scale, policy=policy)
        results[name] = run_simulation(
            scale, power, factory, label=f"ablation/{name}", seed=seed,
        )
    return results


def ablation_table(results: dict[str, RunResult]) -> str:
    """Render the ablation comparison as an aligned text table."""
    rows = []
    for name, result in results.items():
        rows.append([
            name,
            f"{result.mean_latency:.1f}",
            f"{result.relative_power:.3f}",
            f"{result.delivery_fraction:.3f}",
            result.transitions_up + result.transitions_down,
        ])
    return format_table(
        ["variant", "latency (cyc)", "rel power", "delivered", "transitions"],
        rows,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--load", default="medium",
                        choices=["light", "medium", "heavy"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    results = run_ablation(get_scale(args.scale), args.load, args.seed)
    print(ablation_table(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
