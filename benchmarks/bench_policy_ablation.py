"""Ablation benchmark: the stabiliser additions to the paper's policy.

DESIGN.md documents three departures from the literal Table 1 policy
(stability guard, congestion rescue, pressure-aware utilisation).  This
benchmark runs the same medium-load workload with the full stabilised
policy and with the literal paper policy, demonstrating the congestion
cascade the stabilisers exist to prevent: the literal policy loses
throughput below saturation and pays far more latency.

Also microbenchmarks the controller decision path (it runs once per link
per window — cheapness matters).
"""

from repro.config import PolicyConfig
from repro.core.policy import LinkPolicyController
from repro.experiments.ablation import variant_policy
from repro.experiments.configs import power_config, reference_rates
from repro.experiments.fig5 import uniform_factory
from repro.experiments.runner import run_simulation

from conftest import run_once


def test_stabiliser_ablation(benchmark, smoke_scale):
    rate = reference_rates(smoke_scale.network)["medium"]

    def run_both():
        stabilised = run_simulation(
            smoke_scale, power_config(smoke_scale),
            uniform_factory(rate), label="stabilised",
        )
        literal = run_simulation(
            smoke_scale,
            power_config(
                smoke_scale,
                policy=variant_policy("paper_literal",
                                      smoke_scale.policy_window_cycles),
            ),
            uniform_factory(rate), label="literal",
        )
        return stabilised, literal

    stabilised, literal = run_once(benchmark, run_both)
    # The stabilised policy delivers the offered load...
    assert stabilised.delivery_fraction > 0.97
    # ...at lower latency than the literal policy's cascade regime.
    assert stabilised.mean_latency < literal.mean_latency
    # Both still save real power.
    assert stabilised.relative_power < 0.6


def test_policy_decision_throughput(benchmark):
    controller = LinkPolicyController(PolicyConfig())
    samples = [(0.1 * (i % 10), 0.05 * (i % 20)) for i in range(64)]

    def decide():
        for lu, bu in samples:
            controller.observe(lu, bu)

    benchmark(decide)
    assert sum(controller.decisions.values()) > 0
