"""Integration tests of the control policy inside a live network.

Validates the dynamic behaviours the paper's evaluation depends on: the
policy tracks traffic phases, the stabiliser ablations behave as
documented, and the transition machinery pays its expected costs.
"""

import pytest

from dataclasses import replace

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.experiments.ablation import VARIANTS
from repro.network.simulator import Simulator
from repro.traffic.hotspot import HotspotTraffic, Phase
from repro.traffic.uniform import UniformRandomTraffic

NETWORK = NetworkConfig(mesh_width=3, mesh_height=3, nodes_per_cluster=4)
POLICY = PolicyConfig(window_cycles=150, history_windows=2)
TRANSITIONS = TransitionConfig(
    bit_rate_transition_cycles=3, voltage_transition_cycles=15,
    optical_transition_cycles=600, laser_epoch_cycles=1200,
)


def run_sim(traffic_rate=0.3, policy=POLICY, cycles=8000, seed=2,
            phases=None):
    power = PowerAwareConfig(technology=MODULATOR, policy=policy,
                             transitions=TRANSITIONS)
    config = SimulationConfig(network=NETWORK, power=power,
                              sample_interval=200)
    if phases is not None:
        traffic = HotspotTraffic(NETWORK.num_nodes, phases,
                                 hotspot_node=5, seed=seed)
    else:
        traffic = UniformRandomTraffic(NETWORK.num_nodes, traffic_rate,
                                       seed=seed)
    sim = Simulator(config, traffic)
    sim.run(cycles)
    return sim


class TestTracking:
    def test_levels_descend_then_recover(self):
        # Quiet phase, then a loud phase: sampled power must dip and rise.
        phases = (Phase(0, 0.02), Phase(4000, 1.2))
        sim = run_sim(phases=phases, cycles=8000)
        series = sim.power.power_series
        quiet = [w for t, w in series if 2500 <= t < 4000]
        loud = [w for t, w in series if 6500 <= t < 8000]
        assert max(quiet) < min(loud)

    def test_transitions_happen_on_phase_changes(self):
        phases = (Phase(0, 0.02), Phase(3000, 1.2), Phase(6000, 0.02))
        sim = run_sim(phases=phases, cycles=9000)
        totals = sim.power.transition_totals()
        assert totals["up"] > 0
        assert totals["down"] > totals["up"]  # descent at start + cooldown

    def test_sampled_power_matches_energy_integral(self):
        sim = run_sim(traffic_rate=0.2)
        sim.finalize()
        sampled = [w for _, w in sim.power.power_series]
        mean_sampled = sum(sampled) / len(sampled)
        mean_energy = sim.power.average_power(sim.cycle)
        assert mean_sampled == pytest.approx(mean_energy, rel=0.1)


class TestStabiliserAblations:
    def test_pressure_utilisation_preserves_throughput(self):
        # At a healthy medium load, the pressure-aware policy keeps
        # delivering; the literal busy-time policy loses throughput to
        # the starvation blind spot (the documented failure mode).
        literal = replace(POLICY, **VARIANTS["paper_literal"])
        healthy = run_sim(traffic_rate=0.9, policy=POLICY, cycles=10_000)
        degraded = run_sim(traffic_rate=0.9, policy=literal, cycles=10_000)
        healthy_fraction = (healthy.stats.packets_delivered
                            / healthy.stats.packets_created)
        assert healthy_fraction > 0.97
        assert healthy.stats.mean_latency < degraded.stats.mean_latency


class TestTransitionCosts:
    def test_ideal_transitions_no_worse(self):
        ideal_transitions = TransitionConfig(
            bit_rate_transition_cycles=0, voltage_transition_cycles=0,
            optical_transition_cycles=600, laser_epoch_cycles=1200,
        )
        phases = (Phase(0, 0.05), Phase(2000, 1.0), Phase(4000, 0.05),
                  Phase(6000, 1.0))

        def run_with(transitions):
            power = PowerAwareConfig(technology=MODULATOR, policy=POLICY,
                                     transitions=transitions)
            config = SimulationConfig(network=NETWORK, power=power,
                                      sample_interval=200)
            traffic = HotspotTraffic(NETWORK.num_nodes, phases,
                                     hotspot_node=5, seed=2)
            sim = Simulator(config, traffic)
            sim.run(8000)
            return sim.stats.mean_latency

        assert run_with(ideal_transitions) <= run_with(TRANSITIONS) * 1.05

    def test_disabled_cycles_accounted(self):
        sim = run_sim(traffic_rate=0.3)
        disabled = sum(pal.engine.disabled_cycles for pal in sim.power.links)
        transitions = sim.power.transition_totals()
        expected = (transitions["up"] + transitions["down"]) \
            * TRANSITIONS.bit_rate_transition_cycles
        assert disabled == pytest.approx(expected)
