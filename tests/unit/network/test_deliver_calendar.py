"""The simulator's arrival-calendar deliver path (fault-free runs).

What the calendar owes the rest of the simulator: a flit pushed with
arrival ``a`` lands downstream at cycle ``ceil(a)`` through the inline
receive, violations still raise the canonical diagnostics, the drain
check sees filed flits, and a warm reset with flits still filed is
bit-identical to a fresh simulator.
"""

from math import ceil

import pytest

from repro.config import SimulationConfig
from repro.engine.schedule import DeliverySchedule
from repro.errors import SimulationError
from repro.network.links import EJECTION, MESH
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource
from repro.traffic.uniform import UniformRandomTraffic


class SilentTraffic(TrafficSource):
    """A source that never generates."""

    def generate(self, now):
        return []

    def exhausted(self, now):
        return True


def silent_sim(config: SimulationConfig) -> Simulator:
    return Simulator(config, SilentTraffic(config.network.num_nodes))


def head_flit(vc: int = 0):
    flit = Packet(0, 0, 1, 2, 0).make_flits()[0]
    flit.vc = vc
    return flit


def first_link(sim: Simulator, kind: str):
    return next(link for link in sim.network.links if link.kind == kind)


class TestInlineReceive:
    def test_flit_lands_exactly_at_ceil_of_arrival(self, tiny_baseline_config):
        sim = silent_sim(tiny_baseline_config)
        assert isinstance(sim._active_links, DeliverySchedule)
        link = first_link(sim, MESH)
        router, port = sim.network.sinks[link.link_id]
        link.set_service_time(1.5)
        flit = head_flit(vc=1)
        link.push(flit, 0)
        due = ceil(1.5 + link.propagation_cycles)
        for cycle in range(due):
            sim._phase_deliver(cycle)
            assert router.inputs[port].occupancy == 0
        sim._phase_deliver(due)
        ip = router.inputs[port]
        assert ip.occupancy == 1
        assert ip.vcs[1].buffer.head() is flit
        assert ip.nonempty == 0b10
        assert router._active_mask == 1 << port
        assert router in sim._active_routers

    def test_ejected_tail_completes_its_packet(self, tiny_baseline_config):
        sim = silent_sim(tiny_baseline_config)
        link = first_link(sim, EJECTION)
        node = sim.network.sinks[link.link_id]
        packet = Packet(0, 1, node.node_id, 1, 0)
        sim.stats.packet_created(packet, 0)
        link.push(packet.make_flits()[0], 0)
        sim.run(5)
        assert sim.stats.packets_delivered == 1
        assert sim.stats.in_flight == 0

    def test_bad_vc_raises_the_router_diagnostic(self, tiny_baseline_config):
        sim = silent_sim(tiny_baseline_config)
        link = first_link(sim, MESH)
        link.push(head_flit(vc=7), 0)
        with pytest.raises(SimulationError, match="outside"):
            sim.run(5)

    def test_overflow_raises_the_buffer_diagnostic(self, tiny_baseline_config):
        sim = silent_sim(tiny_baseline_config)
        link = first_link(sim, MESH)
        router, port = sim.network.sinks[link.link_id]
        capacity = router.inputs[port].vcs[0].buffer.capacity
        for cycle in range(capacity + 1):
            link.push(head_flit(vc=0), cycle)
        with pytest.raises(SimulationError, match="without credit"):
            for cycle in range(capacity + 10):
                sim._phase_deliver(cycle)


class TestDrainCheck:
    def test_not_drained_while_a_flit_is_filed(self, tiny_baseline_config):
        sim = silent_sim(tiny_baseline_config)
        assert sim._is_drained()
        link = first_link(sim, EJECTION)
        link.push(head_flit(), 0)
        assert sim._active_links and not sim._is_drained()
        sim.run(1)
        assert not sim._is_drained()  # still filed for a later cycle
        sim.run(4)
        assert not sim._active_links and sim._is_drained()


class TestResetWithFiledFlits:
    def test_reset_mid_flight_matches_fresh(self, tiny_sim_config):
        nodes = tiny_sim_config.network.num_nodes
        reused = Simulator(tiny_sim_config,
                           UniformRandomTraffic(nodes, 0.3, seed=1))
        reused.run(333)
        assert reused._active_links  # flits are filed past this cycle
        reused.reset(tiny_sim_config,
                     UniformRandomTraffic(nodes, 0.2, seed=2))
        assert not reused._active_links
        fresh = Simulator(tiny_sim_config,
                          UniformRandomTraffic(nodes, 0.2, seed=2))
        reused.run(600)
        fresh.run(600)
        assert reused.summary() == fresh.summary()
        assert reused.power.power_series == fresh.power.power_series
