"""Property tests: the arrival calendar delivers what the scan delivers.

Fault-free runs file every flit in the per-cycle arrival calendar; fault
runs keep each link's in-flight deque and scan the ``ActiveSet`` of busy
links.  Both must hand over the same flits, over the same links, in the
same cycles and the same order:

* over random push schedules on a real fabric, with mid-flight
  ``set_service_time`` retunes to the fractional rates of the paper's
  bit-rate ladder, the two deliver phases produce the same
  ``(cycle, link_id, flit)`` stream;
* whole runs through the calendar's inline receive are bit-identical to
  the same runs forced onto the scanned path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.core.levels import BitRateLadder
from repro.engine.active import ActiveSet
from repro.engine.schedule import DeliverySchedule
from repro.network.packet import Packet
from repro.network.simulator import Simulator
from repro.traffic.base import TrafficSource
from repro.traffic.uniform import UniformRandomTraffic

NETWORK = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                        buffer_depth=8, num_vcs=2,
                        link_propagation_cycles=1.5)
#: Pushes land in the first PUSH_CYCLES cycles, so same-cycle pushes on
#: several links (same-bucket arrivals) are common; every arrival is
#: due within the horizon (service <= 2 cycles plus propagation).
PUSH_CYCLES = 12
HORIZON = PUSH_CYCLES + 6
NUM_LINKS = NETWORK.num_nodes * 3

_LADDER = BitRateLadder.paper_default()
#: Service times of every ladder level: 1.0 at the top, 1.11, 1.25, ...
SERVICE_TIMES = tuple(_LADDER.max_rate / _LADDER.rate(level)
                      for level in range(_LADDER.num_levels))


class SilentTraffic(TrafficSource):
    def generate(self, now):
        return []

    def exhausted(self, now):
        return True


def use_scan_path(sim: Simulator) -> None:
    """Move a fault-free simulator onto the scanned fault-run path."""
    active = ActiveSet(lambda link: link.link_id)
    sim._active_links = active
    for link in sim.network.links:
        link.calendar = None
        link.registry = active


#: One scripted op: (cycle, link id, None for a push or a service time
#: to retune the link to).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=PUSH_CYCLES - 1),
        st.integers(min_value=0, max_value=NUM_LINKS - 1),
        st.one_of(st.none(), st.sampled_from(SERVICE_TIMES)),
    ),
    min_size=1, max_size=60,
)


def delivery_stream(ops, scanned: bool):
    """The ``(cycle, link_id, flit index)`` stream and the push count."""
    config = SimulationConfig(network=NETWORK, power=None)
    sim = Simulator(config, SilentTraffic(NETWORK.num_nodes))
    if scanned:
        use_scan_path(sim)
    else:
        assert type(sim._active_links) is DeliverySchedule
    stream: list[tuple[int, int, int]] = []
    links = sim.network.links
    for link in links:
        link.deliver = lambda flit, now: None  # observe, don't buffer
    sim.hooks.add("delivery", lambda link, flit, now: stream.append(
        (now, link.link_id, flit.index)))
    by_cycle: dict[int, list[tuple[int, float | None]]] = {}
    for cycle, link_id, retune in ops:
        by_cycle.setdefault(cycle, []).append((link_id, retune))
    packet = Packet(0, 0, 1, len(ops), 0)
    flits = iter(packet.make_flits())
    pushed = 0
    for cycle in range(HORIZON):
        sim._phase_deliver(cycle)
        for link_id, retune in by_cycle.get(cycle, ()):
            link = links[link_id]
            if retune is not None:
                link.set_service_time(retune)
            elif link.can_accept(cycle):
                link.push(next(flits), cycle)
                pushed += 1
    assert not sim._active_links  # everything filed was delivered
    return stream, pushed


class TestCalendarMatchesScan:
    @settings(max_examples=100, deadline=None)
    @given(ops=OPS)
    def test_same_delivery_stream(self, ops):
        stream, pushed = delivery_stream(ops, scanned=False)
        assert len(stream) == pushed
        assert (stream, pushed) == delivery_stream(ops, scanned=True)


def make_power() -> PowerAwareConfig:
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=60, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )


def run_one(rate: float, seed: int, scanned: bool):
    config = SimulationConfig(network=NETWORK, power=make_power(),
                              sample_interval=50)
    traffic = UniformRandomTraffic(NETWORK.num_nodes, rate, seed=seed)
    sim = Simulator(config, traffic)
    if scanned:
        use_scan_path(sim)
    sim.run(600)
    return sim.summary(), tuple(sim.power.power_series)


class TestInlineReceiveMatchesScan:
    @settings(max_examples=10, deadline=None)
    @given(rate=st.floats(min_value=0.05, max_value=0.5),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_runs_are_bit_identical(self, rate, seed):
        assert run_one(rate, seed, scanned=False) == \
            run_one(rate, seed, scanned=True)
