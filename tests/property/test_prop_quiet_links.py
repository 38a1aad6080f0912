"""Property tests: quiet links replay their window exactly.

:meth:`NetworkPowerManager._run_window` skips the window policy of a
quiet link (idle at the ladder bottom, or parked OFF) and replays its
last outcome.  The reference below is the window loop without that
path: it calls ``on_window`` on every link.  Over topologies, bursty
on/off traffic that falls silent before the run ends, the LINK_OFF
rung, one or three optical levels, faults and telemetry, both loops
must produce the same run: summaries, power series, event streams and,
for every link, its counters, Lu history, level, optical band state and
energy.
"""

import math
from types import MethodType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    MODULATOR,
    VCSEL,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.core.policy import HOLD
from repro.engine.wheel import PRI_TRANSITION
from repro.network.simulator import Simulator
from repro.reliability import FaultConfig
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import event_to_dict
from repro.traffic.onoff import OnOffTraffic

TOPOLOGIES = ("mesh", "torus", "cmesh", "line")


def reference_run_window(self, now: int) -> None:
    """The window loop before quiet links: every link is evaluated."""
    start = now - self.window
    hooks = self.hooks
    transition_hooks = hooks.transition if hooks is not None else ()
    policy_hooks = hooks.policy if hooks is not None else ()
    wheel = self._wheel
    for pal in self.links:
        decision = pal.on_window(start, now)
        if policy_hooks:
            for callback in policy_hooks:
                callback(pal, pal.last_lu, pal.last_bu, decision, now)
        if transition_hooks and decision != HOLD:
            for callback in transition_hooks:
                callback(pal, decision, now)
        if pal.engine.in_transition \
                and pal.engine.next_event != math.inf \
                and pal not in self._transitioning:
            self._transitioning.add(pal)
            wheel.schedule(pal.engine.next_event,
                           self._make_transition_wake(pal),
                           PRI_TRANSITION)
    if hooks is not None and hooks.window:
        for callback in hooks.window:
            callback(start, now)


class BurstsThenSilence(OnOffTraffic):
    """On/off traffic that stops at ``stop``, so the run ends idle."""

    def __init__(self, num_nodes: int, stop: int, **kwargs):
        super().__init__(num_nodes, **kwargs)
        self.stop = stop

    def generate(self, now: int):
        return super().generate(now) if now < self.stop else []


def network_for(topology: str, propagation: float) -> NetworkConfig:
    # cmesh concentration (2) must divide the grid dimensions.
    size = 4 if topology == "cmesh" else 3
    return NetworkConfig(mesh_width=size, mesh_height=size,
                         nodes_per_cluster=2, buffer_depth=8, num_vcs=2,
                         topology=topology,
                         link_propagation_cycles=propagation)


def link_state(pal) -> tuple:
    engine = pal.engine
    optical = pal.optical
    band_state = () if optical is None else (
        optical.band, optical.pending_band, optical.ready_at,
        optical.max_band_needed, optical.increases, optical.decreases,
        optical.guard_holds,
    )
    return (
        pal.windows_observed, dict(pal.policy.decisions),
        tuple(pal.policy._history), pal.pending_up, pal.guard_holds,
        pal.last_lu, pal.last_bu, pal.last_step_accepted,
        engine.level, engine.target, engine.state, engine.next_event,
        engine.steps_up, engine.steps_down, engine.sleeps, engine.wakes,
        engine.off_cycles, engine.disabled_cycles,
        band_state, pal.energy_watt_cycles,
    )


def outcome(sim: Simulator) -> tuple:
    power = sim.power
    events = ()
    if sim.telemetry is not None:
        sink = sim.telemetry.sink
        assert sink.dropped == 0
        events = tuple(repr(event_to_dict(event)) for event in sink.events())
    return (
        repr(sim.summary()), tuple(power.power_series), events,
        tuple(link_state(pal) for pal in power.links),
    )


@st.composite
def runs(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    optical_levels = draw(st.sampled_from((1, 3)))
    window = draw(st.integers(min_value=20, max_value=80))
    faults = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31))
    power = PowerAwareConfig(
        technology=MODULATOR if optical_levels == 3 else VCSEL,
        optical_levels=optical_levels,
        policy=PolicyConfig(
            window_cycles=window,
            history_windows=draw(st.integers(min_value=1, max_value=3)),
        ),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=draw(st.sampled_from((50, 300))),
            laser_epoch_cycles=draw(st.integers(min_value=60,
                                                max_value=300)),
            link_off_wake_cycles=draw(st.sampled_from((0, 50))),
        ),
        link_off=draw(st.booleans()),
    )
    # A propagation delay longer than the window leaves flits in flight
    # across a whole idle window.
    propagation = draw(st.sampled_from((1.0, 2.5, 100.0)))
    config = SimulationConfig(
        network=network_for(topology, propagation),
        power=power,
        seed=seed,
        warmup_cycles=50,
        sample_interval=40,
        # A noisy channel retransmits flits; the margin guard would
        # hold links above the ladder bottom, so it is off.
        faults=FaultConfig(seed=seed, received_power_w=13e-6,
                           margin_guard=False) if faults else None,
        telemetry=TelemetryConfig() if draw(st.booleans()) else None,
    )
    traffic = dict(
        stop=draw(st.integers(min_value=100, max_value=800)),
        injection_rate=draw(st.floats(min_value=0.02, max_value=0.4)),
        duty_cycle=draw(st.floats(min_value=0.1, max_value=0.6)),
        mean_burst_cycles=draw(st.floats(min_value=50.0, max_value=400.0)),
        seed=seed,
    )
    return config, traffic


def simulate(config: SimulationConfig, traffic: dict, *, reference: bool):
    sim = Simulator(config, BurstsThenSilence(config.network.num_nodes,
                                              **traffic))
    if reference:
        sim.power._run_window = MethodType(reference_run_window, sim.power)
    sim.run(2000)
    return sim


class TestQuietLinks:
    @settings(max_examples=25, deadline=None)
    @given(run=runs())
    def test_quiet_path_matches_the_reference_loop(self, run):
        config, traffic = run
        sim = simulate(config, traffic, reference=False)
        reference = simulate(config, traffic, reference=True)
        assert sim.power.quiet_windows > 0
        assert reference.power.quiet_windows == 0
        assert outcome(sim) == outcome(reference)
