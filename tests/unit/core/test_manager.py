"""Unit tests for the network-wide power manager."""

import pytest

from repro.config import (
    MODULATOR,
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    TransitionConfig,
    VCSEL,
)
from repro.core.manager import (
    NetworkPowerManager,
    ladder_from_config,
    power_model_from_config,
)
from repro.engine.wheel import EventWheel
from repro.errors import ConfigError
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric


def make_manager(technology=VCSEL, optical_levels=1, window=100):
    network = NetworkConfig(mesh_width=2, mesh_height=2, nodes_per_cluster=2,
                            buffer_depth=8, num_vcs=2)
    topology = NetworkFabric(network, StatsCollector())
    power = PowerAwareConfig(
        technology=technology,
        optical_levels=optical_levels,
        policy=PolicyConfig(window_cycles=window, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=2, voltage_transition_cycles=10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
        ),
    )
    return NetworkPowerManager(topology, power, network), topology


def drive(manager, stop):
    """Fire the manager's wheel wake-ups due before cycle ``stop``.

    The first call schedules the manager on a fresh wheel, as the
    simulator does at cycle 0.
    """
    if manager._wheel is None:
        manager.schedule_events(EventWheel())
    wheel = manager._wheel
    while wheel.next_cycle < stop:
        wheel.service(int(wheel.next_cycle))


class TestConfigHelpers:
    def test_ladder_from_config(self):
        ladder = ladder_from_config(PowerAwareConfig())
        assert ladder.num_levels == 6
        assert ladder.max_rate == 10e9

    def test_power_model_selection(self):
        assert power_model_from_config(
            PowerAwareConfig(technology=VCSEL)).technology == "vcsel"
        assert power_model_from_config(
            PowerAwareConfig(technology=MODULATOR)).technology == "modulator"


class TestConstruction:
    def test_one_power_link_per_fiber(self):
        manager, topology = make_manager()
        assert len(manager.links) == len(topology.links)

    def test_vcsel_never_gets_optical_controller(self):
        manager, _ = make_manager(technology=VCSEL)
        assert all(pal.optical is None for pal in manager.links)

    def test_modulator_three_levels_gets_controllers(self):
        manager, _ = make_manager(technology=MODULATOR, optical_levels=3)
        assert all(pal.optical is not None for pal in manager.links)

    def test_modulator_single_level_has_no_controllers(self):
        manager, _ = make_manager(technology=MODULATOR, optical_levels=1)
        assert all(pal.optical is None for pal in manager.links)

    def test_unsupported_optical_level_count(self):
        with pytest.raises(ConfigError):
            make_manager(technology=MODULATOR, optical_levels=2)


class TestDriving:
    def test_idle_network_scales_down_over_windows(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        histogram = manager.level_histogram()
        assert histogram[0] == len(manager.links)

    def test_power_decreases_from_baseline(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        manager.finalize(2000)
        assert manager.relative_power(2000) < 1.0

    def test_relative_power_one_when_pinned(self):
        # A manager whose window never fires keeps all links at max.
        manager, _ = make_manager(window=10_000)
        drive(manager, 100)
        manager.finalize(100)
        assert manager.relative_power(100) == pytest.approx(1.0)

    def test_minimum_relative_power_matches_model(self):
        manager, _ = make_manager(window=50)
        drive(manager, 4000)
        manager.finalize(4000)
        floor = manager.power_model.power(5e9) / manager.power_model.max_power
        # Long idle run converges to the 5 Gb/s floor (plus the descent
        # transient at the start).
        assert manager.relative_power(4000) == pytest.approx(floor, abs=0.05)

    def test_power_series_sampling(self):
        manager, _ = make_manager()
        manager.sample_power(0)
        manager.sample_power(100)
        assert len(manager.power_series) == 2
        assert manager.power_series[0][1] == pytest.approx(
            manager.baseline_power()
        )

    def test_transition_totals_accumulate(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        totals = manager.transition_totals()
        assert totals["down"] > 0
        assert totals["up"] == 0  # idle network never climbs

    def test_average_power_requires_positive_cycles(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigError):
            manager.average_power(0)


class TestFinalizeIdempotence:
    def test_repeated_finalize_accrues_no_energy(self):
        manager, _ = make_manager(window=50)
        drive(manager, 2000)
        manager.finalize(2000)
        first = manager.total_energy_watt_cycles()
        manager.finalize(2000)
        manager.finalize(1500)  # at/before the last finalize: a no-op
        assert manager.total_energy_watt_cycles() == first
        assert manager.relative_power(2000) == manager.relative_power(2000)

    def test_later_finalize_extends_the_integral(self):
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        manager.finalize(1000)
        first = manager.total_energy_watt_cycles()
        drive(manager, 2000)
        manager.finalize(2000)
        assert manager.total_energy_watt_cycles() > first

    class _PoisonLinks:
        """Raises if the summary path walks the per-link list again."""

        def __iter__(self):
            raise AssertionError("post-finalize summary walked the links")

        def __len__(self):  # pragma: no cover - shape compatibility only
            return 0

    def test_post_finalize_summary_is_o1(self):
        # baseline_power is cached at construction and the energy total at
        # finalize; repeated summary-path queries must not touch the links.
        manager, _ = make_manager(window=50)
        drive(manager, 1000)
        manager.finalize(1000)
        expected_energy = manager.total_energy_watt_cycles()
        expected_baseline = manager.baseline_power()
        manager.links = self._PoisonLinks()
        assert manager.total_energy_watt_cycles() == expected_energy
        assert manager.baseline_power() == expected_baseline
        assert manager.relative_power(1000) == \
            expected_energy / 1000 / expected_baseline
        manager.finalize(1000)  # idempotent re-finalize must not walk either
        manager.finalize(800)

    def test_baseline_power_cached_at_construction(self):
        manager, topology = make_manager()
        expected = len(topology.links) * manager.table.max_power
        manager.links = self._PoisonLinks()
        assert manager.baseline_power() == pytest.approx(expected)

    def test_simulator_summary_is_repeatable(self, tiny_sim_config):
        from repro.network.simulator import Simulator
        from repro.traffic.uniform import UniformRandomTraffic

        traffic = UniformRandomTraffic(
            tiny_sim_config.network.num_nodes, 0.2, seed=5)
        sim = Simulator(tiny_sim_config, traffic)
        sim.run(1500)
        first = sim.summary()
        second = sim.summary()
        assert first == second
        assert sim.power.total_energy_watt_cycles() == \
            sim.power.total_energy_watt_cycles()


class TestReporting:
    def test_link_report_rows(self):
        manager, topology = make_manager(window=50)
        drive(manager, 500)
        manager.finalize(500)
        rows = manager.link_report(500)
        assert len(rows) == len(topology.links)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"injection", "ejection", "mesh"}
        for row in rows:
            assert row["avg_power_w"] > 0.0
            assert 0 <= row["level"] <= manager.ladder.top_level

    def test_energy_by_kind_sums_to_total(self):
        manager, _ = make_manager(window=50)
        drive(manager, 500)
        manager.finalize(500)
        by_kind = manager.energy_by_kind(500)
        assert sum(by_kind.values()) == pytest.approx(
            manager.average_power(500)
        )

    def test_report_requires_positive_cycles(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigError):
            manager.link_report(0)
        with pytest.raises(ConfigError):
            manager.energy_by_kind(-1)


class TestModelReplacement:
    def test_replace_before_run(self):
        from repro.photonics.measured import MeasuredLinkPowerModel

        manager, _ = make_manager()
        measured = MeasuredLinkPowerModel(samples=(
            (5e9, 0.055), (10e9, 0.280),
        ))
        manager.replace_power_model(measured)
        assert manager.power_model is measured
        for pal in manager.links:
            assert pal.level_powers[-1] == pytest.approx(0.280)
            assert pal.level_powers[0] == pytest.approx(0.055)

    def test_replace_after_energy_accrued_refused(self):
        from repro.photonics.electrical import ElectricalLinkModel

        manager, _ = make_manager(window=50)
        drive(manager, 200)
        manager.finalize(200)
        with pytest.raises(ConfigError):
            manager.replace_power_model(
                ElectricalLinkModel().as_power_model())

    def test_baseline_power_follows_replacement(self):
        from repro.photonics.electrical import ElectricalLinkModel

        manager, _ = make_manager()
        model = ElectricalLinkModel().as_power_model()
        manager.replace_power_model(model)
        assert manager.baseline_power() == pytest.approx(
            len(manager.links) * model.max_power
        )


class TestTransitionIterationDeterminism:
    """The determinism contract forbids unordered-set iteration in any
    decision path.  ``_transitioning`` is a set of identity-hashed links,
    so transitions must be advanced by wheel wake-ups, which fire in
    scheduling order (link-id order within a window), never by walking
    the set."""

    def test_wakeups_run_in_link_id_order(self, monkeypatch):
        from repro.core.power_link import PowerAwareLink

        manager, _ = make_manager(window=50)
        advanced: list[tuple[int, int]] = []
        original = PowerAwareLink.advance

        def spy(self, now):
            advanced.append((now, self.link.link_id))
            original(self, now)

        monkeypatch.setattr(PowerAwareLink, "advance", spy)
        # An idle first window makes every link request a down-step at the
        # same boundary: all of them enter _transitioning together.
        drive(manager, 51)
        assert len(manager._transitioning) == len(manager.links)
        drive(manager, 70)
        assert {link_id for _, link_id in advanced} == \
            {pal.link.link_id for pal in manager.links}
        assert advanced == sorted(advanced)

    def test_completed_transitions_discarded_during_iteration(self):
        manager, _ = make_manager(window=50)
        drive(manager, 51)
        assert manager._transitioning
        # The 12-cycle down transitions (2 relock + 10 ramp) all finish
        # well before the next window, and each completion's wake-up
        # must drop its link from the set.
        drive(manager, 70)
        assert not manager._transitioning
        assert all(pal.engine.steps_down == 1 for pal in manager.links)
