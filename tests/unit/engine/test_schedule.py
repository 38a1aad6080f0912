"""Unit tests for the per-flit arrival calendar.

The calendar is exercised directly and through :meth:`Link.push`; the
simulator-level contract (drain check, reset, the inline receive) lives
in ``tests/unit/network/test_deliver_calendar.py`` and end-to-end
equivalence with the scanned path in the property suite.
"""

from repro.engine.schedule import DeliverySchedule
from repro.network.links import MESH, Link


class TestFiling:
    def test_add_keeps_the_calendar_nonempty_until_delivered(self):
        schedule = DeliverySchedule()
        assert not schedule
        schedule.add(0, "a", 2.0)
        schedule.add(1, "b", 2.5)
        schedule.add(0, "c", 5.0)
        assert schedule.pop_due(2) == [(0, "a")]
        assert schedule.pop_due(3) == [(1, "b")]
        assert schedule
        assert schedule.pop_due(5) == [(0, "c")]
        assert not schedule

    def test_link_push_files_into_the_calendar(self):
        schedule = DeliverySchedule()
        link = Link(4, MESH, propagation_cycles=1.0, service_time=1.5)
        link.calendar = schedule
        link.push("flit", 0.0)  # arrival 0 + 1.5 + 1.0 = 2.5
        assert not link.has_in_flight  # the deque is bypassed
        assert link.free_at == 1.5 and link.flits_carried == 1
        assert schedule.pop_due(2) == []
        assert schedule.pop_due(3) == [(4, "flit")]

    def test_link_without_calendar_keeps_its_deque(self):
        link = Link(0, MESH, propagation_cycles=1.0)
        link.push("flit", 0.0)
        assert link.pop_arrivals(2.0) == ["flit"]


class TestCalendarSemantics:
    def test_link_not_due_until_ceil_of_arrival(self):
        schedule = DeliverySchedule()
        schedule.add(0, "flit", 2.4)  # due at ceil(2.4) = 3
        assert schedule.pop_due(0) == []
        assert schedule.pop_due(1) == []
        assert schedule.pop_due(2) == []
        assert schedule.pop_due(3) == [(0, "flit")]

    def test_integral_arrival_is_due_that_cycle(self):
        schedule = DeliverySchedule()
        schedule.add(0, "flit", 3.0)
        assert schedule.pop_due(2) == []
        assert schedule.pop_due(3) == [(0, "flit")]

    def test_same_cycle_pops_come_out_in_link_id_order(self):
        schedule = DeliverySchedule()
        for link_id in (7, 2, 5, 0):
            schedule.add(link_id, f"f{link_id}", 1.0)
        popped = schedule.pop_due(1)
        assert [link_id for link_id, _ in popped] == [0, 2, 5, 7]

    def test_same_link_flits_stay_fifo(self):
        schedule = DeliverySchedule()
        schedule.add(3, "a", 0.6)
        schedule.add(1, "b", 0.7)
        schedule.add(3, "c", 0.8)
        schedule.add(1, "d", 0.9)
        assert schedule.pop_due(1) == [(1, "b"), (1, "d"),
                                       (3, "a"), (3, "c")]

    def test_already_popped_cycle_returns_nothing(self):
        schedule = DeliverySchedule()
        schedule.add(0, "flit", 2.0)
        assert schedule.pop_due(2) == [(0, "flit")]
        assert schedule.pop_due(2) == []
