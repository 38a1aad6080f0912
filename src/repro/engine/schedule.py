"""Arrival calendar for fault-free links.

The deliver phase's job is "hand over every flit whose link arrival time
has passed".  The :class:`~repro.engine.active.ActiveSet` formulation scans
every link with *any* flit in flight, every cycle — but at load most active
links' next arrival is one or two cycles in the future (multi-cycle service
times at reduced bit rates plus propagation), so most of the scan is wasted.

A flit's arrival time is fully known the moment it is pushed:
``free_at + propagation_cycles``, the same float a link's in-flight
deque stores.  :class:`DeliverySchedule` is therefore a calendar of flit
arrivals: whoever serialises a flit (``Router._forward``, ``Node.step``,
``Link.push``) files ``(link_id, flit)`` straight into the bucket of
cycle ``ceil(arrival)`` — exactly the first integer cycle at which the
scan's ``arrival <= now`` test fires — and the deliver phase pops that
one bucket.  Each flit is filed once and delivered once.

A plain dict-of-lists beats a heap here because the simulator visits
every integer cycle in order, and arrivals always land on *future*
cycles (service time is positive, so ``ceil(arrival) > now`` at push
time): each bucket is built, popped once, and never revisited.  A
popped bucket is stably sorted by link id, so same-cycle deliveries come
out in ascending link order and FIFO per link — the order the sorted
active-set scan produces, keeping runs bit-identical (property-tested).

Only fault-free runs use the calendar.  Fault injection may *reschedule*
in-flight arrivals (retransmission backoff) and filters every arrival
through a CRC trial; those runs keep each link's in-flight deque and the
scanned ``ActiveSet`` path, where per-cycle re-checks are the point.
"""

from __future__ import annotations

from math import ceil
from operator import itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.network.flit import Flit

#: Sort key of a bucket entry: its link id (``list.sort`` is stable, so
#: one link's flits keep their filing order).
_LINK_ID = itemgetter(0)


class DeliverySchedule:
    """A per-cycle calendar of ``(link_id, flit)`` arrivals."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        #: due cycle -> [(link_id, flit), ...] in filing order.  The hot
        #: filers append here directly (the :meth:`add` body, inlined);
        #: a bucket exists only while it holds at least one flit.
        self._buckets: dict[int, list[tuple[int, "Flit"]]] = {}

    def add(self, link_id: int, flit: "Flit", arrival: float) -> None:
        """File ``flit`` for delivery over link ``link_id`` at ``arrival``."""
        due = ceil(arrival)
        bucket = self._buckets.get(due)
        if bucket is None:
            self._buckets[due] = [(link_id, flit)]
        else:
            bucket.append((link_id, flit))

    def __bool__(self) -> bool:
        """Whether any flit is filed and not yet delivered."""
        return bool(self._buckets)

    def pop_due(self, now: int) -> list[tuple[int, "Flit"]]:
        """Remove and return the arrivals due at cycle ``now``.

        Entries come out ascending by link id, FIFO per link.  The engine
        pops every cycle in order, so a bucket is never left behind.
        """
        bucket = self._buckets.pop(now, None)
        if bucket is None:
            return _NOTHING_DUE
        if len(bucket) > 1:
            bucket.sort(key=_LINK_ID)
        return bucket


#: Shared empty result for cycles with nothing due.
_NOTHING_DUE: list[tuple[int, "Flit"]] = []
