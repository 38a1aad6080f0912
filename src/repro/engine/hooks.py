"""Typed observer hooks for the simulation engine.

Anything that wants to watch a run — the per-phase wall-time profiler, the
stall watchdog, level-over-time samplers in :mod:`repro.metrics.inspect`,
tests — attaches here instead of being hard-wired into ``Simulator.step``.
The registry is intentionally dumb: plain callback lists per event, fired
synchronously in registration order.  Empty lists cost one truthiness
check on the hot path.

Events
------
``phase_start`` / ``phase_end``
    ``cb(phase_name, cycle)`` around each simulator phase (``deliver``,
    ``route``, ``inject``, ``generate``, ``control``).  ``step()`` checks
    for them every cycle, so they take effect from the next cycle.
``window``
    ``cb(start_cycle, end_cycle)`` after the power manager has evaluated
    every link's policy at a window boundary.
``transition``
    ``cb(power_link, decision, now)`` for every non-hold policy decision
    (the :data:`~repro.core.policy.STEP_UP`/``STEP_DOWN`` constants).
``policy``
    ``cb(power_link, lu, bu, decision, now)`` for *every* link's
    window-boundary policy evaluation (including holds), carrying the
    utilisation readings the decision was made from.  Fired per link per
    window, so it is cheap in aggregate but hotter than ``window``.
``power_sample``
    ``cb(now, watts)`` after each instantaneous network power sample is
    recorded to the power series.
``delivery``
    ``cb(link, flit, now)`` for every flit delivered off a link into a
    downstream buffer or node sink.  This is the hottest hook; it is only
    evaluated while at least one callback is registered.
``packet_delivered``
    ``cb(packet, now)`` when a packet's tail flit reaches its destination
    node (fired through the stats collector).  Use this for packet-level
    observation: it fires once per packet, not once per flit per link
    like ``delivery``, so it is orders of magnitude cheaper.
``fault``
    ``cb(link, flit, now)`` when a flit fails its CRC check at the
    receiving end of a link (fault-injected runs only).
``retransmit``
    ``cb(link, flit, attempt, now)`` when a corrupted flit's
    retransmission is scheduled (``attempt`` counts from 1).
``link_failure``
    ``cb(link, now)`` when a scheduled hard link failure takes effect.

The three ``exec_*`` events are fired by the sweep executor
(:mod:`repro.experiments.executor`), not by the simulator: a registry
also fronts the execution harness so sweep-lifecycle observers (the
executor trace recorder, tests) attach exactly like run observers do.

``exec_point``
    ``cb(label, key, status, attempt, elapsed)`` when a sweep point
    reaches a terminal state: ``status`` is ``"done"`` (executed),
    ``"cached"`` (served from the journal, ``attempt`` 0) or
    ``"failed"`` (retries exhausted).  ``elapsed`` is wall seconds
    across every attempt.
``exec_retry``
    ``cb(label, key, attempt, cause, delay)`` when a failed attempt is
    scheduled for retry after ``delay`` seconds of backoff; ``cause``
    is ``"error"``, ``"timeout"`` or ``"crash"``.
``exec_crash``
    ``cb(label, key, attempt, cause)`` when a worker-process death is
    detected under a point (pool breakage, or a hard-timeout kill).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigError

#: The hook points a :class:`HookRegistry` exposes.
EVENTS = ("phase_start", "phase_end", "window", "transition", "policy",
          "power_sample", "delivery", "packet_delivered", "fault",
          "retransmit", "link_failure", "exec_point", "exec_retry",
          "exec_crash")

#: A hook callback.  Signatures are per-event (see the module docstring);
#: return values are ignored.
Hook = Callable[..., object]


class HookRegistry:
    """Callback lists for each engine event."""

    __slots__ = EVENTS

    # One list per EVENTS entry.  The explicit annotations mirror EVENTS
    # so attribute access type-checks; test_hooks asserts they stay in
    # sync with the tuple.
    phase_start: list[Hook]
    phase_end: list[Hook]
    window: list[Hook]
    transition: list[Hook]
    policy: list[Hook]
    power_sample: list[Hook]
    delivery: list[Hook]
    packet_delivered: list[Hook]
    fault: list[Hook]
    retransmit: list[Hook]
    link_failure: list[Hook]
    exec_point: list[Hook]
    exec_retry: list[Hook]
    exec_crash: list[Hook]

    def __init__(self) -> None:
        for event in EVENTS:
            setattr(self, event, [])

    @property
    def instrumented(self) -> bool:
        """Whether any phase-boundary hook is registered."""
        return bool(self.phase_start or self.phase_end)

    def add(self, event: str, callback: Hook) -> Hook:
        """Register ``callback`` for ``event``; returns the callback."""
        if event not in EVENTS:
            raise ConfigError(
                f"unknown hook event {event!r}; known: {EVENTS}"
            )
        if not callable(callback):
            raise ConfigError(f"hook callback must be callable, got {callback!r}")
        hooks: list[Hook] = getattr(self, event)
        hooks.append(callback)
        return callback

    def remove(self, event: str, callback: Hook) -> None:
        """Deregister a previously added callback."""
        if event not in EVENTS:
            raise ConfigError(
                f"unknown hook event {event!r}; known: {EVENTS}"
            )
        hooks: list[Hook] = getattr(self, event)
        try:
            hooks.remove(callback)
        except ValueError:
            raise ConfigError(
                f"callback {callback!r} is not registered for {event!r}"
            ) from None
