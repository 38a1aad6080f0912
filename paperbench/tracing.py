"""Span tracing installed from outside the simulator.

A traced repetition replaces selected functions of the program (class
attributes and module-level functions) with timing wrappers for its
length and puts the originals back afterwards; nothing under ``src/`` is
edited.  Spans are kept in memory as per-name cells of
``[self seconds, inclusive seconds, calls]``.  A span's self time is its
duration minus the durations of the spans it encloses, so the self times
of nested layers add up to the traced wall time without double counting.

Sweep points run in forked pool workers.  Patches installed before a pool
forks are inherited by its workers, and :class:`WorkerProbe` has each
worker write its counters to one small JSON file per process after every
point, which the supervising benchmark merges once the sweep returns.
"""

from __future__ import annotations

import json
import os
import resource
from pathlib import Path
from time import perf_counter, process_time


class Tracer:
    """In-memory span and counter cells, keyed by metric name."""

    def __init__(self) -> None:
        self.cells: dict[str, list[float]] = {}
        #: Open spans' accumulated child time; the bottom entry is a sink.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- cells -----------------------------------------------------------

    def cell(self, name: str) -> list[float]:
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = [0.0, 0.0, 0]
        return cell

    def clear(self) -> None:
        """Zero every cell in place (wrappers hold references to them)."""
        for cell in self.cells.values():
            cell[0] = cell[1] = 0.0
            cell[2] = 0
        del self._stack[1:]
        self._stack[0] = 0.0

    def snapshot(self) -> dict[str, list[float]]:
        return {name: list(cell) for name, cell in self.cells.items()}

    def merge(self, cells: dict[str, list[float]]) -> None:
        for name, (self_s, total_s, calls) in cells.items():
            cell = self.cell(name)
            cell[0] += self_s
            cell[1] += total_s
            cell[2] += calls

    def self_s(self, name: str) -> float:
        return self.cells.get(name, (0.0, 0.0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.cells.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return int(self.cells.get(name, (0.0, 0.0, 0))[2])

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        cell = self.cell(name)
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                cell[0] += elapsed - inner
                cell[1] += elapsed
                cell[2] += 1

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped in a call counter (no clock reads)."""
        cell = self.cell(name)

        def counted(*args, **kwargs):
            cell[2] += 1
            return fn(*args, **kwargs)

        return counted

    def busy_cycles(self, name: str, fn):
        """Count the distinct cycles in which ``fn(obj, now)`` ran at all."""
        cell = self.cell(name)
        last = [None]

        def tracked(obj, now):
            if now != last[0]:
                last[0] = now
                cell[2] += 1
            return fn(obj, now)

        return tracked

    def hits(self, name: str, fn):
        """Count the calls of ``fn`` that returned something not ``None``."""
        cell = self.cell(name)

        def tracked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                cell[2] += 1
            return result

        return tracked

    # -- patching --------------------------------------------------------

    def patch(self, owner: object, attr: str, *wrappers) -> None:
        """Replace ``owner.attr`` by the wrappers applied innermost first.

        ``attr`` must be defined on ``owner`` itself (not inherited), so
        :meth:`restore` puts back exactly what was there.
        """
        original = vars(owner)[attr]
        wrapped = original
        for wrap in wrappers:
            wrapped = wrap(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the network, engine, core, traffic and experiments layers.

    Call before the simulators of a traced repetition are built: links
    bind ``Router.receive_flit`` when the fabric is wired.
    """
    from functools import partial

    import repro.experiments as experiments
    from repro.core.manager import NetworkPowerManager
    from repro.core.policy import LinkPolicyController
    from repro.core.power_link import PowerAwareLink
    from repro.engine.schedule import DeliverySchedule
    from repro.engine.wheel import EventWheel
    from repro.experiments import fig7, warm
    from repro.experiments.journal import SweepJournal
    from repro.network.router import Router
    from repro.network.simulator import Simulator
    from repro.network.topology import Node
    from repro.traffic.base import PoissonSource
    from repro.traffic.trace import TraceReplaySource

    span, count = tracer.span, tracer.count
    patch = tracer.patch
    patch(Simulator, "__init__", partial(span, "experiments.construct"))
    patch(Simulator, "reset", partial(span, "experiments.reset"))
    patch(Simulator, "run_until_drained",
          partial(span, "experiments.drain_check"))
    patch(Simulator, "run", partial(span, "network.loop"))
    patch(Simulator, "_phase_deliver", partial(span, "network.deliver"))
    patch(Router, "step", partial(span, "network.route"),
          partial(tracer.busy_cycles, "network.busy_cycles"))
    patch(Router, "receive_flit", partial(span, "network.receive_flit"))
    patch(Node, "step", partial(span, "network.inject"))
    patch(DeliverySchedule, "pop_due", partial(span, "engine.pop_due"))
    patch(DeliverySchedule, "add", partial(count, "engine.schedule_add"))
    patch(EventWheel, "service", partial(span, "engine.control"))
    patch(PowerAwareLink, "on_window", partial(span, "core.on_window"))
    patch(LinkPolicyController, "observe",
          partial(count, "core.policy_observe"))
    patch(NetworkPowerManager, "sample_power",
          partial(span, "core.sample_power"))
    patch(PoissonSource, "generate", partial(span, "traffic.generate"))
    patch(TraceReplaySource, "generate", partial(span, "traffic.generate"))
    patch(fig7, "generate_splash_trace", partial(span, "traffic.trace_build"))
    for owner in (experiments, warm):
        patch(owner, "collect_result",
              partial(span, "experiments.collect_result"))
    patch(SweepJournal, "get", partial(tracer.hits, "experiments.journal_hit"),
          partial(span, "experiments.journal_get"))
    for attr in ("record_attempt", "record_done"):
        patch(SweepJournal, attr, partial(span, "experiments.journal_commit"))


class WorkerProbe:
    """Per-process counters of the sweep points a pool worker ran.

    Installed in the supervising process before the pool forks.  Each
    worker zeroes what it inherited on its first point, then after every
    point rewrites ``<directory>/<pid>.json`` with its running totals:
    simulated cycles, flit hops (``Link.flits_carried`` summed
    over the fabric), CPU seconds, peak RSS, warm-cache counters, point
    durations and, when a tracer is given, its span cells.  A point the
    executor runs in the supervisor itself (one pending point) is counted
    too, but its CPU time and spans are already the supervisor's own, so
    its record is flagged ``supervisor``.
    """

    def __init__(self, directory: Path, tracer: Tracer | None = None):
        self.directory = directory
        self.tracer = tracer
        self._supervisor = os.getpid()
        self._pid = self._supervisor
        self._totals = {"cycles": 0, "flit_hops": 0}
        self._point_s: list[float] = []

    def install(self, patcher: Tracer) -> None:
        from repro.experiments import warm

        patcher.patch(warm, "collect_result", self._wrap_collect)
        patcher.patch(warm, "run_point_warm", self._wrap_point)

    def _wrap_collect(self, collect):
        totals = self._totals

        def probed(sim, label):
            totals["cycles"] += sim.cycle
            totals["flit_hops"] += sum(
                link.flits_carried for link in sim.network.links)
            return collect(sim, label)

        return probed

    def _wrap_point(self, run_point):
        def probed(point, attempt=1):
            if os.getpid() != self._pid:
                self._pid = os.getpid()
                for key in self._totals:
                    self._totals[key] = 0
                self._point_s.clear()
                if self.tracer is not None:
                    self.tracer.clear()
            start = perf_counter()
            try:
                return run_point(point, attempt)
            finally:
                self._point_s.append(perf_counter() - start)
                self._dump()

        return probed

    def _dump(self) -> None:
        from repro.experiments import warm

        record = dict(self._totals)
        record["supervisor"] = os.getpid() == self._supervisor
        record["cpu_s"] = process_time()
        record["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        record["warm"] = warm.cache_info()
        record["point_s"] = self._point_s
        record["cells"] = (self.tracer.snapshot()
                           if self.tracer is not None
                           and not record["supervisor"] else {})
        path = self.directory / f"{os.getpid()}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(record))
        os.replace(scratch, path)

    def collect(self) -> list[dict]:
        """Read and delete every worker record written so far."""
        records = []
        for path in sorted(self.directory.glob("*.json")):
            records.append(json.loads(path.read_text()))
            path.unlink()
        return records
