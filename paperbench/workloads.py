"""The benchmark's workloads, their results check and their metrics.

Each workload is a repetition function: it builds its inputs from the
seed (set-up), runs the timed part and returns a :class:`Rep`.  The
program is driven only through the public entry points of
``repro.network``, ``repro.traffic`` and ``repro.experiments``.  Every
repetition starts from an empty simulated network and collects statistics
after its scale's ``warmup_cycles``.  One client process issues all the
work: it starts the next run only after the previous one has returned.

See README.md beside this file for why each workload exists and which
metric each layer is predicted to move.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time

from tracing import Tracer, WorkerProbe, install_layer_spans

#: The seed whose per-run fingerprints are committed in reference.json.
REFERENCE_SEED = 1

#: The program modules the workloads drive.
PROGRAM_MODULES = ("repro.experiments", "repro.experiments.faultsweep",
                   "repro.experiments.fig5", "repro.experiments.fig7",
                   "repro.network", "repro.traffic")


@dataclass(frozen=True)
class Size:
    """Run lengths of one benchmark size."""

    #: paper_uniform: cycles per run and statistics warm-up.
    paper_cycles: int
    paper_warmup: int
    #: splash_drain: experiment scale, its run budget (None keeps it)
    #: and how many traces of each benchmark one repetition replays.
    splash_scale: str
    splash_run_cycles: int | None
    splash_traces: int
    #: dse_sweep: cycles per sweep point and statistics warm-up.
    dse_cycles: int
    dse_warmup: int


FULL = Size(paper_cycles=3000, paper_warmup=500,
            splash_scale="bench", splash_run_cycles=None, splash_traces=5,
            dse_cycles=400, dse_warmup=100)
#: A seconds-long pass of every workload, for the self-tests.
TINY = Size(paper_cycles=120, paper_warmup=20,
            splash_scale="smoke", splash_run_cycles=6000, splash_traces=1,
            dse_cycles=100, dse_warmup=20)


def measure_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the program from ``src``.

    Imports happen once per process, so each repetition measures them in
    a child interpreter to repeat that part of the set-up too.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); "
            "start = time.perf_counter(); "
            f"import {', '.join(PROGRAM_MODULES)}; "
            "print(time.perf_counter() - start)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


@dataclass
class Rep:
    """What one repetition of a workload measured and produced."""

    #: Building simulators, traffic, traces and journal before the timed
    #: part; ``import_s`` is importing the program (untraced repetitions).
    setup_s: float
    routers: int
    #: The timed part, split into units (one run, one trace replay, one
    #: harness call): unit -> [wall seconds, CPU seconds].
    units: dict = field(default_factory=dict)
    cycles: int = 0
    flit_hops: int = 0
    #: Runs (paper_uniform, splash_drain) or distinct sweep points
    #: (dse_sweep) completed in the timed part.
    points: int = 0
    #: label -> RunResult, the outputs checked against the reference.
    results: dict = field(default_factory=dict)
    #: Checks beyond the per-label fingerprints, and how many failed.
    checks: int = 0
    check_failures: int = 0
    import_s: float = 0.0
    #: dse_sweep only: summed peak RSS of the largest pool's workers,
    #: resume-pass seconds, workers, point durations, warm-cache counters
    #: and the journal holding the fresh pass's points.
    worker_rss_kb: int = 0
    resume_s: float = 0.0
    workers: int = 0
    point_s: list = field(default_factory=list)
    warm_hits: int = 0
    warm_misses: int = 0
    journal: Path | None = None

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.units.values())


# -- scales -------------------------------------------------------------------


def paper_scale(size: Size):
    """The 8x8 mesh of 8-node racks (512 nodes) at a benchmark run length."""
    from repro.experiments import get_scale

    return replace(get_scale("paper"), run_cycles=size.paper_cycles,
                   warmup_cycles=size.paper_warmup, sample_interval=500)


def splash_scale(size: Size):
    from repro.experiments import get_scale

    scale = get_scale(size.splash_scale)
    if size.splash_run_cycles is not None:
        scale = replace(scale, run_cycles=size.splash_run_cycles)
    return scale


def dse_scale(size: Size):
    """The smoke network with sweep points a few hundred cycles long."""
    from repro.experiments import get_scale

    return replace(get_scale("smoke"), run_cycles=size.dse_cycles,
                   warmup_cycles=size.dse_warmup, sample_interval=100)


def _routers(scale) -> int:
    return scale.network.mesh_width * scale.network.mesh_height


def _flit_hops(sim) -> int:
    return sum(link.flits_carried for link in sim.network.links)


def _report(exc: BaseException, what: str) -> None:
    print(f"error: {what} raised {type(exc).__name__}: {exc}",
          file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- workloads ----------------------------------------------------------------


def paper_uniform(seed: int, size: Size, workdir: Path,
                  tracer: Tracer | None) -> Rep:
    """One power-aware run of the paper-shape network at medium load."""
    import repro.experiments as experiments
    from repro.traffic import UniformRandomTraffic

    scale = paper_scale(size)
    rate = experiments.reference_rates(scale.network)["medium"]
    start = perf_counter()
    sim = experiments.build_simulator(
        scale.network, experiments.power_config(scale),
        lambda nodes, s: UniformRandomTraffic(nodes, rate, seed=s),
        seed=seed, warmup_cycles=scale.warmup_cycles,
        sample_interval=scale.sample_interval,
    )
    rep = Rep(setup_s=perf_counter() - start, routers=_routers(scale))
    _timed_run(rep, "paper_uniform", sim,
               lambda: sim.run(scale.run_cycles))
    return rep


def splash_drain(seed: int, size: Size, workdir: Path,
                 tracer: Tracer | None) -> Rep:
    """The three SPLASH-like traces, each replayed until drained.

    A bench-scale trace holds only ~50 bursts, so its packet count swings
    by tens of percent from one seed to the next.  A repetition therefore
    replays ``splash_traces`` traces of each benchmark, seeded from
    ``seed``, so its totals move far less.  Each trace is built, replayed
    and dropped before the next.
    """
    import repro.experiments as experiments
    from repro.config import MODULATOR
    from repro.experiments import fig7
    from repro.experiments.runner import derive_seed
    from repro.traffic import BENCHMARKS

    scale = splash_scale(size)
    power = experiments.power_config(scale, technology=MODULATOR)
    budget = 2 * scale.run_cycles
    rep = Rep(setup_s=0.0, routers=_routers(scale))
    for benchmark in BENCHMARKS:
        factory = fig7.splash_factory(benchmark, scale)
        for index in range(size.splash_traces):
            label = f"splash/{benchmark}/{index}"
            start = perf_counter()
            sim = experiments.build_simulator(
                scale.network, power, factory,
                seed=derive_seed(seed, "splash", benchmark, index),
                warmup_cycles=scale.warmup_cycles,
                sample_interval=scale.sample_interval)
            rep.setup_s += perf_counter() - start
            rep.checks += 1
            drained = _timed_run(rep, label, sim,
                                 lambda: sim.run_until_drained(budget))
            if drained is False:
                print(f"error: {label} did not drain within {budget} "
                      "cycles", file=sys.stderr)
                rep.check_failures += 1
    return rep


def _timed_run(rep: Rep, label: str, sim, run):
    """Time ``run()`` plus result collection as one unit of ``rep``."""
    import repro.experiments as experiments

    outcome = None
    wall, cpu = perf_counter(), process_time()
    try:
        outcome = run()
        rep.results[label] = experiments.collect_result(sim, label)
    except Exception as exc:  # a failed run is a failed operation
        _report(exc, label)
    rep.units[label] = [perf_counter() - wall, process_time() - cpu]
    rep.cycles += sim.cycle
    rep.flit_hops += _flit_hops(sim)
    rep.points = len(rep.results)
    return outcome


def _sweeps():
    from repro.experiments import faultsweep, fig5

    return (("window", fig5.window_size_sweep),
            ("threshold", fig5.threshold_sweep),
            ("injection", fig5.injection_sweep),
            ("faults", faultsweep.run_margin_sweep))


def _reap_workers() -> None:
    """Wait for pool workers the executor shut down without waiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def dse_sweep(seed: int, size: Size, workdir: Path,
              tracer: Tracer | None) -> Rep:
    """Fig. 5 window/threshold/injection sweeps plus the fault sweep.

    The fresh pass runs on a new journal; the resume pass reruns the same
    four harness calls on it and must return equal results.
    """
    from repro.experiments import ExecutionPlan, SweepJournal

    scale = dse_scale(size)
    # One worker per CPU this process may run on (``nproc``), no more.
    workers = len(os.sched_getaffinity(0))
    probe_dir = workdir / "workers"
    journal_path = workdir / "sweep.journal"
    start = perf_counter()
    shutil.rmtree(probe_dir, ignore_errors=True)
    probe_dir.mkdir(parents=True)
    journal_path.unlink(missing_ok=True)
    SweepJournal(journal_path).close()
    fresh = ExecutionPlan(journal=str(journal_path), strict=True)
    resume = ExecutionPlan(journal=str(journal_path), resume=True,
                           strict=True)
    setup_s = perf_counter() - start

    probe = WorkerProbe(probe_dir, tracer)
    patcher = Tracer()
    probe.install(patcher)
    rep = Rep(setup_s=setup_s, routers=_routers(scale), workers=workers)
    outputs = {}
    try:
        for name, harness in _sweeps():
            wall, cpu = perf_counter(), process_time()
            try:
                outputs[name] = harness(scale, seed=seed,
                                        max_workers=workers,
                                        execution=fresh)
            except Exception as exc:  # its points count as missing
                _report(exc, f"dse_sweep/{name}")
            rep.units[name] = [perf_counter() - wall, process_time() - cpu]
            _fold_worker_records(rep, name, probe.collect(), tracer)
        _reap_workers()
        wall = perf_counter()
        for name, harness in _sweeps():
            rep.checks += 1
            try:
                again = harness(scale, seed=seed, max_workers=workers,
                                execution=resume)
            except Exception as exc:
                _report(exc, f"dse_sweep/{name} resume")
                again = None
            if name not in outputs or repr(again) != repr(outputs[name]):
                print(f"error: dse_sweep/{name}: the resume pass differs "
                      "from the fresh pass", file=sys.stderr)
                rep.check_failures += 1
        rep.resume_s = perf_counter() - wall
    finally:
        patcher.restore()
        _reap_workers()
    rep.journal = journal_path
    return rep


def read_journal(rep: Rep) -> None:
    """Load the points a sweep journaled as the repetition's results.

    Runs after a traced repetition's spans are removed, so these reads
    are not counted as the sweep's own journal traffic.
    """
    from repro.experiments import SweepJournal

    with SweepJournal(rep.journal) as journal:
        for entry in journal.attempt_log():
            if entry["outcome"] == "done":
                rep.results[entry["label"]] = journal.get(entry["key"])
    rep.points = len(rep.results)


def _fold_worker_records(rep: Rep, unit: str, records: list[dict],
                         tracer: Tracer | None) -> None:
    """Add one harness call's worker records to ``rep``."""
    pool_rss = 0
    for record in records:
        rep.cycles += record["cycles"]
        rep.flit_hops += record["flit_hops"]
        rep.point_s.extend(record["point_s"])
        rep.warm_hits += record["warm"]["hits"]
        rep.warm_misses += record["warm"]["misses"]
        if record["supervisor"]:
            continue
        rep.units[unit][1] += record["cpu_s"]
        pool_rss += record["maxrss_kb"]
        if tracer is not None:
            tracer.merge(record["cells"])
    rep.worker_rss_kb = max(rep.worker_rss_kb, pool_rss)


WORKLOADS = {
    "paper_uniform": paper_uniform,
    "splash_drain": splash_drain,
    "dse_sweep": dse_sweep,
}


# -- results check ------------------------------------------------------------


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(result) -> str:
    """Bit-identity fingerprint of one RunResult.

    Compared as ``repr`` text, which round-trips every float and renders
    NaN latencies stably (``nan != nan`` would fail equal runs).
    """
    return repr((
        result.label, result.cycles, result.packets_created,
        result.packets_delivered, result.mean_latency, result.p95_latency,
        result.max_latency, result.relative_power, result.accepted_rate,
        result.transitions_up, result.transitions_down,
        result.level_histogram, _digest(result.power_series),
        _digest(result.injection_series), result.reliability,
    ))


def workload_digest(fingerprints: dict[str, str]) -> str:
    return hashlib.sha256(
        repr(sorted(fingerprints.items())).encode()).hexdigest()


# -- the measuring loop -------------------------------------------------------


@dataclass
class Outcome:
    """Everything one invocation measured."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    fingerprints: dict[str, str]
    checked_against_reference: bool


def _run_rep(fn, seed: int, size: Size, workdir: Path,
             tracer: Tracer | None) -> Rep:
    if tracer is not None:
        install_layer_spans(tracer)
    try:
        rep = fn(seed, size, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    if rep.journal is not None:
        read_journal(rep)
    return rep


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 size: Size = FULL, reference: dict[str, str] | None = None,
                 labels: set[str] | None = None,
                 workdir: Path, src: Path) -> Outcome:
    """Repeat one workload for ``seconds`` (at least twice) and check
    every repetition.

    With ``reference`` every run's fingerprint must equal it; without,
    every repetition must equal the first.  ``labels`` names the runs or
    points a repetition must produce (missing or extra ones fail).  Traced
    invocations alternate untraced and traced repetitions so the tracing
    overhead is measured in the same process.
    """
    fn = WORKLOADS[name]
    tracer = Tracer() if trace else None
    untraced: list[Rep] = []
    traced: list[Rep] = []
    deadline = perf_counter() + seconds
    # At least two repetitions, so every invocation checks that repeats
    # agree, whatever ``seconds`` is.
    while len(untraced) + len(traced) < 2 or perf_counter() < deadline:
        rep = _run_rep(fn, seed, size, workdir, None)
        rep.import_s = measure_import_s(src)
        untraced.append(rep)
        if tracer is not None:
            traced.append(_run_rep(fn, seed, size, workdir, tracer))

    expected = reference
    if expected is None:
        expected = {label: fingerprint(result) for label, result
                    in untraced[0].results.items()}
    if labels is None:
        labels = set(expected)
    attempted = failed = 0
    for rep in untraced + traced:
        got = {label: fingerprint(result)
               for label, result in rep.results.items()}
        attempted += len(labels | set(got)) + rep.checks
        failed += rep.check_failures
        for label in sorted(labels | set(got)):
            if label not in labels:
                problem = "is unexpected"
            elif label not in got:
                problem = "is missing"
            elif got[label] != expected.get(label):
                problem = "differs from its expected fingerprint"
            else:
                continue
            print(f"error: {name}: {label} {problem}", file=sys.stderr)
            failed += 1
    fingerprints = {label: fingerprint(result)
                    for label, result in untraced[0].results.items()}
    if tracer is None:
        metrics = end_to_end(untraced, attempted, failed)
    else:
        metrics = per_layer(untraced, traced, tracer)
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   fingerprints=fingerprints,
                   checked_against_reference=reference is not None)


def _mean_finite(values) -> float:
    finite = [value for value in values if not math.isnan(value)]
    return sum(finite) / len(finite) if finite else 0.0


def end_to_end(reps: list[Rep], attempted: int,
               failed: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of the untraced repetitions.

    Times are summed over the units of the timed part, each unit taking
    its median over the repetitions; a noise spike on the host then costs
    one unit of one repetition, not the whole repetition.  Simulated work
    (cycles, hops, points) is the same in every correct repetition.
    """
    first = reps[0]
    results = list(first.results.values())
    wall = sum(statistics.median(rep.units[unit][0] for rep in reps)
               for unit in first.units)
    cpu = sum(statistics.median(rep.units[unit][1] for rep in reps)
              for unit in first.units)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_rss = max(rep.worker_rss_kb for rep in reps)
    return {
        "setup_s": (statistics.median(rep.import_s + rep.setup_s
                                      for rep in reps), "s"),
        "wall_s": (wall, "s"),
        "sim_cycles_per_s": (first.cycles / cpu, "cycles/s"),
        "flit_hops_per_s": (first.flit_hops / cpu, "hops/s"),
        "points_per_s": (first.points / wall, "1/s"),
        "peak_rss_mb": ((self_rss + worker_rss) / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "sim_relative_power": (
            _mean_finite([r.relative_power for r in results]), "ratio"),
        "sim_mean_latency_cycles": (
            _mean_finite([r.mean_latency for r in results]), "cycles"),
    }


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def per_layer(untraced: list[Rep], traced: list[Rep],
              tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: averages per traced repetition."""
    n = len(traced)
    t = tracer

    def per_rep(value: float) -> float:
        return value / n

    cycles = t.calls("network.deliver")
    results = [result for rep in traced for result in rep.results.values()]
    reliability = [r.reliability for r in results if r.reliability]
    point_s = [s for rep in traced for s in rep.point_s]
    workers = traced[0].workers
    wall = sum(rep.wall_s for rep in traced)
    busy = sum(point_s)
    warm = sum(rep.warm_hits + rep.warm_misses for rep in traced)
    gets = t.calls("experiments.journal_get")
    traced_wall = statistics.median(rep.wall_s for rep in traced)
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    metrics = {
        "network.route_s": (per_rep(t.self_s("network.route")), "s"),
        "network.route_calls": (per_rep(t.calls("network.route")), "count"),
        "network.receive_flit_s": (
            per_rep(t.self_s("network.receive_flit")), "s"),
        "network.receive_flit_calls": (
            per_rep(t.calls("network.receive_flit")), "count"),
        "network.deliver_s": (per_rep(t.self_s("network.deliver")), "s"),
        "network.inject_s": (per_rep(t.self_s("network.inject")), "s"),
        "network.inject_calls": (per_rep(t.calls("network.inject")),
                                 "count"),
        "network.loop_self_s": (per_rep(t.self_s("network.loop")), "s"),
        "network.cycles": (per_rep(cycles), "cycles"),
        "network.flit_hops": (
            per_rep(sum(rep.flit_hops for rep in traced)), "count"),
        "network.router_steps_per_cycle": (
            t.calls("network.route") / cycles if cycles else 0.0,
            "1/cycle"),
        "network.routers": (traced[0].routers, "count"),
        "engine.pop_due_s": (per_rep(t.self_s("engine.pop_due")), "s"),
        "engine.pop_due_calls": (per_rep(t.calls("engine.pop_due")),
                                 "count"),
        "engine.schedule_add_calls": (
            per_rep(t.calls("engine.schedule_add")), "count"),
        "engine.control_s": (per_rep(t.self_s("engine.control")), "s"),
        "engine.control_calls": (per_rep(t.calls("engine.control")),
                                 "count"),
        "engine.idle_cycle_frac": (
            1.0 - t.calls("network.busy_cycles") / cycles if cycles else 0.0,
            "ratio"),
        "core.on_window_s": (per_rep(t.self_s("core.on_window")), "s"),
        "core.on_window_calls": (per_rep(t.calls("core.on_window")),
                                 "count"),
        "core.policy_observe_calls": (
            per_rep(t.calls("core.policy_observe")), "count"),
        "core.sample_power_s": (per_rep(t.self_s("core.sample_power")),
                                "s"),
        "core.sample_power_calls": (
            per_rep(t.calls("core.sample_power")), "count"),
        "core.transitions": (
            per_rep(sum(r.transitions_up + r.transitions_down
                        for r in results)), "count"),
        "traffic.generate_s": (per_rep(t.self_s("traffic.generate")), "s"),
        "traffic.generate_calls": (per_rep(t.calls("traffic.generate")),
                                   "count"),
        "traffic.packets": (
            per_rep(sum(r.packets_created for r in results)), "count"),
        "traffic.trace_build_s": (
            per_rep(t.self_s("traffic.trace_build")), "s"),
        "experiments.construct_s": (
            per_rep(t.self_s("experiments.construct")), "s"),
        "experiments.construct_calls": (
            per_rep(t.calls("experiments.construct")), "count"),
        "experiments.reset_s": (per_rep(t.self_s("experiments.reset")), "s"),
        "experiments.reset_calls": (
            per_rep(t.calls("experiments.reset")), "count"),
        "experiments.run_s": (
            per_rep(t.total_s("network.loop")
                    + t.self_s("experiments.drain_check")), "s"),
        "experiments.collect_result_s": (
            per_rep(t.self_s("experiments.collect_result")), "s"),
        "experiments.journal_get_s": (
            per_rep(t.self_s("experiments.journal_get")), "s"),
        "experiments.journal_get_calls": (per_rep(gets), "count"),
        "experiments.journal_commit_s": (
            per_rep(t.self_s("experiments.journal_commit")), "s"),
        "experiments.journal_commit_calls": (
            per_rep(t.calls("experiments.journal_commit")), "count"),
        "experiments.resume_s": (
            per_rep(sum(rep.resume_s for rep in traced)), "s"),
        "experiments.point_s_p50": (_percentile(point_s, 0.50), "s"),
        "experiments.point_s_p85": (_percentile(point_s, 0.85), "s"),
        "experiments.point_count": (per_rep(len(point_s)), "count"),
        "experiments.executor_overhead_s": (
            per_rep(wall - busy / workers) if workers else 0.0, "s"),
        "experiments.parallel_efficiency": (
            busy / (workers * wall) if workers else 0.0, "ratio"),
        "experiments.warm_hit_ratio": (
            sum(rep.warm_hits for rep in traced) / warm if warm else 0.0,
            "ratio"),
        "experiments.journal_hit_ratio": (
            t.calls("experiments.journal_hit") / gets if gets else 0.0,
            "ratio"),
        "reliability.retransmissions": (
            per_rep(sum(r.flits_retransmitted for r in reliability)),
            "count"),
        "reliability.link_failures": (
            per_rep(sum(r.failed_links for r in reliability)), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": (
            (traced_wall - untraced_wall) / untraced_wall, "ratio"),
    }
    return metrics
