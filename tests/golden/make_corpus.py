"""Golden-fingerprint corpus: the case grid, the fingerprint, regeneration.

Every case is one tiny run over topology x load x seed, in one of three
power modes:

* ``aware``: the paper's power-aware links, x faults x ``link_off``;
* ``baseline``: no power management (``power=None``), x faults;
* ``slow``: bit-rate and voltage transitions (20 and 100 cycles) longer
  than the 60-cycle policy window, so many links are mid-transition at
  once; fault-free, on the ladder.

Its fingerprint is what the run produced:

* the :meth:`~repro.network.simulator.Simulator.summary`;
* for power-aware runs, the ladder-level histogram, the transition
  totals (ladder steps up/down, LINK_OFF sleeps/wakes) and a SHA-256
  digest of the sampled power series;
* a digest of the traced rerun's telemetry event stream.

Integers are pinned exactly.  Floats, inside the digests too, are pinned
at :data:`SIG_DIGITS` significant digits: Python 3.12 sums floats with
compensated summation, so the power manager's totals may move in the
last ulp between interpreter versions.

``test_corpus.py`` checks every case against ``corpus.json``.  Run this
file from the root of a source checkout to regenerate it, only when a
change is meant to alter simulated results, and record every update in
CHANGES.md::

    PYTHONPATH=src python tests/golden/make_corpus.py

While recording, every in-tree oracle must agree with the fingerprint
it writes: the traced rerun and a warm simulator reset onto the case
after other runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.config import (
    NetworkConfig,
    PolicyConfig,
    PowerAwareConfig,
    SimulationConfig,
    TransitionConfig,
)
from repro.network.links import MESH
from repro.network.simulator import Simulator
from repro.network.stats import StatsCollector
from repro.network.topology import NetworkFabric
from repro.reliability import FaultConfig, LinkFailure
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import event_to_dict
from repro.traffic.uniform import UniformRandomTraffic

CORPUS_PATH = Path(__file__).with_name("corpus.json")
TOPOLOGIES = ("mesh", "torus", "cmesh", "line")
#: Network-wide injection rate (packets/cycle) of each load level.
LOADS = {"light": 0.05, "moderate": 0.3, "heavy": 1.0}
SEEDS = (1, 2)
#: Long enough for idle links to walk down the ladder and sleep.
CYCLES = 700
SIG_DIGITS = 12


@dataclass(frozen=True)
class Case:
    topology: str
    load: str
    faults: bool
    link_off: bool
    seed: int
    power: str = "aware"

    @property
    def name(self) -> str:
        rung = self.power if self.power != "aware" else (
            "linkoff" if self.link_off else "ladder")
        return (f"{self.topology}-{self.load}-"
                f"{'faults' if self.faults else 'clean'}-{rung}-s{self.seed}")


CASES = (
    tuple(Case(*combo) for combo in itertools.product(
        TOPOLOGIES, LOADS, (False, True), (False, True), SEEDS))
    + tuple(Case(topology, load, faults, False, seed, "baseline")
            for topology, load, faults, seed in itertools.product(
                TOPOLOGIES, LOADS, (False, True), SEEDS))
    + tuple(Case(topology, load, False, False, seed, "slow")
            for topology, load, seed in itertools.product(
                TOPOLOGIES, LOADS, SEEDS))
)


def network_for(topology: str) -> NetworkConfig:
    # cmesh concentration (2) must divide the grid dimensions.
    size = 4 if topology == "cmesh" else 3
    return NetworkConfig(mesh_width=size, mesh_height=size,
                         nodes_per_cluster=2, buffer_depth=8, num_vcs=2,
                         topology=topology)


def faults_for(case: Case) -> FaultConfig:
    # A noisy channel with the margin guard off, so the ladder still
    # moves and low levels corrupt flits; the grids also lose a mesh
    # link (the line has no detour redundancy).
    noisy = FaultConfig(seed=case.seed, received_power_w=13e-6,
                        margin_guard=False)
    if case.topology == "line":
        return noisy
    fabric = NetworkFabric(network_for(case.topology), StatsCollector())
    link_id = next(link.link_id for link in fabric.links
                   if link.kind == MESH)
    return replace(noisy, failures=(LinkFailure(link_id, at_cycle=300),))


def power_for(case: Case) -> PowerAwareConfig | None:
    if case.power == "baseline":
        return None
    slow = case.power == "slow"
    return PowerAwareConfig(
        policy=PolicyConfig(window_cycles=60, history_windows=1),
        transitions=TransitionConfig(
            bit_rate_transition_cycles=20 if slow else 2,
            voltage_transition_cycles=100 if slow else 10,
            optical_transition_cycles=300, laser_epoch_cycles=400,
            link_off_wake_cycles=50,
        ),
        link_off=case.link_off,
    )


def build_case(case: Case, *, traced: bool = False,
               sim: Simulator | None = None) -> Simulator:
    """Set ``case`` up to run; reuse ``sim`` through ``reset`` if given."""
    # No stall watchdog: its delivery hook would keep every run off the
    # inline deliver fast path that the untraced run is meant to pin.
    config = SimulationConfig(
        network=network_for(case.topology), power=power_for(case),
        seed=case.seed,
        warmup_cycles=100, sample_interval=50,
        faults=faults_for(case) if case.faults else None,
        telemetry=TelemetryConfig() if traced else None,
    )
    traffic = UniformRandomTraffic(config.network.num_nodes,
                                   LOADS[case.load], seed=case.seed)
    if sim is None:
        return Simulator(config, traffic)
    sim.reset(config, traffic)
    return sim


def run_case(case: Case, **kwargs: Any) -> Simulator:
    """Build ``case`` (see :func:`build_case`) and run it."""
    sim = build_case(case, **kwargs)
    sim.run(CYCLES)
    return sim


def canonical(value: Any) -> Any:
    """``value`` with every float rounded to :data:`SIG_DIGITS` digits."""
    if isinstance(value, float):
        return float(f"{value:.{SIG_DIGITS}g}")
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest(value: Any) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(sim: Simulator) -> dict[str, Any]:
    """Pin a finished run, all but its telemetry stream."""
    power = sim.power
    if power is None:
        return {"summary": canonical(sim.summary())}
    return {
        "summary": canonical(sim.summary()),
        "levels": power.level_histogram(),
        "transitions": {**power.transition_totals(), **power.sleep_totals()},
        "power_digest": digest(power.power_series),
    }


def events_digest(sim: Simulator) -> str:
    """Digest of a traced run's whole telemetry event stream."""
    sink = sim.telemetry.sink
    assert sink.dropped == 0 and sink.emitted, "trace not fully retained"
    return digest([event_to_dict(event) for event in sink.events()])


def load_corpus() -> dict[str, dict[str, Any]]:
    return json.loads(CORPUS_PATH.read_text())


def check(case: Case, oracle: str, sim: Simulator,
          pinned: dict[str, Any]) -> None:
    got = fingerprint(sim)
    if got != pinned:
        raise SystemExit(f"error: {case.name}: the {oracle} run disagrees\n"
                         f"  pinned: {pinned}\n  {oracle}: {got}")


def main() -> int:
    corpus = {}
    warm: dict[str, Simulator] = {}
    for case in CASES:
        pinned = fingerprint(run_case(case))
        traced = run_case(case, traced=True)
        check(case, "traced", traced, pinned)
        sim = warm.get(case.topology)
        if sim is None:  # dirty the reused simulator with another point
            sim = run_case(replace(case, load="heavy", faults=True, seed=99))
        warm[case.topology] = sim = run_case(case, sim=sim)
        check(case, "warm", sim, pinned)
        corpus[case.name] = {**pinned, "events_digest": events_digest(traced)}
    old = load_corpus() if CORPUS_PATH.exists() else {}
    changed = sorted(name for name in corpus.keys() | old.keys()
                     if corpus.get(name) != old.get(name))
    # One case per line, so a moved fingerprint is a one-line diff.
    lines = (f" {json.dumps(name)}: {json.dumps(corpus[name], sort_keys=True)}"
             for name in sorted(corpus))
    CORPUS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(corpus)} cases, {len(changed)} changed")
    for name in changed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
