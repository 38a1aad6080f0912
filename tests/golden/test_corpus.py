"""Tier-1 check of the golden-fingerprint corpus (see make_corpus.py).

A moved fingerprint means simulated results changed.  If that is the
intent, regenerate ``corpus.json`` and record the update in CHANGES.md.
"""

import pytest

from repro.experiments.ablation import VARIANTS
from tests.golden.make_corpus import (
    CASES,
    CYCLES,
    build_case,
    events_digest,
    fingerprint,
    load_corpus,
    run_case,
)

CORPUS = load_corpus()


def test_corpus_covers_exactly_the_case_grid():
    assert sorted(CORPUS) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_run_matches_its_fingerprint(case):
    pinned = dict(CORPUS[case.name])
    pinned_events = pinned.pop("events_digest")
    # The untraced run is the one pinned: only it takes the inline
    # deliver fast path.  Tracing must not change any result.
    assert fingerprint(run_case(case)) == pinned
    traced = run_case(case, traced=True)
    assert fingerprint(traced) == pinned
    assert events_digest(traced) == pinned_events


@pytest.mark.parametrize("case", [case for case in CASES
                                  if case.power == "slow"],
                         ids=lambda case: case.name)
def test_slow_case_overlaps_transitions(case):
    # The slow cases exist to pin runs where several links are
    # mid-transition in the same cycle; check that they still are.
    sim = build_case(case)
    peak = 0

    def on_window(start: int, end: int) -> None:
        nonlocal peak
        peak = max(peak, sum(pal.engine.in_transition
                             for pal in sim.power.links))

    sim.hooks.add("window", on_window)
    sim.run(CYCLES)
    assert peak >= 2


@pytest.mark.parametrize("case", [case for case in CASES
                                  if case.power == "optical"
                                  and case.load == "light"],
                         ids=lambda case: case.name)
def test_optical_case_epochs_judge_quiet_links(case):
    # The optical cases exist to pin laser epochs that judge only
    # replayed windows of quiet links (see make_corpus.py); check that
    # some link is quiet from before the last two epochs to the end.
    sim = build_case(case)
    quiet_since = {}

    def on_window(start: int, end: int) -> None:
        for pal in sim.power.links:
            if pal.quiet is None:
                quiet_since.pop(pal, None)
            else:
                quiet_since.setdefault(pal, end)

    sim.hooks.add("window", on_window)
    sim.run(CYCLES)
    assert quiet_since
    assert min(quiet_since.values()) <= CYCLES - 3 * sim.power.epoch


#: Each remaining policy stabiliser, by its ablation variant, and a
#: corpus case that the stabiliser changes.
STABILISER_CASES = {
    "no_guard": "mesh-heavy-clean-ladder-s1",
    "no_rescue": "mesh-burst-clean-hotspot-s1",
    "no_pressure": "mesh-light-clean-ladder-s1",
}


def test_every_stabiliser_variant_is_pinned():
    assert set(STABILISER_CASES) == set(VARIANTS) - {"full", "paper_literal"}


@pytest.mark.parametrize("variant", STABILISER_CASES)
def test_stabiliser_moves_its_case(variant):
    # A stabiliser that changes no pinned run is inert: delete it, or pin
    # the workload where it matters.
    name = STABILISER_CASES[variant]
    case = next(case for case in CASES if case.name == name)
    pinned = dict(CORPUS[name])
    del pinned["events_digest"]
    sim = build_case(case, policy_changes=VARIANTS[variant])
    sim.run(CYCLES)
    assert fingerprint(sim) != pinned
