"""Tier-1 check of the golden-fingerprint corpus (see make_corpus.py).

A moved fingerprint means simulated results changed.  If that is the
intent, regenerate ``corpus.json`` and record the update in CHANGES.md.
"""

import pytest

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
