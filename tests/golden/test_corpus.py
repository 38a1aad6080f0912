"""Tier-1 check of the golden-fingerprint corpus (see make_corpus.py).

A moved fingerprint means simulated results changed.  If that is the
intent, regenerate ``corpus.json`` and record the update in CHANGES.md.
"""

import pytest

from tests.golden.make_corpus import (
    CASES,
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
