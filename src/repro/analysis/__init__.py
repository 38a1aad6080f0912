"""Project-specific static analysis: ``repro check``.

The headline claims of this reproduction rest on invariants that no
general-purpose linter knows about:

* **determinism** — runs must be bit-identical across the serial,
  parallel, engine and table paths, so no unseeded global randomness,
  unsorted set iteration, ``id()`` ordering or wall-clock reads may enter
  a decision path;
* **unit consistency** — the photonics layer keeps watts / seconds /
  bits-per-second internally (:mod:`repro.units`), so mixed-unit
  arithmetic and raw scale constants are latent correctness bugs;
* **hook contracts** — every event fired by the engine must be a name the
  :class:`~repro.engine.hooks.HookRegistry` defines, with the call
  signature its subscribers expect;
* **hot-path purity** — the run loop, the step phases and the
  work-list scan paths must stay free of local imports, logging and
  avoidable allocation.

:mod:`repro.analysis` enforces those invariants mechanically at lint
time.  Run it as ``repro check`` or ``python -m repro.analysis``; see
``docs/static-analysis.md`` for the rule catalogue and suppression
syntax (``# repro: noqa[RULE-ID]``).
"""

from __future__ import annotations

from repro.analysis.framework import (
    Finding,
    Rule,
    Severity,
    run_check,
)
from repro.analysis.rules import all_rules

__all__ = ["Finding", "Rule", "Severity", "all_rules", "run_check"]
