"""The link policy controller (paper Section 3.3, Eqs. 10-11, Table 1).

One controller sits at every link (Fig. 4(b)).  Hardware counters collect,
over each time window ``Tw``:

* ``Lu`` — link utilisation: the fraction of router cycles in which a flit
  traverses the output link (Eq. 10);
* ``Bu`` — buffer utilisation: the average fraction of the *next* router's
  input buffers that are occupied (Eq. 10), used as a congestion signal.

At each window boundary the controller averages ``Lu`` over a sliding
window of the last ``N`` samples (Eq. 11) and compares it against a
(TL, TH) threshold pair chosen by congestion state: when ``Bu`` exceeds
``Bu_con`` = 0.5, queueing delay masks link slowness, so the more
aggressive (higher) thresholds of Table 1 apply.

The controller is a pure decision function over its small internal history:
it never touches the link itself, which keeps it unit- and property-
testable.  The decision is ``+1`` (step one level up), ``-1`` (one level
down) or ``0`` (hold).
"""

from __future__ import annotations

from collections import deque

from repro.config import RESCUE_THRESHOLD, PolicyConfig
from repro.errors import ConfigError

STEP_UP = 1
HOLD = 0
STEP_DOWN = -1


class LinkPolicyController:
    """Windowed-utilisation bit-rate policy for one link."""

    __slots__ = ("config", "_history", "decisions")

    def __init__(self, config: PolicyConfig):
        self.config = config
        self._history: deque[float] = deque(maxlen=config.history_windows)
        #: Counts of (-1, 0, +1) decisions, for reporting.
        self.decisions = {STEP_DOWN: 0, HOLD: 0, STEP_UP: 0}

    @property
    def averaged_utilisation(self) -> float:
        """Eq. 11: mean link utilisation over the sliding history."""
        if not self._history:
            return 0.0
        return sum(self._history) / len(self._history)

    @property
    def settled_idle(self) -> bool:
        """Whether the history is full and holds only Lu = 0 samples.

        Observing (Lu, Bu) = (0, 0) then leaves the history as it is, so
        every such observation emits the same decision.
        """
        history = self._history
        return len(history) == history.maxlen and not any(history)

    def thresholds(self, bu: float) -> tuple[float, float]:
        """Table 1: the (TL, TH) pair in force for a congestion level."""
        if not 0.0 <= bu <= 1.0:
            raise ConfigError(f"Bu must lie in [0, 1], got {bu!r}")
        cfg = self.config
        if bu >= cfg.congestion_threshold:
            return cfg.threshold_low_congested, cfg.threshold_high_congested
        return cfg.threshold_low_uncongested, cfg.threshold_high_uncongested

    def observe(self, lu: float, bu: float) -> int:
        """Consume one window's (Lu, Bu) sample and emit a decision."""
        if not 0.0 <= lu <= 1.0:
            raise ConfigError(f"Lu must lie in [0, 1], got {lu!r}")
        self._history.append(lu)
        low, high = self.thresholds(bu)
        averaged = self.averaged_utilisation
        if self.config.congestion_rescue and bu >= RESCUE_THRESHOLD:
            # Congestion rescue: a nearly full downstream buffer means this
            # link is inside a congestion tree even if credit starvation
            # keeps its own utilisation low — recover in parallel.
            decision = STEP_UP
        elif averaged > high:
            decision = STEP_UP
        elif averaged < low:
            decision = STEP_DOWN
        else:
            decision = HOLD
        if (
            decision == STEP_DOWN
            and self.config.congestion_inhibits_downscale
            and bu >= self.config.congestion_threshold
        ):
            # Stability guard: a low Lu on a congested link means credit
            # starvation, not low demand — don't slow it further.
            decision = HOLD
        self.decisions[decision] += 1
        return decision

    def reset(self) -> None:
        """Restore the freshly-constructed state (link reconfiguration).

        Everything ``observe`` accumulates goes: the sliding history
        and the decision counters.  A controller that kept its counters
        across a reconfiguration would mis-report the new
        configuration's decision mix.
        """
        self._history.clear()
        self.decisions = {STEP_DOWN: 0, HOLD: 0, STEP_UP: 0}
