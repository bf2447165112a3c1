"""Criticality predictor (Section 5.3, *Criticality Estimation*).

"We mark a µop critical if it was at the head of the ROB when it completed
during previous executions. [...] We use an 8K-entry direct-mapped table
containing small signed counters (4-bit in our experiments). A counter is
incremented if a µop has been found critical during the last execution,
and decremented otherwise. The prediction is then given by the most
significant bit." Off the critical path, updated at retire time.
"""

from __future__ import annotations


class CriticalityPredictor:
    """8K x 4-bit signed counters indexed by PC."""

    def __init__(self, entries: int = 8192, ctr_bits: int = 4) -> None:
        if entries < 1 or ctr_bits < 2:
            raise ValueError("invalid criticality-table geometry")
        self.entries = entries
        self.ctr_max = (1 << (ctr_bits - 1)) - 1      # e.g. +7
        self.ctr_min = -(1 << (ctr_bits - 1))         # e.g. -8
        self._counters = [0] * entries

    def _index(self, pc: int) -> int:
        return pc % self.entries

    def predict_critical(self, pc: int) -> bool:
        """Sign bit: non-negative counters predict critical.

        Fresh entries (counter 0) predict critical — the safe direction,
        since treating a critical load as non-critical costs performance.
        """
        return self._counters[self._index(pc)] >= 0

    def train(self, pc: int, was_critical: bool) -> None:
        """Retire-time update with the ROB-head completion tag."""
        idx = self._index(pc)
        ctr = self._counters[idx]
        if was_critical:
            self._counters[idx] = min(ctr + 1, self.ctr_max)
        else:
            self._counters[idx] = max(ctr - 1, self.ctr_min)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"counters": list(self._counters)}

    def load_state_dict(self, state: dict) -> None:
        self._counters[:] = state["counters"]
