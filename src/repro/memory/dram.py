"""DDR3-1600-lite main memory (Table 1, Memory row).

A deterministic open-page model: 2 ranks x 8 banks, 8KB row buffers, one
shared 8-byte data bus. A read to an open row pays ``base_latency`` (75 CPU
cycles at 4 GHz — the paper's minimum); a row-buffer miss additionally pays
``row_miss_penalty`` (precharge + activate at 11-11-11). Bus and bank
occupancy serialize closely spaced requests. Total latency is clamped at the
paper's quoted maximum (185 cycles), standing in for scheduling effects the
paper's controller hides. Refresh is not modeled: the paper quotes only
the minimum and maximum latency, and the clamp keeps every access in
that range.
"""

from __future__ import annotations

from typing import List

from repro.common.config import DramConfig


class DdrModel:
    """Single-channel DDR3-like latency model."""

    def __init__(self, config: DramConfig) -> None:
        config.validate()
        self.config = config
        nbanks = config.num_banks
        self._open_row: List[int] = [-1] * nbanks
        self._bank_free_at: List[int] = [0] * nbanks
        self._bus_free_at = 0
        self.reads = 0
        self.row_hits = 0
        self.row_misses = 0

    def _map(self, line_addr: int) -> int:
        """Line address -> bank (low-order line bits, rank-interleaved)."""
        return line_addr % self.config.num_banks

    def _row_of(self, line_addr: int) -> int:
        lines_per_row = self.config.row_bytes // 64
        return line_addr // lines_per_row

    def read(self, line_addr: int, now: int) -> int:
        """Issue a 64B read at CPU cycle ``now``; returns its latency."""
        cfg = self.config
        bank = self._map(line_addr)
        row = self._row_of(line_addr)
        start = max(now, self._bank_free_at[bank], self._bus_free_at)
        latency = start - now + cfg.base_latency
        if self._open_row[bank] == row:
            self.row_hits += 1
        else:
            self.row_misses += 1
            latency += cfg.row_miss_penalty
            self._open_row[bank] = row
        latency = min(latency, cfg.max_latency)
        done = now + latency
        self._bank_free_at[bank] = done
        self._bus_free_at = max(self._bus_free_at, start + cfg.bus_cycles)
        self.reads += 1
        return latency

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "open_row": list(self._open_row),
            "bank_free_at": list(self._bank_free_at),
            "bus_free_at": self._bus_free_at,
            "reads": self.reads,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
        }

    def load_state_dict(self, state: dict) -> None:
        self._open_row[:] = state["open_row"]
        self._bank_free_at[:] = state["bank_free_at"]
        self._bus_free_at = state["bus_free_at"]
        self.reads = state["reads"]
        self.row_hits = state["row_hits"]
        self.row_misses = state["row_misses"]
