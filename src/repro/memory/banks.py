"""L1D bank-conflict model (Section 3.1, *Bank Conflicts*).

The L1 data array is organized as 8 quadword-interleaved banks (the Sandy
Bridge layout the paper adopts): bank = address bits [5:3]. Per cycle:

* each bank services one access, **except** that two accesses to the *same
  set* of the same bank may proceed together — the Rivers-style single line
  buffer with two read ports (Section 4.2);
* the cache as a whole services at most two accesses (it has two read
  ports, matching the dual-load issue capacity);
* an access that cannot be serviced is queued in an unbounded buffer and
  serviced in arrival order in the earliest cycle that satisfies both rules
  (modeled after the Sandy Bridge "requests maintained to completion"
  behaviour quoted in Section 3.1).

:meth:`BankScheduler.access` returns the *delay* in cycles the access
suffers, which the paper attributes to a bank conflict whenever non-zero.
"""

from __future__ import annotations

from typing import Dict, Tuple

QWORD_BITS = 3   # 8-byte interleaving granularity


def bank_of(addr: int, num_banks: int) -> int:
    """Quadword-interleaved bank index of a byte address."""
    return (addr >> QWORD_BITS) & (num_banks - 1)


def set_of(addr: int, line_bytes: int, num_sets: int) -> int:
    """Cache set index of a byte address."""
    return (addr >> line_bytes.bit_length() - 1) & (num_sets - 1)


class BankScheduler:
    """Slot allocator for banked L1D accesses.

    For a non-banked (ideally multiported) cache instantiate with
    ``banked=False``: every access is serviced immediately.
    """

    #: Cache-wide accesses serviceable per cycle (two read ports).
    PORTS_PER_CYCLE = 2
    #: Same-set accesses a single bank can overlap (line-buffer read ports).
    SAME_SET_LIMIT = 2

    def __init__(self, num_banks: int = 8, line_bytes: int = 64,
                 num_sets: int = 64, banked: bool = True) -> None:
        self.num_banks = num_banks
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self.banked = banked
        # (bank, cycle) -> (set_index, count) of accesses serviced there.
        self._bank_slots: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # cycle -> total accesses serviced that cycle.
        self._cycle_total: Dict[int, int] = {}
        self._min_live_cycle = 0

    def access(self, addr: int, now: int) -> int:
        """Reserve a service slot for a load reaching the cache at ``now``.

        Returns the number of cycles the access is delayed (0 = no
        conflict). Accesses must be presented in program-arrival order
        within a cycle; the underlying buffer is unbounded.
        """
        if not self.banked:
            return 0
        bank = bank_of(addr, self.num_banks)
        set_idx = set_of(addr, self.line_bytes, self.num_sets)
        cycle = now
        while True:
            if self._cycle_total.get(cycle, 0) < self.PORTS_PER_CYCLE:
                slot = self._bank_slots.get((bank, cycle))
                if slot is None:
                    self._bank_slots[(bank, cycle)] = (set_idx, 1)
                    break
                slot_set, count = slot
                if slot_set == set_idx and count < self.SAME_SET_LIMIT:
                    self._bank_slots[(bank, cycle)] = (slot_set, count + 1)
                    break
            cycle += 1
        self._cycle_total[cycle] = self._cycle_total.get(cycle, 0) + 1
        self._maybe_prune(now)
        return cycle - now

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "bank_slots": [(list(key), list(value))
                           for key, value in self._bank_slots.items()],
            "cycle_total": list(self._cycle_total.items()),
            "min_live_cycle": self._min_live_cycle,
        }

    def load_state_dict(self, state: dict) -> None:
        self._bank_slots = {tuple(key): tuple(value)
                            for key, value in state["bank_slots"]}
        self._cycle_total = dict(state["cycle_total"])
        self._min_live_cycle = state["min_live_cycle"]

    def _maybe_prune(self, now: int) -> None:
        """Drop bookkeeping for long-past cycles to bound memory."""
        if now - self._min_live_cycle < 4096:
            return
        horizon = now - 64
        self._bank_slots = {
            key: val for key, val in self._bank_slots.items() if key[1] >= horizon
        }
        self._cycle_total = {
            cyc: tot for cyc, tot in self._cycle_total.items() if cyc >= horizon
        }
        self._min_live_cycle = now
