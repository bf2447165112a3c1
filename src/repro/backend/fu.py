"""Functional-unit pool (Table 1, Execution row).

4 ALU (1c), 1 MulDiv (3c mul / 25c div, divider not pipelined), 2 FP (3c),
2 FPMulDiv (5c mul / 10c div, divider not pipelined), 2 load ports,
1 store port. Issue takes a unit slot of the µop's kind for the cycle;
unpipelined ops additionally block a unit for their full latency.

The cycle's port table is two flat lists indexed by ``FuKind`` value,
``used`` and ``counts``: Issue reads and bumps them directly, one kind
lookup per select candidate, and only unpipelined ops call
:meth:`FuPool.claim_unpipelined`. ``new_cycle`` clears ``used`` every
cycle.
"""

from __future__ import annotations

from typing import List

from repro.common.config import CoreConfig
from repro.isa.opclass import EXEC_LATENCY_BY_OP, FuKind, OpClass


class FuPool:
    """Per-cycle issue-port table and unpipelined-unit occupancy."""

    def __init__(self, config: CoreConfig) -> None:
        counts = [0] * len(FuKind)
        counts[FuKind.ALU] = config.num_alu
        counts[FuKind.MULDIV] = config.num_muldiv
        counts[FuKind.FP] = config.num_fp
        counts[FuKind.FPMULDIV] = config.num_fpmuldiv
        counts[FuKind.LOAD_PORT] = config.num_load_ports
        counts[FuKind.STORE_PORT] = config.num_store_ports
        #: Units per kind, and the slots each kind granted this cycle.
        self.counts: List[int] = counts
        self.used: List[int] = [0] * len(FuKind)
        self._zeros: List[int] = [0] * len(FuKind)
        # Unpipelined units: per-unit busy-until cycle (issue-time view).
        self._busy_until: List[List[int]] = [[] for _ in FuKind]
        self._busy_until[FuKind.MULDIV] = [0] * config.num_muldiv
        self._busy_until[FuKind.FPMULDIV] = [0] * config.num_fpmuldiv

    def new_cycle(self) -> None:
        self.used[:] = self._zeros

    def claim_unpipelined(self, kind: int, opclass: OpClass, now: int) -> bool:
        """Block a free unit of ``kind`` for ``opclass``'s latency from
        ``now``; False when every unit is still busy. The caller checks
        and takes the kind's port slot in :attr:`used`."""
        units = self._busy_until[kind]
        for i, busy in enumerate(units):
            if busy <= now:
                units[i] = now + EXEC_LATENCY_BY_OP[opclass]
                return True
        return False

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "used": list(self.used),
            "busy_until": [list(units) for units in self._busy_until],
        }

    def load_state_dict(self, state: dict) -> None:
        self.used[:] = state["used"]
        self._busy_until = [list(units) for units in state["busy_until"]]
