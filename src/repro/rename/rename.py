"""The register renamer.

One architectural namespace of 64 registers: 0-31 are integer, 32-63 are
floating point. Each class renames into its own 256-entry physical file
(Table 1). Initial architectural state is pre-mapped so that traces can
read any register without an explicit producer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import CoreConfig
from repro.isa.uop import MicroOp
from repro.rename.freelist import FreeList
from repro.rename.rat import RegisterAliasTable

NUM_ARCH_REGS = 64
FP_REG_BASE = 32     # arch regs >= this rename into the FP file


class RegisterRenamer:
    """RAT + free lists + rollback/commit protocol."""

    def __init__(self, config: Optional[CoreConfig] = None) -> None:
        cfg = config or CoreConfig()
        self.rat = RegisterAliasTable(NUM_ARCH_REGS)
        self.int_free = FreeList(0, cfg.int_prf, reserved=FP_REG_BASE)
        self.fp_free = FreeList(cfg.int_prf, cfg.fp_prf,
                                reserved=NUM_ARCH_REGS - FP_REG_BASE)
        # Pre-map architectural state onto the reserved registers.
        for arch in range(FP_REG_BASE):
            self.rat.set(arch, arch)
        for arch in range(FP_REG_BASE, NUM_ARCH_REGS):
            self.rat.set(arch, cfg.int_prf + (arch - FP_REG_BASE))
        self._map = self.rat.mapping

    # ------------------------------------------------------------------

    def _pool_for(self, arch: int) -> FreeList:
        return self.fp_free if arch >= FP_REG_BASE else self.int_free

    def rename(self, uop: MicroOp) -> None:
        """Rename sources then allocate the destination.

        The caller must have checked that the destination's free list
        has a register. Every architectural register is mapped from
        construction on (and a restore refuses a map that is not), so
        sources read the map without a check.
        """
        rat = self._map
        uop.psrcs = [rat[src] for src in uop.srcs]
        dst = uop.dst
        if dst is not None:
            pdst = (self.fp_free if dst >= FP_REG_BASE else self.int_free).allocate()
            uop.prev_pdst = rat[dst]
            rat[dst] = pdst
            uop.pdst = pdst
        else:
            uop.pdst = -1
            uop.prev_pdst = -1

    def commit(self, uop: MicroOp) -> None:
        """Retire: the previous mapping of the destination is now dead."""
        dst = uop.dst
        if dst is not None and uop.prev_pdst >= 0:
            (self.fp_free if dst >= FP_REG_BASE else self.int_free).release(uop.prev_pdst)

    def rollback(self, uops_youngest_first: List[MicroOp]) -> None:
        """Squash: undo renames in reverse program order."""
        for uop in uops_youngest_first:
            if uop.dst is not None and uop.pdst >= 0:
                self.rat.restore(uop.dst, uop.prev_pdst)
                self._pool_for(uop.dst).release(uop.pdst)
                uop.pdst = -1

    # ------------------------------------------------------------------

    def free_counts(self) -> tuple:
        return (len(self.int_free), len(self.fp_free))

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "rat": self.rat.state_dict(),
            "int_free": self.int_free.state_dict(),
            "fp_free": self.fp_free.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        unmapped = [arch for arch, preg in enumerate(state["rat"]["map"]) if preg < 0]
        if unmapped:
            raise KeyError(f"architectural register {unmapped[0]} never mapped")
        self.rat.load_state_dict(state["rat"])
        self.int_free.load_state_dict(state["int_free"])
        self.fp_free.load_state_dict(state["fp_free"])
