"""Register alias table."""

from __future__ import annotations

from typing import List


class RegisterAliasTable:
    """Architectural -> physical register map with explicit undo support.

    Rollback is driven by the ROB walk: every renamed µop remembers
    ``(dst, prev_pdst)``; squashing restores mappings youngest-first.
    """

    def __init__(self, num_arch_regs: int) -> None:
        #: arch -> preg, ``-1`` while unmapped (the renamer reads it
        #: directly; restores refill it in place).
        self.mapping: List[int] = [-1] * num_arch_regs

    def lookup(self, arch: int) -> int:
        preg = self.mapping[arch]
        if preg < 0:
            raise KeyError(f"architectural register {arch} never mapped")
        return preg

    def set(self, arch: int, preg: int) -> int:
        """Map ``arch`` to ``preg``; returns the previous mapping."""
        prev = self.mapping[arch]
        self.mapping[arch] = preg
        return prev

    def restore(self, arch: int, prev_preg: int) -> None:
        """Undo one rename during a squash walk."""
        self.mapping[arch] = prev_preg

    def snapshot(self) -> List[int]:
        return list(self.mapping)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"map": list(self.mapping)}

    def load_state_dict(self, state: dict) -> None:
        self.mapping[:] = state["map"]
