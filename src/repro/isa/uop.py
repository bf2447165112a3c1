"""Dynamic micro-operation.

A :class:`MicroOp` is one dynamic instance flowing through the pipeline. The
workload generator fills in the *architectural* fields (pc, opclass,
registers, memory address, branch outcome); the pipeline annotates the
*microarchitectural* fields (renamed registers, ROB/LSQ slots, issue and
execution timestamps, replay state).

``__slots__`` keeps the per-µop footprint small: simulations create one
object per dynamic µop (plus wrong-path fillers).
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.opclass import BRANCH_OPS, MEMORY_OPS, OpClass

#: OpClass -> (is_load, is_store, is_mem, is_branch), indexed by value.
_KIND_FLAGS = tuple(
    (op == OpClass.LOAD, op == OpClass.STORE,
     op in MEMORY_OPS, op in BRANCH_OPS)
    for op in OpClass
)


class MicroOp:
    """One dynamic µop."""

    __slots__ = (
        # architectural
        "seq", "pc", "opclass", "srcs", "dst", "mem_addr", "mem_size",
        "taken", "target", "wrong_path",
        # kind flags (precomputed from opclass; the pipeline reads these
        # millions of times per run — a property doing enum/set work per
        # read was a measurable share of the cycle loop)
        "is_load", "is_store", "is_mem", "is_branch",
        # branch prediction state (filled at fetch)
        "pred_taken", "pred_target", "mispredicted", "bp_state",
        # rename state
        "psrcs", "pdst", "prev_pdst",
        # scheduling state
        "in_iq", "in_ready", "pending", "store_dep", "issue_cycle",
        "exec_start",
        "actual_latency", "promised_latency", "executed", "completed",
        "num_issues", "spec_woken", "replay_pending", "squashed", "dead",
        # memory outcome
        "l1_hit",
        # bookkeeping
        "fetch_cycle", "was_critical",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        opclass: OpClass,
        srcs: Optional[List[int]] = None,
        dst: Optional[int] = None,
        mem_addr: int = 0,
        mem_size: int = 8,
        taken: bool = False,
        target: int = 0,
        wrong_path: bool = False,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.opclass = opclass
        self.srcs = srcs or []
        self.dst = dst
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.taken = taken
        self.target = target
        self.wrong_path = wrong_path

        self.pred_taken = False
        self.pred_target = 0
        self.mispredicted = False
        self.bp_state = None

        self.psrcs: List[int] = []
        self.pdst = -1
        self.prev_pdst = -1

        self.in_iq = False
        self.in_ready = False
        self.pending = 0
        self.store_dep = None
        self.issue_cycle = -1
        self.exec_start = -1
        self.actual_latency = -1
        self.promised_latency = -1
        self.executed = False
        self.completed = False
        self.num_issues = 0
        self.spec_woken = False
        self.replay_pending = False
        self.squashed = False
        self.dead = False

        self.l1_hit = True

        self.fetch_cycle = -1
        self.was_critical = False

        # Classification: plain attributes, precomputed once.
        (self.is_load, self.is_store,
         self.is_mem, self.is_branch) = _KIND_FLAGS[opclass]

    def arch_row(self) -> tuple:
        """The architectural fields as a trace row
        (:data:`repro.isa.trace.Row`), with a copy of ``srcs``."""
        return (self.pc, self.opclass, list(self.srcs), self.dst,
                self.mem_addr, self.mem_size, self.taken, self.target)

    def clone_arch(self, seq: int = 0) -> "MicroOp":
        """Fresh dynamic instance carrying only the architectural fields."""
        return MicroOp(seq, *self.arch_row(), self.wrong_path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.wrong_path:
            flags.append("WP")
        if self.executed:
            flags.append("X")
        if self.squashed:
            flags.append("SQ")
        if self.dead:
            flags.append("DEAD")
        return (
            f"MicroOp(seq={self.seq}, pc={self.pc:#x}, "
            f"{self.opclass.name}, srcs={self.srcs}, dst={self.dst}"
            f"{', ' + '|'.join(flags) if flags else ''})"
        )
