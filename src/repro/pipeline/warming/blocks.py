"""Array-block representation of the correct-path µop stream.

The warming engine consumes the stream as :class:`UopBlock`
slices: parallel numpy arrays carrying exactly the architectural fields
functional warming reads (pc, memory address, branch target, opclass,
branch outcome). Two constructors cover the two supply shapes:

* :meth:`UopBlock.from_uops` — built from decoded :class:`MicroOp`
  objects (any :meth:`TraceSource.next_block` batch);
* :meth:`UopBlock.from_records` — a zero-decode view over a recorded
  trace's raw records (:meth:`repro.traces.format.FileTrace.
  next_record_block`), the fast path: no ``MicroOp`` is ever built.

The kind lookup tables (:data:`IS_MEM` etc.) are opclass-value-indexed
boolean arrays, the vectorized twin of ``MicroOp``'s precomputed
``is_mem``/``is_load``/``is_branch`` flags.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.isa.opclass import BRANCH_OPS, MEMORY_OPS, OpClass

#: µops per engine block. Matches the trace format's frame size
#: (``DEFAULT_FRAME_RECORDS``) so replaying a recorded trace usually
#: serves whole frames without re-slicing.
DEFAULT_BLOCK_UOPS = 4096

#: OpClass-value-indexed kind masks: ``IS_MEM[opclass_array]`` classifies
#: a whole block in one gather.
IS_MEM = np.array([op in MEMORY_OPS for op in OpClass], dtype=bool)
IS_LOAD = np.array([op == OpClass.LOAD for op in OpClass], dtype=bool)
IS_BRANCH = np.array([op in BRANCH_OPS for op in OpClass], dtype=bool)
IS_CALL_OR_RET = np.array([op in (OpClass.CALL, OpClass.RET) for op in OpClass], dtype=bool)


class UopBlock:
    """One fixed-size slice of the µop stream as parallel arrays."""

    __slots__ = ("size", "pc", "addr", "target", "opclass", "taken")

    def __init__(self, pc, addr, target, opclass, taken) -> None:
        """Wrap the five field arrays (equal length; no copies taken)."""
        self.size = len(pc)
        self.pc = pc
        self.addr = addr
        self.target = target
        self.opclass = opclass
        self.taken = taken

    @classmethod
    def from_uops(cls, uops: Sequence) -> "UopBlock":
        """Build a block from decoded µops (architectural fields only)."""
        count = len(uops)
        return cls(
            pc=np.fromiter((u.pc for u in uops), dtype=np.uint64, count=count),
            addr=np.fromiter((u.mem_addr for u in uops), dtype=np.uint64, count=count),
            target=np.fromiter((u.target for u in uops), dtype=np.uint64, count=count),
            opclass=np.fromiter((u.opclass for u in uops), dtype=np.uint8, count=count),
            taken=np.fromiter((u.taken for u in uops), dtype=bool, count=count),
        )

    @classmethod
    def from_records(cls, records: np.ndarray) -> "UopBlock":
        """Wrap a structured record array (``repro.traces.format.record_dtype``).

        Field views alias the record buffer — nothing is decoded or
        copied until the engine gathers the indices it actually needs.
        """
        return cls(
            pc=records["pc"],
            addr=records["mem_addr"],
            target=records["target"],
            opclass=records["opclass"],
            taken=(records["flags"] & 1) != 0,
        )
