"""Lower retired RV32I instructions into trace rows.

Each retired instruction becomes exactly one row
(:data:`repro.isa.trace.Row`) carrying the *architectural* µop fields
the pipeline consumes — pc, :class:`OpClass`, source/destination
architectural registers, effective address and size for memory ops,
outcome and target for control flow. A ``MicroOp`` is built from the
row only when fetch asks for one. RV32I registers map
directly onto the integer half of the renamer's architectural namespace
(x1..x31 -> 1..31); ``x0`` is hardwired zero, so it is dropped from both
sources and destinations — it can never carry a dependence.

Control-flow classification follows the RISC-V return-address-stack
hints: ``jal``/``jalr`` writing a link register (x1/x5) lower to CALL,
``jalr`` through a link register to RET, and everything else —
conditional branches and plain unconditional jumps — to BRANCH (an
unconditional jump is a BRANCH with ``taken=True``).
"""

from __future__ import annotations

from typing import List

from repro.isa.opclass import OpClass
from repro.isa.rv32i.core import Retired
from repro.isa.rv32i.decode import BRANCHES, LOADS, MEM_SIZE, STORES
from repro.isa.trace import Row

#: Registers the RAS hints treat as link registers (ra, t0).
LINK_REGS = frozenset((1, 5))

#: Mnemonics with no register sources beyond rs1/rs2 handled uniformly;
#: everything that reads rs2 in RV32I.
_USES_RS2 = frozenset(("add", "sub", "sll", "slt", "sltu", "xor", "srl",
                       "sra", "or", "and")) | STORES | BRANCHES


def lower(retired: Retired) -> Row:
    """One retired instruction -> one architectural µop row."""
    instr = retired.instr
    name = instr.mnemonic

    srcs: List[int] = []
    if name not in ("lui", "jal", "ecall", "ebreak", "fence"):
        if instr.rs1 and name != "auipc":
            srcs.append(instr.rs1)
    if name in _USES_RS2 and instr.rs2:
        srcs.append(instr.rs2)

    dst = instr.rd if instr.rd and name not in STORES and name not in \
        BRANCHES and name not in ("ecall", "ebreak", "fence") else None

    if name in LOADS:
        opclass = OpClass.LOAD
    elif name in STORES:
        opclass = OpClass.STORE
    elif name in BRANCHES:
        opclass = OpClass.BRANCH
    elif name == "jal":
        opclass = OpClass.CALL if instr.rd in LINK_REGS else OpClass.BRANCH
    elif name == "jalr":
        if instr.rd in LINK_REGS:
            opclass = OpClass.CALL
        elif instr.rs1 in LINK_REGS:
            opclass = OpClass.RET
        else:
            opclass = OpClass.BRANCH
    elif name in ("fence", "ecall", "ebreak"):
        opclass = OpClass.NOP
    else:
        opclass = OpClass.INT_ALU

    return (retired.pc, opclass, srcs, dst, retired.mem_addr,
            MEM_SIZE.get(name, 8), retired.taken, retired.target)
