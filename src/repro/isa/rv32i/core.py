"""Functional RV32I machine: registers, sparse memory, run-to-halt.

:class:`Machine` executes a flat instruction image (loaded at address 0)
one instruction per :meth:`step`, with no timing model at all — it is
the *semantic* half of the real-ISA workload front. Each retired
instruction is reported as a :class:`Retired` record carrying everything
the µop lowering layer needs (effective address, branch outcome, taken
target), so timing simulation consumes the exact committed path.

Model choices, shared with the differential reference interpreter in
``tests/rv32i/``:

* **Memory** is a sparse byte dict — any address readable (unwritten
  bytes are 0), loads/stores may be unaligned (byte-composed,
  little-endian).
* **Halt** on ``ecall``/``ebreak`` (the corpus convention), on fetching
  outside the image, or on a misaligned pc; :attr:`Machine.halt_reason`
  says which.
* All arithmetic wraps mod 2^32; ``x0`` is hardwired to zero.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.isa.rv32i.decode import (
    BRANCHES,
    LOADS,
    MEM_SIZE,
    STORES,
    Instr,
    decode,
)

MASK32 = 0xFFFFFFFF


class HaltReason:
    """Why a machine stopped (string constants, stored on the machine)."""

    EBREAK = "ebreak"
    ECALL = "ecall"
    OUT_OF_IMAGE = "out-of-image"
    MISALIGNED = "misaligned-pc"


class Retired:
    """One retired instruction, as the lowering layer sees it."""

    __slots__ = ("pc", "instr", "mem_addr", "taken", "target")

    def __init__(self, pc: int, instr: Instr, mem_addr: int = 0,
                 taken: bool = False, target: int = 0) -> None:
        self.pc = pc
        self.instr = instr
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target


def _signed32(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


class Machine:
    """Architectural state plus the execute loop."""

    def __init__(self, image: List[int]) -> None:
        self.image = list(image)
        self.regs: List[int] = [0] * 32
        self.mem: Dict[int, int] = {}       # byte address -> byte value
        self.pc = 0
        self.retired = 0
        self.halted = False
        self.halt_reason: Optional[str] = None
        # Decoded-image cache: decode each static instruction once, not
        # once per dynamic execution (the executor's only hot-path trick).
        self._decoded: List[Optional[Instr]] = [None] * len(self.image)

    # -- memory ---------------------------------------------------------

    def load(self, addr: int, size: int, signed: bool) -> int:
        mem = self.mem
        value = 0
        for i in range(size):
            value |= mem.get((addr + i) & MASK32, 0) << (8 * i)
        if signed:
            sign = 1 << (8 * size - 1)
            value = (value & (sign - 1)) - (value & sign)
        return value

    def store(self, addr: int, size: int, value: int) -> None:
        mem = self.mem
        for i in range(size):
            mem[(addr + i) & MASK32] = (value >> (8 * i)) & 0xFF

    # -- execution ------------------------------------------------------

    def _fetch(self) -> Optional[Instr]:
        pc = self.pc
        if pc % 4:
            self.halted, self.halt_reason = True, HaltReason.MISALIGNED
            return None
        index = pc >> 2
        if not 0 <= index < len(self.image):
            self.halted, self.halt_reason = True, HaltReason.OUT_OF_IMAGE
            return None
        instr = self._decoded[index]
        if instr is None:
            instr = self._decoded[index] = decode(self.image[index])
        return instr

    def step(self) -> Optional[Retired]:
        """Execute one instruction; ``None`` once halted."""
        if self.halted:
            return None
        instr = self._fetch()
        if instr is None:
            return None
        pc = self.pc
        regs = self.regs
        name = instr.mnemonic
        rs1 = regs[instr.rs1]
        rs2 = regs[instr.rs2]
        rd_value: Optional[int] = None
        next_pc = pc + 4
        mem_addr = 0
        taken = False
        target = 0

        if name == "addi":
            rd_value = (rs1 + instr.imm) & MASK32
        elif name in ("add", "sub"):
            rd_value = (rs1 + rs2 if name == "add" else rs1 - rs2) & MASK32
        elif name in LOADS:
            mem_addr = (rs1 + instr.imm) & MASK32
            rd_value = self.load(mem_addr, MEM_SIZE[name],
                                 signed=name in ("lb", "lh")) & MASK32
        elif name in STORES:
            mem_addr = (rs1 + instr.imm) & MASK32
            self.store(mem_addr, MEM_SIZE[name], rs2)
        elif name in BRANCHES:
            if name == "beq":
                taken = rs1 == rs2
            elif name == "bne":
                taken = rs1 != rs2
            elif name == "blt":
                taken = _signed32(rs1) < _signed32(rs2)
            elif name == "bge":
                taken = _signed32(rs1) >= _signed32(rs2)
            elif name == "bltu":
                taken = rs1 < rs2
            else:                   # bgeu
                taken = rs1 >= rs2
            target = (pc + instr.imm) & MASK32
            if taken:
                next_pc = target
        elif name == "lui":
            rd_value = instr.imm & MASK32
        elif name == "auipc":
            rd_value = (pc + instr.imm) & MASK32
        elif name == "jal":
            rd_value = (pc + 4) & MASK32
            taken = True
            target = next_pc = (pc + instr.imm) & MASK32
        elif name == "jalr":
            rd_value = (pc + 4) & MASK32
            taken = True
            target = next_pc = (rs1 + instr.imm) & MASK32 & ~1
        elif name == "slti":
            rd_value = int(_signed32(rs1) < instr.imm)
        elif name == "sltiu":
            rd_value = int(rs1 < (instr.imm & MASK32))
        elif name == "xori":
            rd_value = (rs1 ^ instr.imm) & MASK32
        elif name == "ori":
            rd_value = (rs1 | instr.imm) & MASK32
        elif name == "andi":
            rd_value = (rs1 & instr.imm) & MASK32
        elif name == "slli":
            rd_value = (rs1 << instr.imm) & MASK32
        elif name == "srli":
            rd_value = rs1 >> instr.imm
        elif name == "srai":
            rd_value = _signed32(rs1) >> instr.imm & MASK32
        elif name == "sll":
            rd_value = (rs1 << (rs2 & 0x1F)) & MASK32
        elif name == "srl":
            rd_value = rs1 >> (rs2 & 0x1F)
        elif name == "sra":
            rd_value = (_signed32(rs1) >> (rs2 & 0x1F)) & MASK32
        elif name == "slt":
            rd_value = int(_signed32(rs1) < _signed32(rs2))
        elif name == "sltu":
            rd_value = int(rs1 < rs2)
        elif name == "xor":
            rd_value = (rs1 ^ rs2) & MASK32
        elif name == "or":
            rd_value = (rs1 | rs2) & MASK32
        elif name == "and":
            rd_value = (rs1 & rs2) & MASK32
        elif name == "fence":
            pass
        elif name in ("ecall", "ebreak"):
            self.halted = True
            self.halt_reason = (HaltReason.ECALL if name == "ecall"
                                else HaltReason.EBREAK)
            self.retired += 1
            return Retired(pc, instr)
        else:                       # pragma: no cover - decode is total
            raise AssertionError(f"unhandled mnemonic {name}")

        if rd_value is not None and instr.rd:
            regs[instr.rd] = rd_value & MASK32
        self.pc = next_pc
        self.retired += 1
        return Retired(pc, instr, mem_addr=mem_addr, taken=taken,
                       target=target)

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until halt (or the step cap); returns instructions retired."""
        start = self.retired
        for _ in range(max_steps):
            if self.step() is None:
                break
        return self.retired - start

    # -- end-state digests (golden suite, CLI) --------------------------

    def memory_digest(self) -> str:
        """sha256 over the sorted non-zero (address, byte) pairs."""
        sha = hashlib.sha256()
        for addr in sorted(self.mem):
            byte = self.mem[addr]
            if byte:
                sha.update(addr.to_bytes(4, "little"))
                sha.update(bytes((byte,)))
        return sha.hexdigest()

    # -- state protocol (repro.checkpoint) ------------------------------

    def state_dict(self) -> dict:
        return {
            "regs": list(self.regs),
            "mem": dict(self.mem),
            "pc": self.pc,
            "retired": self.retired,
            "halted": self.halted,
            "halt_reason": self.halt_reason,
        }

    def load_state_dict(self, state: dict) -> None:
        self.regs = list(state["regs"])
        self.mem = {int(k): v for k, v in state["mem"].items()}
        self.pc = state["pc"]
        self.retired = state["retired"]
        self.halted = state["halted"]
        self.halt_reason = state["halt_reason"]
