"""RV32I instruction decoder.

One function, :func:`decode`, turns a 32-bit instruction word into a
:class:`Instr` — mnemonic plus the register/immediate operands the
functional core (:mod:`repro.isa.rv32i.core`) executes and the lowering
layer (:mod:`repro.isa.rv32i.lower`) maps onto
:class:`~repro.isa.uop.MicroOp` architectural fields.

The full RV32I base set is covered: LUI, AUIPC, JAL, JALR, the six
conditional branches, the five loads, the three stores, OP-IMM, OP,
FENCE (executed as a no-op) and SYSTEM (ECALL/EBREAK, the machine's halt
convention). Anything else raises :class:`DecodeError` — there is no
"unknown instruction" fallthrough, so a corrupt image fails loudly at
the offending word instead of silently skewing a captured trace.

Immediates are decoded to *signed* python ints (B/J immediates include
the implicit zero bit); the core applies the mod-2^32 wraparound.
"""

from __future__ import annotations

from typing import Dict, Tuple

MASK32 = 0xFFFFFFFF

#: opcode (bits 6:0) values of the base map.
_OP_LUI = 0b0110111
_OP_AUIPC = 0b0010111
_OP_JAL = 0b1101111
_OP_JALR = 0b1100111
_OP_BRANCH = 0b1100011
_OP_LOAD = 0b0000011
_OP_STORE = 0b0100011
_OP_IMM = 0b0010011
_OP_OP = 0b0110011
_OP_MISC_MEM = 0b0001111
_OP_SYSTEM = 0b1110011

_BRANCH_F3 = {0b000: "beq", 0b001: "bne", 0b100: "blt",
              0b101: "bge", 0b110: "bltu", 0b111: "bgeu"}
_LOAD_F3 = {0b000: "lb", 0b001: "lh", 0b010: "lw",
            0b100: "lbu", 0b101: "lhu"}
_STORE_F3 = {0b000: "sb", 0b001: "sh", 0b010: "sw"}
_IMM_F3 = {0b000: "addi", 0b010: "slti", 0b011: "sltiu",
           0b100: "xori", 0b110: "ori", 0b111: "andi"}
#: funct3 -> (funct7=0 mnemonic, funct7=0b0100000 mnemonic)
_OP_F3: Dict[int, Tuple[str, str]] = {
    0b000: ("add", "sub"),
    0b001: ("sll", ""),
    0b010: ("slt", ""),
    0b011: ("sltu", ""),
    0b100: ("xor", ""),
    0b101: ("srl", "sra"),
    0b110: ("or", ""),
    0b111: ("and", ""),
}

#: Byte width of each memory-access mnemonic.
MEM_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4,
            "sb": 1, "sh": 2, "sw": 4}

LOADS = frozenset(("lb", "lbu", "lh", "lhu", "lw"))
STORES = frozenset(("sb", "sh", "sw"))
BRANCHES = frozenset(_BRANCH_F3.values())


class DecodeError(ValueError):
    """Not a valid RV32I instruction word."""


class Instr:
    """One decoded RV32I instruction (operands already extracted)."""

    __slots__ = ("mnemonic", "rd", "rs1", "rs2", "imm")

    def __init__(self, mnemonic: str, rd: int = 0,
                 rs1: int = 0, rs2: int = 0, imm: int = 0) -> None:
        self.mnemonic = mnemonic
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Instr({self.mnemonic} rd=x{self.rd} rs1=x{self.rs1} "
                f"rs2=x{self.rs2} imm={self.imm})")


def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _imm_i(word: int) -> int:
    return _signed(word >> 20, 12)


def _imm_s(word: int) -> int:
    return _signed(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)


def _imm_b(word: int) -> int:
    value = (((word >> 31) & 0x1) << 12) | (((word >> 7) & 0x1) << 11) \
        | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
    return _signed(value, 13)


def _imm_u(word: int) -> int:
    return word & 0xFFFFF000


def _imm_j(word: int) -> int:
    value = (((word >> 31) & 0x1) << 20) | (((word >> 12) & 0xFF) << 12) \
        | (((word >> 20) & 0x1) << 11) | (((word >> 21) & 0x3FF) << 1)
    return _signed(value, 21)


def decode(word: int) -> Instr:
    """Decode one instruction word; raises :class:`DecodeError`."""
    word &= MASK32
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    funct3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    funct7 = word >> 25

    if opcode == _OP_LUI:
        return Instr("lui", rd=rd, imm=_imm_u(word))
    if opcode == _OP_AUIPC:
        return Instr("auipc", rd=rd, imm=_imm_u(word))
    if opcode == _OP_JAL:
        return Instr("jal", rd=rd, imm=_imm_j(word))
    if opcode == _OP_JALR:
        if funct3 != 0:
            raise DecodeError(f"JALR with funct3={funct3}: {word:#010x}")
        return Instr("jalr", rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == _OP_BRANCH:
        mnemonic = _BRANCH_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"branch funct3={funct3}: {word:#010x}")
        return Instr(mnemonic, rs1=rs1, rs2=rs2, imm=_imm_b(word))
    if opcode == _OP_LOAD:
        mnemonic = _LOAD_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"load funct3={funct3}: {word:#010x}")
        return Instr(mnemonic, rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == _OP_STORE:
        mnemonic = _STORE_F3.get(funct3)
        if mnemonic is None:
            raise DecodeError(f"store funct3={funct3}: {word:#010x}")
        return Instr(mnemonic, rs1=rs1, rs2=rs2, imm=_imm_s(word))
    if opcode == _OP_IMM:
        if funct3 == 0b001:
            if funct7 != 0:
                raise DecodeError(f"SLLI funct7={funct7:#x}: {word:#010x}")
            return Instr("slli", rd=rd, rs1=rs1, imm=rs2)
        if funct3 == 0b101:
            if funct7 == 0:
                return Instr("srli", rd=rd, rs1=rs1, imm=rs2)
            if funct7 == 0b0100000:
                return Instr("srai", rd=rd, rs1=rs1, imm=rs2)
            raise DecodeError(f"shift funct7={funct7:#x}: {word:#010x}")
        return Instr(_IMM_F3[funct3], rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == _OP_OP:
        entry = _OP_F3.get(funct3)
        if funct7 == 0 and entry is not None:
            return Instr(entry[0], rd=rd, rs1=rs1, rs2=rs2)
        if funct7 == 0b0100000 and entry is not None and entry[1]:
            return Instr(entry[1], rd=rd, rs1=rs1, rs2=rs2)
        raise DecodeError(
            f"OP funct3={funct3} funct7={funct7:#x}: {word:#010x}")
    if opcode == _OP_MISC_MEM:
        # FENCE / FENCE.I: a uniprocessor functional model runs them as
        # no-ops; the operand fields are ignored by design.
        return Instr("fence")
    if opcode == _OP_SYSTEM:
        if word == 0x00000073:
            return Instr("ecall")
        if word == 0x00100073:
            return Instr("ebreak")
        raise DecodeError(f"unsupported SYSTEM word {word:#010x}")
    raise DecodeError(f"unknown opcode {opcode:#04x} in word {word:#010x}")
