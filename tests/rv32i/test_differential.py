"""Differential testing: the RV32I executor vs the independent oracle.

Each case assembles a randomized instruction sequence with the local
encoders below (a third independent encoding path — shared with neither
the corpus assembler in ``scripts/asm_corpus.py`` nor the oracle), runs
it through both
:class:`repro.isa.rv32i.core.Machine` and the reference interpreter in
``tests/rv32i/rv32i_reference.py``, and requires identical end states:
register file, final pc, halt reason, retire count and the full set of
non-zero memory bytes.

Programs are constructed to provably terminate: every control transfer
(branch, jal, jalr) targets a strictly later instruction, so the pc is
monotonic and must reach the trailing ``ebreak``. Data accesses go
through four pinned base registers (x28..x31, never overwritten) so
they stay inside the oracle's bounded memory window.

Sequences that ever exposed a divergence are frozen in
``regressions.json`` and replayed verbatim forever.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.isa.rv32i.core import Machine
from rv32i_reference import run_reference

CASES = 240                      # randomized differential cases
_REGRESSIONS = Path(__file__).with_name("regressions.json")


# ---------------------------------------------------------------------------
# Local encoders (RISC-V spec encodings, written here from the tables)


def _r(funct7, rs2, rs1, funct3, rd, opcode):
    return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) \
        | (rd << 7) | opcode


def _i(imm, rs1, funct3, rd, opcode):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) \
        | (rd << 7) | opcode


def _s(imm, rs2, rs1, funct3):
    imm &= 0xFFF
    return ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) \
        | (funct3 << 12) | ((imm & 0x1F) << 7) | 0b0100011


def _b(imm, rs2, rs1, funct3):
    imm &= 0x1FFF
    return (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) \
        | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) \
        | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | 0b1100011


def _u(imm20, rd, opcode):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | opcode


def _j(imm, rd):
    imm &= 0x1FFFFF
    return (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
        | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) \
        | (rd << 7) | 0b1101111


EBREAK = 0x00100073
ECALL = 0x00000073
FENCE = 0x0000000F

_BASES = (28, 29, 30, 31)        # pinned data-base registers
_BASE_ADDRS = (0x2000, 0x2800, 0x3000, 0x3800)


# ---------------------------------------------------------------------------
# Random-program generator


def _random_body_word(rng: random.Random, index: int, body_len: int,
                      prologue_len: int) -> int:
    """One instruction at body position ``index``; control flow only ever
    targets ``(index, body_len]`` (the trailing ebreak included)."""
    rd = rng.randrange(0, 28)          # never clobber the pinned bases
    rs1 = rng.randrange(0, 32)
    rs2 = rng.randrange(0, 32)
    kind = rng.randrange(100)
    if kind < 30:                      # OP-IMM
        funct3 = rng.choice((0b000, 0b010, 0b011, 0b100, 0b110, 0b111))
        return _i(rng.randrange(-2048, 2048), rs1, funct3, rd, 0b0010011)
    if kind < 40:                      # immediate shifts
        funct3 = rng.choice((0b001, 0b101))
        funct7 = 0b0100000 if (funct3 == 0b101 and rng.random() < 0.5) \
            else 0
        return _r(funct7, rng.randrange(32), rs1, funct3, rd, 0b0010011)
    if kind < 62:                      # OP
        funct3 = rng.randrange(8)
        funct7 = 0b0100000 if (funct3 in (0b000, 0b101)
                               and rng.random() < 0.5) else 0
        return _r(funct7, rs2, rs1, funct3, rd, 0b0110011)
    if kind < 68:                      # lui / auipc
        opcode = 0b0110111 if rng.random() < 0.5 else 0b0010111
        return _u(rng.randrange(1 << 20), rd, opcode)
    if kind < 78:                      # load
        funct3 = rng.choice((0b000, 0b001, 0b010, 0b100, 0b101))
        return _i(rng.randrange(0, 1024), rng.choice(_BASES), funct3,
                  rd, 0b0000011)
    if kind < 88:                      # store
        funct3 = rng.choice((0b000, 0b001, 0b010))
        return _s(rng.randrange(0, 1024), rs2, rng.choice(_BASES), funct3)
    if kind < 96:                      # forward branch
        funct3 = rng.choice((0b000, 0b001, 0b100, 0b101, 0b110, 0b111))
        target = rng.randrange(index + 1, body_len + 1)
        return _b(4 * (target - index), rs2, rs1, funct3)
    if kind < 98:                      # forward jal
        target = rng.randrange(index + 1, body_len + 1)
        return _j(4 * (target - index), rd)
    if kind < 99:                      # forward absolute jalr via x0
        target = rng.randrange(index + 1, body_len + 1)
        return _i(4 * (prologue_len + target), 0, 0, rd, 0b1100111)
    return FENCE


def random_program(seed: int) -> list:
    rng = random.Random(seed)
    # Prologue pins the data bases; lui imm is the address >> 12... the
    # bases are below 4 KiB multiples of 0x800, so build them with
    # lui+addi to also exercise that idiom.
    words = []
    for reg, addr in zip(_BASES, _BASE_ADDRS):
        words.append(_u(addr >> 12, reg, 0b0110111))
        words.append(_i(addr & 0xFFF, reg, 0b000, reg, 0b0010011))
    prologue_len = len(words)
    body_len = rng.randrange(40, 120)
    for index in range(body_len):
        words.append(_random_body_word(rng, index, body_len, prologue_len))
    words.append(ECALL if rng.random() < 0.1 else EBREAK)
    return words


# ---------------------------------------------------------------------------
# The differential check itself


def assert_equivalent(words, max_steps: int = 500_000) -> None:
    ref = run_reference(words, max_steps=max_steps)
    machine = Machine(words)
    machine.run(max_steps=max_steps)
    assert machine.halted, "executor did not halt inside the step budget"
    assert machine.halt_reason == ref.halt
    assert machine.pc == ref.pc
    assert machine.retired == ref.retired
    assert machine.regs == ref.regs
    executor_mem = {addr: byte for addr, byte in machine.mem.items()
                    if byte}
    assert executor_mem == ref.nonzero_mem()


@pytest.mark.parametrize("seed", range(CASES))
def test_random_differential(seed):
    assert_equivalent(random_program(seed))


def test_case_volume():
    """The issue's floor: at least 200 randomized differential cases."""
    assert CASES >= 200


# ---------------------------------------------------------------------------
# Frozen regressions: any sequence that ever diverged gets pinned here,
# plus hand-picked edge cases seeded up front.


def _edge_cases() -> dict:
    x = {
        "sra-negative": [
            _i(-1, 0, 0b000, 5, 0b0010011),          # x5 = -1
            _r(0b0100000, 31, 5, 0b101, 6, 0b0010011),  # srai x6, x5, 31
            _r(0, 31, 5, 0b101, 7, 0b0010011),       # srli x7, x5, 31
            _r(0b0100000, 0, 5, 0b000, 8, 0b0110011),   # sub x8, x5, x0
            EBREAK,
        ],
        "sltu-boundaries": [
            _i(-1, 0, 0b000, 5, 0b0010011),          # x5 = 0xFFFFFFFF
            _i(1, 0, 0b000, 6, 0b0010011),           # x6 = 1
            _r(0, 5, 6, 0b011, 7, 0b0110011),        # sltu x7, x6, x5
            _r(0, 6, 5, 0b011, 8, 0b0110011),        # sltu x8, x5, x6
            _r(0, 5, 6, 0b010, 9, 0b0110011),        # slt  x9, x6, x5
            _i(-1, 6, 0b011, 10, 0b0010011),         # sltiu x10, x6, -1
            EBREAK,
        ],
        "unaligned-word": [
            _u(0x2, 28, 0b0110111),                  # x28 = 0x2000
            _u(0x12345, 5, 0b0110111),               # x5 = 0x12345000
            _i(0x678, 5, 0b000, 5, 0b0010011),       # x5 += 0x678
            _s(3, 5, 28, 0b010),                     # sw x5, 3(x28)
            _i(3, 28, 0b010, 6, 0b0000011),          # lw x6, 3(x28)
            _i(5, 28, 0b000, 7, 0b0000011),          # lb x7, 5(x28)
            _i(5, 28, 0b100, 8, 0b0000011),          # lbu x8, 5(x28)
            _i(4, 28, 0b001, 9, 0b0000011),          # lh x9, 4(x28)
            EBREAK,
        ],
        "jalr-clears-bit0": [
            _i(13, 0, 0, 5, 0b1100111),              # jalr x5, 13(x0) -> 12
            EBREAK,                                  # skipped
            _i(7, 0, 0b000, 6, 0b0010011),           # landing: x6 = 7
            EBREAK,
        ],
        "x0-stays-zero": [
            _i(99, 0, 0b000, 0, 0b0010011),          # addi x0, x0, 99
            _u(0xFFFFF, 0, 0b0110111),               # lui x0, 0xFFFFF
            _r(0, 0, 0, 0b000, 5, 0b0110011),        # add x5, x0, x0
            EBREAK,
        ],
        "wraparound-add": [
            _u(0x80000, 5, 0b0110111),               # x5 = 0x80000000
            _r(0, 5, 5, 0b000, 6, 0b0110011),        # add x6 = x5+x5 (=0)
            _i(-1, 6, 0b000, 7, 0b0010011),          # x7 = x6-1
            EBREAK,
        ],
        "ecall-halts": [
            _i(1, 0, 0b000, 5, 0b0010011),
            ECALL,
            _i(2, 0, 0b000, 5, 0b0010011),           # unreachable
            EBREAK,
        ],
        "runs-off-image": [
            _i(1, 0, 0b000, 5, 0b0010011),
            _i(2, 0, 0b000, 6, 0b0010011),
        ],
    }
    return x


def _load_regressions() -> dict:
    cases = {name: words for name, words in _edge_cases().items()}
    if _REGRESSIONS.is_file():
        frozen = json.loads(_REGRESSIONS.read_text())
        for name, entry in frozen.items():
            cases[name] = entry["words"]
    return cases


@pytest.mark.parametrize("name", sorted(_load_regressions()))
def test_frozen_regression(name):
    assert_equivalent(_load_regressions()[name])
