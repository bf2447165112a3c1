"""Assemble every bundled RV32I listing into its checked-in image.

Run from the repo root:

    PYTHONPATH=src python scripts/asm_corpus.py

(Re)writes ``examples/rv32i/<name>.hex`` for every listing in the
bundled table and reports each program's size, retire count and halt
reason. The tier-1 test
``tests/rv32i/test_goldens.py::test_images_match_listings`` checks the
checked-in images against their listings without writing anything.

The assembler below is deliberately a *corpus tool*, not a general
toolchain: enough of the GNU assembler's surface (labels, ABI register
names, the base instruction set, the common pseudo-instructions,
``.word``) to write the bundled kernels as readable ``.s`` listings and
re-assemble them byte-identically. Programs start at address 0; there
are no sections, no relocation and no linker. The simulator reads the
images with ``repro.isa.rv32i.workload.parse_hex``.

Syntax per line (``#`` starts a comment)::

    label:
    mnemonic  operands          # e.g. addi sp, sp, -16
    .word     0x12345678        # raw data word emitted in place

Pseudo-instructions expand exactly as the standard assembler does:
``li`` (1 word when the value fits ADDI's 12-bit immediate, else
``lui``+``addi``), ``la`` is not supported (no sections), ``mv``,
``not``, ``neg``, ``seqz``/``snez``/``sltz``/``sgtz``, ``nop``,
``beqz``/``bnez``/``blez``/``bgez``/``bltz``/``bgtz``, ``j``, ``jr``,
``ret``, ``call`` (→ ``jal ra``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

from repro.isa.rv32i.core import Machine
from repro.isa.rv32i.corpus import BUNDLED

MASK32 = 0xFFFFFFFF


class AsmError(ValueError):
    """Malformed assembly input (reported with the source line number)."""


#: ABI name -> register index (x0..x31 accepted as well).
REG_NAMES: Dict[str, int] = {"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
                             "fp": 8}
REG_NAMES.update({f"x{i}": i for i in range(32)})
REG_NAMES.update({f"t{i}": n for i, n in
                  enumerate((5, 6, 7, 28, 29, 30, 31))})
REG_NAMES.update({f"s{i}": n for i, n in
                  enumerate((8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27))})
REG_NAMES.update({f"a{i}": 10 + i for i in range(8)})


def _reg(token: str, line: int) -> int:
    index = REG_NAMES.get(token.strip().lower())
    if index is None:
        raise AsmError(f"line {line}: unknown register {token.strip()!r}")
    return index


def _int(token: str, line: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AsmError(f"line {line}: bad integer {token.strip()!r}") from None


def _fits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


# ---------------------------------------------------------------------------
# Encoders (one per format)


def _enc_r(f7: int, rs2: int, rs1: int, f3: int, rd: int, op: int) -> int:
    return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | (rd << 7) | op


def _enc_i(imm: int, rs1: int, f3: int, rd: int, op: int, line: int) -> int:
    if not _fits(imm, 12):
        raise AsmError(f"line {line}: immediate {imm} out of 12-bit range")
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op


def _enc_s(imm: int, rs2: int, rs1: int, f3: int, op: int, line: int) -> int:
    if not _fits(imm, 12):
        raise AsmError(f"line {line}: store offset {imm} out of range")
    imm &= 0xFFF
    return ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | ((imm & 0x1F) << 7) | op


def _enc_b(imm: int, rs2: int, rs1: int, f3: int, op: int, line: int) -> int:
    if imm % 2:
        raise AsmError(f"line {line}: branch target misaligned by {imm}")
    if not _fits(imm, 13):
        raise AsmError(f"line {line}: branch offset {imm} out of range")
    imm &= 0x1FFF
    return (((imm >> 12) & 0x1) << 31) | (((imm >> 5) & 0x3F) << 25) \
        | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 0x1) << 7) | op


def _enc_u(imm: int, rd: int, op: int, line: int) -> int:
    if not 0 <= imm < (1 << 20):
        raise AsmError(f"line {line}: U-immediate {imm:#x} out of range")
    return (imm << 12) | (rd << 7) | op


def _enc_j(imm: int, rd: int, op: int, line: int) -> int:
    if imm % 2:
        raise AsmError(f"line {line}: jump target misaligned by {imm}")
    if not _fits(imm, 21):
        raise AsmError(f"line {line}: jump offset {imm} out of range")
    imm &= 0x1FFFFF
    return (((imm >> 20) & 0x1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
        | (((imm >> 11) & 0x1) << 20) | (((imm >> 12) & 0xFF) << 12) \
        | (rd << 7) | 0b1101111


_R_OPS = {"add": (0, 0), "sub": (0b0100000, 0), "sll": (0, 1),
          "slt": (0, 2), "sltu": (0, 3), "xor": (0, 4), "srl": (0, 5),
          "sra": (0b0100000, 5), "or": (0, 6), "and": (0, 7)}
_I_OPS = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_SHIFT_OPS = {"slli": (0, 1), "srli": (0, 5), "srai": (0b0100000, 5)}
_LOAD_OPS = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORE_OPS = {"sb": 0, "sh": 1, "sw": 2}
_BRANCH_OPS = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}

#: Pseudo-instruction -> (operand count, rewrite to a base mnemonic and
#: its operands).
_PSEUDO = {
    "nop": (0, lambda o: ("addi", ["x0", "x0", "0"])),
    "mv": (2, lambda o: ("addi", [*o, "0"])),
    "not": (2, lambda o: ("xori", [*o, "-1"])),
    "neg": (2, lambda o: ("sub", [o[0], "x0", o[1]])),
    "seqz": (2, lambda o: ("sltiu", [*o, "1"])),
    "snez": (2, lambda o: ("sltu", [o[0], "x0", o[1]])),
    "sltz": (2, lambda o: ("slt", [o[0], o[1], "x0"])),
    "sgtz": (2, lambda o: ("slt", [o[0], "x0", o[1]])),
    "beqz": (2, lambda o: ("beq", [o[0], "x0", o[1]])),
    "bnez": (2, lambda o: ("bne", [o[0], "x0", o[1]])),
    "bltz": (2, lambda o: ("blt", [o[0], "x0", o[1]])),
    "bgez": (2, lambda o: ("bge", [o[0], "x0", o[1]])),
    "blez": (2, lambda o: ("bge", ["x0", o[0], o[1]])),
    "bgtz": (2, lambda o: ("blt", ["x0", o[0], o[1]])),
    "j": (1, lambda o: ("jal", ["x0", o[0]])),
    "call": (1, lambda o: ("jal", ["ra", o[0]])),
    "jr": (1, lambda o: ("jalr", ["x0", f"0({o[0]})"])),
    "ret": (0, lambda o: ("jalr", ["x0", "0(ra)"])),
}


def _split_operands(rest: str) -> List[str]:
    return [part.strip() for part in rest.split(",")] if rest.strip() else []


def _mem_operand(token: str, line: int) -> Tuple[int, int]:
    """``offset(reg)`` -> (offset, reg index)."""
    token = token.strip()
    if not token.endswith(")") or "(" not in token:
        raise AsmError(f"line {line}: expected offset(reg), got {token!r}")
    offset_text, reg_text = token[:-1].split("(", 1)
    offset = _int(offset_text, line) if offset_text.strip() else 0
    return offset, _reg(reg_text, line)


def _li_words(rd: int, value: int) -> List[Tuple[str, List[str]]]:
    """Expansion plan for ``li`` (1 or 2 words, sized in pass 1)."""
    value = ((value + (1 << 31)) & MASK32) - (1 << 31)   # canonical signed
    if _fits(value, 12):
        return [("addi", [f"x{rd}", "x0", str(value)])]
    lower = ((value & 0xFFF) ^ 0x800) - 0x800            # signed low 12
    upper = ((value - lower) >> 12) & 0xFFFFF
    return [("lui", [f"x{rd}", str(upper)]),
            ("addi", [f"x{rd}", f"x{rd}", str(lower)])]


# ---------------------------------------------------------------------------
# Pass 1: tokenize, expand ``li``, lay out addresses


def _parse(text: str):
    """Return ``(line_number, address, mnemonic, operands)`` items plus
    the label table; operands may still be unresolved label names."""
    labels: Dict[str, int] = {}
    items: List[Tuple[int, int, str, List[str]]] = []
    address = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        while line and line.split()[0].endswith(":"):
            label = line.split()[0][:-1]
            if not label or label in labels:
                raise AsmError(
                    f"line {line_number}: bad/duplicate label {label!r}")
            labels[label] = address
            line = line[len(label) + 1:].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1] if len(parts) > 1 else "")
        if mnemonic == "li":
            if len(operands) != 2:
                raise AsmError(f"line {line_number}: li takes rd, imm")
            expansion = _li_words(_reg(operands[0], line_number),
                                  _int(operands[1], line_number))
        else:
            expansion = [(mnemonic, operands)]
        for op, args in expansion:
            items.append((line_number, address, op, args))
            address += 4
    return items, labels


def _target(token: str, labels: Dict[str, int], address: int,
            line: int) -> int:
    """A branch/jump operand: label -> pc-relative offset, int -> as-is."""
    token = token.strip()
    if token in labels:
        return labels[token] - address
    return _int(token, line)


# ---------------------------------------------------------------------------
# Pass 2: encode


def assemble(text: str) -> List[int]:
    """Assemble a listing into instruction words (program base 0)."""
    items, labels = _parse(text)
    return [_encode_one(line, address, mnemonic, ops, labels)
            for line, address, mnemonic, ops in items]


def _encode_one(line: int, address: int, mnemonic: str, ops: List[str],
                labels: Dict[str, int]) -> int:
    def need(count: int) -> None:
        if len(ops) != count:
            raise AsmError(f"line {line}: {mnemonic} takes {count} "
                           f"operand(s), got {len(ops)}")

    if mnemonic in _PSEUDO:
        count, rewrite = _PSEUDO[mnemonic]
        need(count)
        return _encode_one(line, address, *rewrite(ops), labels)
    if mnemonic == ".word":
        need(1)
        return _int(ops[0], line) & MASK32
    if mnemonic in _R_OPS:
        need(3)
        f7, f3 = _R_OPS[mnemonic]
        return _enc_r(f7, _reg(ops[2], line), _reg(ops[1], line), f3,
                      _reg(ops[0], line), 0b0110011)
    if mnemonic in _I_OPS:
        need(3)
        return _enc_i(_int(ops[2], line), _reg(ops[1], line),
                      _I_OPS[mnemonic], _reg(ops[0], line), 0b0010011, line)
    if mnemonic in _SHIFT_OPS:
        need(3)
        f7, f3 = _SHIFT_OPS[mnemonic]
        shamt = _int(ops[2], line)
        if not 0 <= shamt < 32:
            raise AsmError(f"line {line}: shift amount {shamt} out of range")
        return _enc_r(f7, shamt, _reg(ops[1], line), f3,
                      _reg(ops[0], line), 0b0010011)
    if mnemonic in _LOAD_OPS:
        need(2)
        offset, base = _mem_operand(ops[1], line)
        return _enc_i(offset, base, _LOAD_OPS[mnemonic],
                      _reg(ops[0], line), 0b0000011, line)
    if mnemonic in _STORE_OPS:
        need(2)
        offset, base = _mem_operand(ops[1], line)
        return _enc_s(offset, _reg(ops[0], line), base,
                      _STORE_OPS[mnemonic], 0b0100011, line)
    if mnemonic in _BRANCH_OPS:
        need(3)
        return _enc_b(_target(ops[2], labels, address, line),
                      _reg(ops[1], line), _reg(ops[0], line),
                      _BRANCH_OPS[mnemonic], 0b1100011, line)
    if mnemonic in ("lui", "auipc"):
        need(2)
        return _enc_u(_int(ops[1], line) & 0xFFFFF, _reg(ops[0], line),
                      0b0110111 if mnemonic == "lui" else 0b0010111, line)
    if mnemonic == "jal":
        if len(ops) == 1:           # `jal label` == `jal ra, label`
            ops = ["ra", ops[0]]
        need(2)
        return _enc_j(_target(ops[1], labels, address, line),
                      _reg(ops[0], line), 0b1101111, line)
    if mnemonic == "jalr":
        if len(ops) == 2:           # `jalr rd, offset(rs1)`
            offset, base = _mem_operand(ops[1], line)
            return _enc_i(offset, base, 0, _reg(ops[0], line),
                          0b1100111, line)
        need(3)                     # `jalr rd, rs1, offset`
        return _enc_i(_int(ops[2], line), _reg(ops[1], line), 0,
                      _reg(ops[0], line), 0b1100111, line)
    if mnemonic == "fence":
        return 0x0FF0000F
    if mnemonic == "ecall":
        need(0)
        return 0x00000073
    if mnemonic == "ebreak":
        need(0)
        return 0x00100073
    raise AsmError(f"line {line}: unknown mnemonic {mnemonic!r}")


def to_hex(words: List[int]) -> str:
    """One 8-digit hex word per line — the corpus image format."""
    return "".join(f"{word & MASK32:08x}\n" for word in words)


def main() -> int:
    root = Path(__file__).resolve().parents[1] / "examples/rv32i"
    failures = 0
    for name in BUNDLED:
        listing = root / f"{name}.s"
        image = root / f"{name}.hex"
        if not listing.is_file():
            print(f"{name}: MISSING listing {listing}")
            failures += 1
            continue
        words = assemble(listing.read_text())
        machine = Machine(words)
        machine.run(max_steps=2_000_000)
        image.write_text(to_hex(words))
        print(f"{name}: wrote {image.name} ({len(words)} words, "
              f"{machine.retired} retired, halt={machine.halt_reason})")
        if machine.halt_reason != "ebreak":
            print(f"{name}: did not halt at ebreak!")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
