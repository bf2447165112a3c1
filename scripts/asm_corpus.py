"""Assemble every bundled RV32I listing into its checked-in image.

Run from the repo root:

    PYTHONPATH=src python scripts/asm_corpus.py

(Re)writes ``examples/rv32i/<name>.hex`` for every listing in the
bundled table and reports each program's size, retire count and halt
reason. To check the checked-in images against their listings without
writing anything, run ``repro rv32i check``.
"""

from __future__ import annotations

from pathlib import Path

from repro.isa.rv32i.asm import assemble, to_hex
from repro.isa.rv32i.core import Machine
from repro.isa.rv32i.corpus import BUNDLED


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
