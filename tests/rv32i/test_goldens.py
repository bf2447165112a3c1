"""Golden architectural end states for every bundled RV32I kernel.

Each bundled program runs functionally to halt; its complete register
file, final pc, halt reason, retire count and data-memory digest are
compared against ``tests/rv32i/goldens.json``. Any semantic change to
the executor, the assembler (``scripts/asm_corpus.py``), or a kernel
listing shows up here as a concrete end-state diff.

If a change is *intentional*, regenerate and commit the goldens::

    PYTHONPATH=src python -m pytest tests/rv32i -q --regen-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.isa.rv32i.corpus import BUNDLED, bundled_programs
from repro.isa.rv32i.workload import Rv32iProgram

GOLDENS = Path(__file__).with_name("goldens.json")


def _end_state(image: Path) -> dict:
    program = Rv32iProgram.from_file(image)
    machine = program.machine()
    machine.run(max_steps=2_000_000)
    assert machine.halted, f"{image.stem} did not halt"
    return {
        "image_sha": program.image_sha(),
        "words": len(program.words),
        "retired": machine.retired,
        "halt_reason": machine.halt_reason,
        "pc": machine.pc,
        "regs": list(machine.regs),
        "mem_digest": machine.memory_digest(),
        "mem_nonzero_bytes": sum(1 for b in machine.mem.values() if b),
    }


@pytest.fixture(scope="module")
def goldens(request):
    programs = bundled_programs()
    assert programs, "bundled corpus missing (examples/rv32i)"
    if request.config.getoption("--regen-goldens"):
        regenerated = {name: _end_state(image)
                       for name, image in sorted(programs.items())}
        GOLDENS.write_text(
            json.dumps(regenerated, indent=1, sort_keys=True) + "\n")
        return regenerated
    assert GOLDENS.is_file(), (f"{GOLDENS} missing; create it with "
                               f"--regen-goldens and commit it")
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_end_state(name, goldens):
    image = bundled_programs().get(name)
    assert image is not None, f"bundled image for {name!r} missing"
    assert name in goldens, f"no golden for {name!r}; regenerate"
    actual = _end_state(image)
    expected = goldens[name]
    diffs = {key: (expected.get(key), actual[key]) for key in actual
             if actual[key] != expected.get(key)}
    assert not diffs, (
        f"{name}: architectural end state changed: {diffs}. If this is "
        f"intentional, re-run with --regen-goldens and commit the new "
        f"goldens.json.")


def test_corpus_complete(goldens):
    """Every bundled kernel has an image, a listing, and a golden."""
    programs = bundled_programs()
    assert sorted(programs) == sorted(BUNDLED)
    assert sorted(goldens) == sorted(BUNDLED)
    for image in programs.values():
        assert image.with_suffix(".s").is_file(), \
            f"source listing missing next to {image.name}"


def test_images_match_listings():
    """The checked-in .hex images are exactly the assembled listings."""
    from asm_corpus import assemble, to_hex

    for name, image in sorted(bundled_programs().items()):
        listing = image.with_suffix(".s")
        assert to_hex(assemble(listing.read_text())) == image.read_text(), \
            f"{image.name} is stale; re-assemble {listing.name}"
