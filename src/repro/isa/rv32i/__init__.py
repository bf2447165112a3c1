"""Real-ISA workload front: a functional RV32I executor and µop capture.

This package runs real compiled/assembled RV32I programs to completion
and lowers each retired instruction into a row of the architectural
µop fields the pipeline consumes (:data:`repro.isa.trace.Row`) — genuine
loop-carried dependences, real branch correlation and actual address
reuse, where every other workload in the repository is synthetic.

Layers (each importable on its own):

* :mod:`~repro.isa.rv32i.decode` — pure-python decoder for the full
  RV32I base set;
* :mod:`~repro.isa.rv32i.core` — the functional machine (register file,
  sparse byte memory, run-to-halt);
* :mod:`~repro.isa.rv32i.lower` — retired instruction -> µop row lowering;
* :mod:`~repro.isa.rv32i.workload` — the ``.hex``/``.bin`` image
  reader, registry workloads and the
  :class:`~repro.isa.trace.TraceSource` the pipeline fetches from;
* :mod:`~repro.isa.rv32i.corpus` — the bundled kernel programs under
  ``examples/rv32i/``.

The assembler that writes the bundled images is a corpus tool, not part
of the package: ``scripts/asm_corpus.py``.

See ``docs/RV32I.md`` for the CLI surface and the bring-your-own-program
guide.
"""

from repro.isa.rv32i.core import HaltReason, Machine, Retired
from repro.isa.rv32i.corpus import (
    BUNDLED,
    bundled_programs,
    bundled_workload,
    corpus_dir,
)
from repro.isa.rv32i.decode import DecodeError, Instr, decode
from repro.isa.rv32i.lower import lower
from repro.isa.rv32i.workload import (
    RV32I_SUFFIXES,
    Rv32iError,
    Rv32iProgram,
    Rv32iTrace,
    Rv32iWorkload,
    parse_hex,
)

__all__ = [
    "BUNDLED",
    "DecodeError",
    "HaltReason",
    "Instr",
    "Machine",
    "Retired",
    "RV32I_SUFFIXES",
    "Rv32iError",
    "Rv32iProgram",
    "Rv32iTrace",
    "Rv32iWorkload",
    "bundled_programs",
    "bundled_workload",
    "corpus_dir",
    "decode",
    "lower",
    "parse_hex",
]
