"""RV32I programs as registry workloads and pipeline trace sources.

:class:`Rv32iProgram` is a loaded instruction image (flat ``.hex`` word
list or raw little-endian ``.bin``); :class:`Rv32iWorkload` presents one
through the workload-registry protocol (``name`` / ``description`` /
``is_fp`` / ``build_trace(seed)`` / ``content_hash``), so a real program
is addressable everywhere a Table-2 workload is — ``repro run``, sweeps,
trace capture, checkpoints, sampling. :class:`Rv32iTrace` is the
:class:`~repro.isa.trace.TraceSource`: each refill steps the functional
:class:`~repro.isa.rv32i.core.Machine` and lowers each retired
instruction to one row (:mod:`repro.isa.rv32i.lower`) in the base
class's buffer, so warming and ``trace record`` read the program without
building a ``MicroOp``.

The µop stream is a pure function of the image: the program's committed
path never depends on the seed (that only drives the wrong-path
synthesizer), so the engine keys cells on the image's content hash. The
stream **loops**: when the program halts, the machine is reset to its
initial state and execution restarts, so finite kernels supply unbounded
µops exactly like the synthetic generators. :meth:`Machine.run` is the
run-to-halt path.
"""

from __future__ import annotations

import hashlib
import string
from pathlib import Path
from typing import List, Optional

from repro.isa.rv32i.core import Machine
from repro.isa.rv32i.lower import lower
from repro.isa.trace import TraceSource

#: Image suffixes the workload registry recognizes as RV32I programs.
RV32I_SUFFIXES = (".hex", ".bin")


class Rv32iError(ValueError):
    """Unloadable or malformed program image."""


def parse_hex(text: str, name: str) -> List[int]:
    """Read a flat ``.hex`` image: one 8-digit hex word per line.

    ``#`` starts a comment and blank lines are skipped. Every word must
    be exactly 8 hex digits, so an image cut mid-line is an error rather
    than a shorter, different program; the error names ``name`` and the
    line.
    """
    words: List[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != 8 or line.strip(string.hexdigits):
            raise Rv32iError(f"{name}: line {line_number}: not an 8-digit "
                             f"hex word {line!r}")
        words.append(int(line, 16))
    return words


class Rv32iProgram:
    """A flat RV32I instruction image, loaded at address 0."""

    def __init__(self, words: List[int], *, name: str,
                 path: Optional[Path] = None,
                 description: str = "") -> None:
        if not words:
            raise Rv32iError(f"program {name!r} has an empty image")
        self.words = list(words)
        self.name = name
        self.path = Path(path) if path is not None else None
        self.description = description

    @classmethod
    def from_file(cls, path, *, name: Optional[str] = None,
                  description: str = "") -> "Rv32iProgram":
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".hex":
            # Undecodable bytes become U+FFFD, which parse_hex refuses
            # with the file and line.
            words = parse_hex(path.read_text(errors="replace"), path.name)
        elif suffix == ".bin":
            blob = path.read_bytes()
            if len(blob) % 4:
                raise Rv32iError(
                    f"{path.name}: binary image is {len(blob)} bytes, "
                    f"not a whole number of 32-bit words")
            words = [int.from_bytes(blob[i:i + 4], "little")
                     for i in range(0, len(blob), 4)]
        else:
            raise Rv32iError(
                f"{path.name}: unsupported image suffix {path.suffix!r} "
                f"(expected {' or '.join(RV32I_SUFFIXES)})")
        return cls(words, name=name or path.stem, path=path,
                   description=description)

    def image_bytes(self) -> bytes:
        return b"".join(word.to_bytes(4, "little") for word in self.words)

    def image_sha(self) -> str:
        """Content identity of the instruction image."""
        return hashlib.sha256(self.image_bytes()).hexdigest()

    def machine(self) -> Machine:
        return Machine(self.words)


class Rv32iTrace(TraceSource):
    """Execute-and-lower trace source over a program image."""

    def __init__(self, program: Rv32iProgram, seed: int = 0) -> None:
        super().__init__(seed)
        self.program = program
        self._machine = program.machine()

    def _refill(self) -> bool:
        machine = self._machine
        retired = machine.step()
        while retired is None:
            # Halted: restart from the initial image. Sharing the decoded
            # cache keeps re-runs from re-decoding every static
            # instruction.
            fresh = Machine(self.program.words)
            fresh._decoded = machine._decoded
            self._machine = machine = fresh
            retired = machine.step()
            if retired is None:
                raise Rv32iError(
                    f"program {self.program.name!r} halts without "
                    f"retiring a single instruction")
        self._buffer.append(lower(retired))
        return True

    # -- state protocol (repro.checkpoint) ------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["machine"] = self._machine.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._machine = self.program.machine()
        self._machine.load_state_dict(state["machine"])


class Rv32iWorkload:
    """An RV32I program behind the workload-registry protocol."""

    def __init__(self, path, *, name: Optional[str] = None,
                 description: str = "", seed: int = 1) -> None:
        self.program = Rv32iProgram.from_file(path, name=name,
                                              description=description)
        self.path = self.program.path
        self.name = self.program.name
        self.seed = seed
        self.digest = self.program.image_sha()

    @property
    def description(self) -> str:
        base = self.program.description
        suffix = f"RV32I program ({len(self.program.words)} words)"
        return f"{base} [{suffix}]" if base else suffix

    @property
    def is_fp(self) -> bool:
        return False                # RV32I is the integer base set

    def build_trace(self, seed: Optional[int] = None) -> Rv32iTrace:
        return Rv32iTrace(self.program,
                          seed=self.seed if seed is None else seed)

    def content_hash(self) -> str:
        """Identity of the instruction image, not of the file location."""
        from repro.common.serialize import stable_hash

        return stable_hash({"kind": "rv32i", "image_sha": self.digest})
