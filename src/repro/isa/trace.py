"""Trace sources — where the frontend gets its µops.

A :class:`TraceSource` is an infinite (or finite) supplier of
correct-path µops in two shapes over one stream position:

* :meth:`TraceSource.next_row` — one plain row (:data:`Row`), the
  supply the fetch stage of the detailed machine reads (it keeps the
  row in its pipe, and a ``MicroOp`` is built only when Rename takes
  it, see :mod:`repro.frontend.fetch`);
* :meth:`TraceSource.next_record_block` — up to a few thousand µops
  as a :class:`RecordBlock`, the plain columns functional warming
  reads. A generated source transposes its rows into them with
  ``zip``; a recording unpacks them from its frame bytes.

Every generated source supplies its stream as plain rows through one
buffer the base class owns: a subclass only implements
:meth:`TraceSource._refill`, and the base hands rows out one by one or a
block at a time, so neither fetch nor warming builds a ``MicroOp`` from
the source. A row is read-only and may be shared: a kernel repeats the
rows it does not vary between loop iterations, so one tuple and one
``srcs`` list can stand for many µops. Nothing mutates a ``srcs`` list
(a µop built from a row keeps the row's), and the checkpoint state and
the µop codec copy it. A recording
(:class:`repro.traces.format.FileTrace`) overrides both shapes to read
its frame bytes instead. :meth:`TraceSource.next_uop` wraps
:meth:`TraceSource.next_row` for tests and tools that want one
``MicroOp`` at a time.

The base class also owns the seeded synthesizer for wrong-path µops
fetched after a branch misprediction. :class:`ListTrace` wraps a plain
list for tests and the timing-diagram examples.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp

#: One correct-path µop as a plain row: the ``MicroOp`` positional
#: arguments after ``seq``, ``(pc, opclass, srcs, dst, mem_addr,
#: mem_size, taken, target)``, with at most 3 sources. Read-only, and
#: possibly shared by many µops (module docstring).
Row = Tuple[int, OpClass, List[int], Optional[int], int, int, bool, int]

#: Mixed into wrong-path RNG seeds so the wrong-path stream is decorrelated
#: from the correct-path generator seeded with the same value.
WRONG_PATH_SEED_SALT = 0x5DEECE66D

#: Top bytes of the RNG words a 2-bit rejection draw refuses (``0b11...``).
_REJECTED_TOP_BYTES = bytes(range(0xC0, 0x100))


class WrongPathSynth:
    """Seeded wrong-path µop synthesizer shared by all trace sources.

    Wrong-path filler stays on the reserved architectural registers 0/1
    (no workload generator writes them) and on 1-cycle ALU ops, but the
    source/destination pattern varies pseudo-randomly so wrong-path
    resource pressure is not one degenerate serial chain. The variant
    stream is a pure function of the seed — a replayed trace reproduces
    it exactly.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed ^ WRONG_PATH_SEED_SALT)

    def _draw_variant(self) -> int:
        # Uniform draw from {0,1,2} by 2-bit rejection sampling — the
        # exact consumption pattern ``Random.randrange(3)`` has always
        # used, spelled out so the variant stream (and thus every golden
        # SimStats file) is pinned to this module, not to the stdlib's
        # internals. Also faster than randrange's argument handling, and
        # fetch synthesizes one draw per wrong-path µop.
        getrandbits = self._rng.getrandbits
        r = getrandbits(2)
        while r >= 3:
            r = getrandbits(2)
        return r

    def synth(self, seq: int, pc: int) -> MicroOp:
        variant = self._draw_variant()
        src = 0 if variant != 2 else 1
        dst = 1 if variant != 1 else 0
        return MicroOp(seq, pc, OpClass.INT_ALU, [src], dst, 0, 8, False, 0, True)

    def skip(self, count: int) -> None:
        """Advance the variant stream by ``count`` draws without building
        µops — the bulk discard the lazy frontend performs at redirect.
        A draw keeps the top two bits of one 32-bit word, and ``getrandbits(32 * k)``
        takes the same ``k`` words, low first: take as many words as accepts are still
        needed (never one too many), and count the accepted ones by their top bytes."""
        getrandbits = self._rng.getrandbits
        while count > 0:
            words = min(count, 1 << 16)     # at most 256 KiB at once
            top_bytes = getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            count -= len(top_bytes.translate(None, _REJECTED_TOP_BYTES))

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"rng": self._rng.getstate()}

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        set_rng_state(self._rng, state["rng"])


class RecordBlock:
    """Consecutive correct-path µops as the columns functional warming
    reads (:meth:`TraceSource.next_record_block`): one entry per µop in
    stream order, ``opclasses`` as :class:`OpClass` members or their
    values and ``takens`` as bools or 0/1. ``len()`` is the µop count.
    """

    __slots__ = ("pcs", "opclasses", "mem_addrs", "takens", "targets")

    def __init__(self, pcs: Sequence[int], opclasses: Sequence[int],
                 mem_addrs: Sequence[int], takens: Sequence[int],
                 targets: Sequence[int]) -> None:
        self.pcs = pcs
        self.opclasses = opclasses
        self.mem_addrs = mem_addrs
        self.takens = takens
        self.targets = targets

    def __len__(self) -> int:
        return len(self.pcs)


class TraceSource:
    """Protocol for correct-path + wrong-path µop supply.

    The correct path is a buffer of rows (:data:`Row`) that a subclass
    tops up in :meth:`_refill`; :meth:`next_row` and
    :meth:`next_record_block` drain it and count ``emitted``. The
    checkpoint state holds the buffer, ``emitted`` and the wrong-path
    stream; a subclass whose refill keeps its own cursor (an RNG, a
    machine) adds that to :meth:`state_dict` and
    :meth:`load_state_dict`. The wrong path is a
    :class:`WrongPathSynth` seeded with ``wp_seed``, which every source
    hands to :meth:`__init__`.
    """

    def __init__(self, wp_seed: int) -> None:
        self._wp_synth = WrongPathSynth(wp_seed)
        self._buffer: Deque[Row] = deque()
        self.emitted = 0

    def _refill(self) -> bool:
        """Append the next rows to the (empty) buffer; False once the
        stream is exhausted."""
        raise NotImplementedError

    def next_row(self) -> Optional[Row]:
        """Return the next correct-path row, or ``None`` when exhausted."""
        buffer = self._buffer
        if not buffer and not self._refill():
            return None
        self.emitted += 1
        return buffer.popleft()

    def next_uop(self) -> Optional[MicroOp]:
        """The next correct-path row as an unnumbered :class:`MicroOp`,
        or ``None`` when exhausted."""
        row = self.next_row()
        return None if row is None else MicroOp(0, *row)

    def next_record_block(self, max_uops: int) -> Optional[RecordBlock]:
        """Return up to ``max_uops`` correct-path µops as columns.

        ``max_uops`` is positive. The block holds at least one µop;
        ``None`` means the stream is exhausted. Whole refills are
        drained at once, so the stream position and checkpoint state
        advance exactly as if :meth:`next_row` had been called per µop.
        No :class:`MicroOp` is built.
        """
        buffer = self._buffer
        rows: List[Row] = []
        while len(rows) < max_uops:
            if not buffer and not self._refill():
                break
            take = max_uops - len(rows)
            if take >= len(buffer):
                rows.extend(buffer)
                buffer.clear()
            else:
                rows.extend([buffer.popleft() for _ in range(take)])
        if not rows:
            return None
        self.emitted += len(rows)
        pcs, opclasses, _, _, mem_addrs, _, takens, targets = zip(*rows)
        return RecordBlock(pcs, opclasses, mem_addrs, takens, targets)

    def wrong_path_uop(self, seq: int, pc: int) -> MicroOp:
        """Synthesize one wrong-path µop fetched from (bogus) ``pc``.

        Trace-driven simulation cannot replay real wrong paths, so the
        seeded synthesizer provides filler that consumes pipeline
        resources until the mispredicted branch resolves.
        """
        return self._wp_synth.synth(seq, pc)

    def skip_wrong_path(self, count: int) -> None:
        """Discard ``count`` wrong-path µops from the synthesis stream.

        The lazy frontend (:class:`repro.frontend.fetch.FetchStage`) only
        materializes wrong-path µops that actually reach Rename; the rest
        of an episode is discarded in bulk at redirect through this hook,
        which advances the stream exactly as if the µops had been built,
        so later episodes see the same draws as an eager frontend.
        """
        self._wp_synth.skip(count)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Buffered rows, ``emitted`` and the wrong-path stream."""
        return {
            "buffer": [(pc, int(opclass), list(srcs), *rest)
                       for pc, opclass, srcs, *rest in self._buffer],
            "emitted": self.emitted,
            "synth": self._wp_synth.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._buffer = deque(
            (pc, OpClass(opclass), list(srcs), *rest)
            for pc, opclass, srcs, *rest in state["buffer"])
        self.emitted = state["emitted"]
        self._wp_synth.load_state_dict(state["synth"])


class ListTrace(TraceSource):
    """A finite trace backed by a list: ``None`` after its last µop.

    The templates' architectural fields become rows once, here; a
    wrong-path template is refused, since a row has no wrong-path flag
    (the wrong path is always synthesized). Wrong-path synthesis is
    seeded per source (``wp_seed``).
    """

    def __init__(self, uops: Iterable[MicroOp], wp_seed: int = 0) -> None:
        super().__init__(wp_seed)
        for uop in uops:
            if uop.wrong_path:
                raise ValueError(
                    f"ListTrace: µop at pc={uop.pc:#x} is wrong-path; "
                    f"a trace holds only the correct path")
            self._buffer.append(uop.arch_row())

    def _refill(self) -> bool:
        return False


def iterate(source: TraceSource, limit: int) -> Iterator[MicroOp]:
    """Yield up to ``limit`` correct-path µops from ``source``."""
    for _ in range(limit):
        uop = source.next_uop()
        if uop is None:
            return
        yield uop
