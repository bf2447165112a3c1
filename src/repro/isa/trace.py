"""Trace sources — where the frontend gets its µops.

The fetch stage consumes a :class:`TraceSource`: an infinite (or finite)
supplier of correct-path µops plus the seeded synthesizer for wrong-path
µops fetched after a branch misprediction, which the base class owns.
Workload generators implement this protocol; :class:`ListTrace` wraps a
plain list for tests and the timing-diagram examples.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional

from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp

#: Mixed into wrong-path RNG seeds so the wrong-path stream is decorrelated
#: from the correct-path generator seeded with the same value.
WRONG_PATH_SEED_SALT = 0x5DEECE66D


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
        self.seed = seed
        self._rng = random.Random(seed ^ WRONG_PATH_SEED_SALT)

    def _draw_variant(self) -> int:
        # Uniform draw from {0,1,2} by 2-bit rejection sampling — the
        # exact consumption pattern ``Random.randrange(3)`` has always
        # used, spelled out so the variant stream (and thus every golden
        # SimStats file) is pinned to this module, not to the stdlib's
        # internals. Also measurably faster than randrange's argument
        # handling: fetch synthesizes one draw per wrong-path µop, and
        # :meth:`skip` burns through millions on long replay episodes.
        getrandbits = self._rng.getrandbits
        r = getrandbits(2)
        while r >= 3:
            r = getrandbits(2)
        return r

    def synth(self, seq: int, pc: int) -> MicroOp:
        variant = self._draw_variant()
        src = 0 if variant != 2 else 1
        dst = 1 if variant != 1 else 0
        return MicroOp(seq=seq, pc=pc, opclass=OpClass.INT_ALU,
                       srcs=[src], dst=dst, wrong_path=True)

    def skip(self, count: int) -> None:
        """Advance the variant stream by ``count`` draws without building
        µops — the bulk discard the lazy frontend performs at redirect."""
        getrandbits = self._rng.getrandbits
        for _ in range(count):
            r = getrandbits(2)
            while r >= 3:
                r = getrandbits(2)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"seed": self.seed, "rng": self._rng.getstate()}

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        self.seed = state["seed"]
        set_rng_state(self._rng, state["rng"])


class TraceSource:
    """Protocol for correct-path + wrong-path µop supply.

    Subclasses supply the correct path (:meth:`next_uop`) and the
    checkpoint state pair. The wrong path is the base class's: a
    :class:`WrongPathSynth` seeded with ``wp_seed``, which every source
    hands to :meth:`__init__` and includes in its own ``state_dict``.
    """

    def __init__(self, wp_seed: int) -> None:
        self._wp_synth = WrongPathSynth(wp_seed)

    def next_uop(self) -> Optional[MicroOp]:
        """Return the next correct-path µop, or ``None`` when exhausted."""
        raise NotImplementedError

    def next_block(self, max_uops: int) -> List[MicroOp]:
        """Return up to ``max_uops`` correct-path µops (empty when exhausted).

        Block-yield form of :meth:`next_uop` for functional warming
        (:mod:`repro.pipeline.warming`): consuming the stream in
        blocks amortizes per-µop dispatch. The base implementation loops
        :meth:`next_uop`, so any source is block-capable; generator
        sources override with a bulk walk, and recorded traces
        additionally expose raw record blocks
        (:meth:`repro.traces.format.FileTrace.next_record_block`).
        Stream position and checkpoint state advance exactly as if
        :meth:`next_uop` had been called per µop.
        """
        out: List[MicroOp] = []
        append = out.append
        next_uop = self.next_uop
        for _ in range(max_uops):
            uop = next_uop()
            if uop is None:
                break
            append(uop)
        return out

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
        """Cursor/RNG state sufficient to resume this stream exactly.

        Every shipped source implements the pair; custom sources must
        override both to be checkpointable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the checkpoint "
            f"state protocol (state_dict/load_state_dict)")

    def load_state_dict(self, state: dict) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the checkpoint "
            f"state protocol (state_dict/load_state_dict)")


class ListTrace(TraceSource):
    """A finite trace backed by a list: ``None`` after its last µop.

    Wrong-path synthesis is seeded per source (``wp_seed``).
    """

    def __init__(self, uops: Iterable[MicroOp], wp_seed: int = 0) -> None:
        super().__init__(wp_seed)
        self._uops: List[MicroOp] = list(uops)
        self._pos = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._uops)

    def next_uop(self) -> Optional[MicroOp]:
        if self._pos >= len(self._uops):
            return None
        template = self._uops[self._pos]
        self._pos += 1
        uop = template.clone_arch(self._seq)
        self._seq += 1
        return uop

    def state_dict(self) -> dict:
        return {"pos": self._pos, "seq": self._seq,
                "synth": self._wp_synth.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self._pos = state["pos"]
        self._seq = state["seq"]
        self._wp_synth.load_state_dict(state["synth"])


def iterate(source: TraceSource, limit: int) -> Iterator[MicroOp]:
    """Yield up to ``limit`` correct-path µops from ``source``."""
    for _ in range(limit):
        uop = source.next_uop()
        if uop is None:
            return
        yield uop
