"""Trace sources — where the frontend gets its µops.

The fetch stage consumes a :class:`TraceSource`: an infinite (or finite)
supplier of correct-path µops plus a synthesizer for wrong-path µops fetched
after a branch misprediction. Workload generators implement this protocol;
:class:`ListTrace` wraps a plain list for tests and the timing-diagram
examples.
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
    """Protocol for correct-path + wrong-path µop supply."""

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

        Trace-driven simulation cannot replay real wrong paths, so sources
        provide plausible filler that consumes pipeline resources until the
        mispredicted branch resolves (see DESIGN.md §6).
        """
        return MicroOp(seq=seq, pc=pc, opclass=OpClass.INT_ALU,
                       srcs=[0], dst=1, wrong_path=True)

    def skip_wrong_path(self, count: int) -> None:
        """Discard ``count`` wrong-path µops from the synthesis stream.

        The lazy frontend (:class:`repro.frontend.fetch.FetchStage`) only
        materializes wrong-path µops that actually reach Rename; the rest
        of an episode is discarded in bulk at redirect through this hook.
        Sources whose wrong path is seeded **must** advance their stream
        exactly as if the µops had been built, so later episodes see the
        same draws as an eager frontend. The base implementation
        synthesizes and drops (correct for any source); seeded sources
        override with a cheap stream advance.
        """
        for _ in range(count):
            self.wrong_path_uop(0, 0)

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
    """A finite trace backed by a list; replays indefinitely if ``loop``.

    Wrong-path synthesis is seeded per source (``wp_seed``) rather than
    inheriting the base class's constant filler, so two traces do not
    produce one identical degenerate wrong-path chain.
    """

    def __init__(self, uops: Iterable[MicroOp], loop: bool = False,
                 wp_seed: int = 0) -> None:
        self._uops: List[MicroOp] = list(uops)
        self._pos = 0
        self._loop = loop
        self._seq = 0
        self._wp_seed = wp_seed
        self._synth = WrongPathSynth(wp_seed)

    def __len__(self) -> int:
        return len(self._uops)

    def next_uop(self) -> Optional[MicroOp]:
        if self._pos >= len(self._uops):
            if not self._loop or not self._uops:
                return None
            self._pos = 0
        template = self._uops[self._pos]
        self._pos += 1
        uop = template.clone_arch(self._seq)
        self._seq += 1
        return uop

    def wrong_path_uop(self, seq: int, pc: int) -> MicroOp:
        return self._synth.synth(seq, pc)

    def skip_wrong_path(self, count: int) -> None:
        self._synth.skip(count)

    def reset(self) -> None:
        self._pos = 0
        self._seq = 0
        self._synth = WrongPathSynth(self._wp_seed)

    def state_dict(self) -> dict:
        return {"pos": self._pos, "seq": self._seq,
                "synth": self._synth.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        self._pos = state["pos"]
        self._seq = state["seq"]
        self._synth.load_state_dict(state["synth"])


def iterate(source: TraceSource, limit: int) -> Iterator[MicroOp]:
    """Yield up to ``limit`` correct-path µops from ``source``."""
    for _ in range(limit):
        uop = source.next_uop()
        if uop is None:
            return
        yield uop
