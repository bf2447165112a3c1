"""Wires and latches: the connective tissue between stages.

Stages (:mod:`repro.pipeline.stages`) never call each other directly.
What crosses a stage boundary travels through one of two primitives,
each with an explicit contract, or through a shared structure (the full
wiring diagram lives in ``docs/ARCHITECTURE.md``):

* :class:`Wire` — a named scalar signal shared by stages within a
  cycle (L1 outcome flags, the replay issue-block cycle, the last
  commit cycle). Wires are plain mutable cells: writers assign
  ``wire.value``, readers read it; the driver resets per-cycle wires
  in its prologue.
* :class:`DelayQueue` — a cycle-indexed latch bank modelling a
  fixed-latency hand-off: the producer pushes an item tagged with its
  delivery cycle, the consumer pops everything due at ``now``. The
  issue→execute latch (D+1 cycles deep) and the execute→writeback
  completion latch are DelayQueues.

Stages share these cells rather than the simulator, which keeps the
machine acyclic. Wakeups are the one same-cycle, one-way callback: the
Issue stage binds its ready-list router into the scoreboard and the LSQ
(their ``on_ready``).

Latency contract: a ``DelayQueue`` delivers at exactly the cycle the
producer stamped, never earlier; ``Wire`` values written in one stage
are visible to every later stage of the same cycle.

Hot-path note: ``DelayQueue.slots`` (the underlying ``dict``) is
deliberately public so per-µop paths can bind it once and skip a
method-call round trip; it stays valid across checkpoint restores
because ``load_state_dict`` mutates in place.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.isa.uop import MicroOp


class Wire:
    """A named scalar signal shared between stages.

    The writer assigns :attr:`value`; readers read it in the same cycle.
    ``default`` is the initial value (per-cycle wires are reset by the
    driver's prologue; sticky wires such as ``last_commit`` are only
    overwritten by :meth:`load_state_dict`).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, default: Any) -> None:
        """Declare a wire named ``name`` holding ``default``."""
        self.name = name
        self.value = default

    def state_dict(self) -> Any:
        """The wire's current value (plain data)."""
        return self.value

    def load_state_dict(self, state: Any) -> None:
        """Restore a :meth:`state_dict` value."""
        self.value = state


class DelayQueue:
    """A cycle-indexed latch bank: items pushed for a future cycle are
    delivered exactly when that cycle arrives.

    This is the generalized multi-cycle latch between stages: the Issue
    stage pushes ``(µop, issue_id)`` pairs for cycle ``X + D + 1`` and
    the Execute stage pops everything stamped ``now``. ``issue_id``
    snapshots ``uop.num_issues`` at push time so a squash-and-reissue
    invalidates stale deliveries (the consumer compares ids).

    ``slots`` (``{cycle: [(µop, issue_id), ...]}``) is public for hot
    paths; it is mutated in place by :meth:`load_state_dict` so bound
    references survive a checkpoint restore.
    """

    __slots__ = ("name", "slots")

    def __init__(self, name: str) -> None:
        """Declare a latch bank named ``name`` (e.g. ``issue->execute``)."""
        self.name = name
        self.slots: Dict[int, List[Tuple[MicroOp, int]]] = {}

    def push(self, cycle: int, uop: MicroOp, issue_id: int) -> None:
        """Schedule ``(uop, issue_id)`` for delivery at ``cycle``."""
        entry = self.slots.get(cycle)
        if entry is None:
            self.slots[cycle] = [(uop, issue_id)]
        else:
            entry.append((uop, issue_id))

    def pop(self, now: int) -> Optional[List[Tuple[MicroOp, int]]]:
        """Everything due at ``now`` (or None), removed from the bank."""
        return self.slots.pop(now, None)

    def __len__(self) -> int:
        """Number of occupied delivery cycles."""
        return len(self.slots)

    def in_flight(self) -> int:
        """Total queued deliveries across every pending cycle (the
        latch-bank occupancy the telemetry probes sample)."""
        return sum(len(entries) for entries in self.slots.values())

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self, ctx) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Encode as ``[(cycle, [(µop ref, issue_id), ...]), ...]``."""
        return [
            (cycle, [(ctx.ref(uop), issue_id) for uop, issue_id in entries])
            for cycle, entries in self.slots.items()
        ]

    def load_state_dict(self, state, ctx) -> None:
        """Restore a :meth:`state_dict` encoding (in place: bound
        ``slots`` references stay valid)."""
        self.slots.clear()
        for cycle, entries in state:
            self.slots[cycle] = [(ctx.uop(ref), issue_id) for ref, issue_id in entries]
