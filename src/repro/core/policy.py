"""Scheduling-policy interface.

The policy answers one question per issued load: *should its dependents be
woken speculatively, and with what promised latency?* (Section 4.1). It
also receives the training hooks the paper's mechanisms need: cycle-level
L1-miss observations (global counter), per-load outcomes at commit
(hit/miss filter) and criticality tags at retire (criticality predictor).

Policies are deliberately replay-scheme-agnostic, mirroring the paper's
framing: they only influence *wakeup*, never the recovery machinery.
"""

from __future__ import annotations

from repro.isa.uop import MicroOp


class LoadDecision:
    """Outcome of the per-load wakeup decision."""

    __slots__ = ("speculate", "promised_latency")

    def __init__(self, speculate: bool, promised_latency: int) -> None:
        self.speculate = speculate
        self.promised_latency = promised_latency

    def __repr__(self) -> str:  # pragma: no cover
        return (f"LoadDecision(speculate={self.speculate}, "
                f"promised={self.promised_latency})")


class SchedulingPolicy:
    """Base class; concrete policies override the decision + hooks."""

    #: False for the paper's Baseline_* configurations: loads never wake
    #: dependents early and no replays can occur.
    speculative = True

    def __init__(self, load_to_use: int) -> None:
        self.load_to_use = load_to_use

    # -- the decision -----------------------------------------------------

    def decide(self, uop: MicroOp, loads_already_this_cycle: int) -> LoadDecision:
        """Wakeup decision for a load selected this cycle.

        ``loads_already_this_cycle`` is the number of loads already granted
        a port this cycle (0 for the first of a group, 1 for the second) —
        Schedule Shifting keys off it.
        """
        raise NotImplementedError

    # -- training hooks -------------------------------------------------------

    def on_cycle(self, l1_miss_this_cycle: bool,
                 l1_access_this_cycle: bool = True) -> None:
        """End of cycle.

        ``l1_miss_this_cycle``: a load missed the L1 this cycle;
        ``l1_access_this_cycle``: any load accessed the L1 this cycle.
        The global counter only trains on access cycles (idle cycles say
        nothing about hit/miss behaviour). A call without an access must
        do nothing: the driver skips quiescent cycles without calling
        it (:class:`repro.pipeline.stages.Bookkeep`).
        """

    def on_load_commit(self, uop: MicroOp) -> None:
        """A load retired; ``uop.l1_hit`` holds its outcome."""

    def on_load_commits(self, outcomes) -> None:
        """Batch form of :meth:`on_load_commit` for functional warming.

        ``outcomes`` is an ordered sequence of ``(pc, l1_hit)`` pairs —
        the per-load L1 probe outcomes of one warming block, in stream
        order. The warming engine trains through this hook
        (there are no µop objects on that path), so policies that
        override :meth:`on_load_commit` with per-PC state must override
        this too, preserving per-pair order. No-op by default, matching
        :meth:`on_load_commit`.
        """

    def on_uop_commit(self, uop: MicroOp) -> None:
        """Any µop retired; ``uop.was_critical`` holds the ROB-head tag."""

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self) -> dict:
        """Stateless by default; stateful policies (the composed
        mechanism stack) extend this with their predictor tables. The
        kind tag guards against restoring across configurations."""
        return {"kind": type(self).__name__}

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != type(self).__name__:
            raise ValueError(
                f"checkpoint policy kind {state.get('kind')!r} does not "
                f"match this configuration's {type(self).__name__!r}")


class AlwaysHitPolicy(SchedulingPolicy):
    """SpecSched_* default: dependents always woken assuming an L1 hit."""

    speculative = True

    def decide(self, uop: MicroOp, loads_already_this_cycle: int) -> LoadDecision:
        return LoadDecision(True, self.load_to_use)


class ConservativePolicy(SchedulingPolicy):
    """Baseline_*: dependents wait for the hit/miss outcome (Figure 3)."""

    speculative = False

    def decide(self, uop: MicroOp, loads_already_this_cycle: int) -> LoadDecision:
        return LoadDecision(False, self.load_to_use)
