"""Fetch stage and the frontend delay pipe.

Fetches up to ``fetch_width`` µops per cycle from a :class:`TraceSource`
(two 16-byte blocks, potentially across one taken branch: a *second*
predicted-taken branch ends the fetch group). Fetched µops travel through a
``frontend_depth``-cycle delay pipe before becoming visible to Rename —
this is the 15−D-cycle in-order frontend of Section 3.1, which shrinks as
the issue-to-execute delay D grows so the branch misprediction penalty
stays constant.

On a branch misprediction the stage switches to *wrong-path mode*: it stops
consuming the correct-path trace and injects synthetic wrong-path µops
(which consume rename/issue/execute resources and show up in the *Unique*
issued-µop counts, as in Figure 4b) until the branch resolves and
:meth:`redirect` is called.

Wrong-path fetch is **lazy**: a long-latency resolving branch (an L2/DRAM
miss feeding a mispredict) keeps the frontend in wrong-path mode for
hundreds of cycles, and an eager frontend would materialize
``fetch_width`` µop objects every one of them only to discard nearly all
at redirect — on miss-heavy workloads that flood used to dominate whole-
simulation wall time. Instead the stage records the wrong-path cycles as
*virtual groups*, one full-width group per cycle kept run-length (a run
of consecutive cycles is one entry), and synthesizes a µop only when
Rename actually consumes it; at redirect the undelivered remainder is
dropped in bulk while :meth:`TraceSource.skip_wrong_path` advances the
synthesis stream exactly as if the µops had been built. Delivered µops,
their seq numbers and the wrong-path RNG stream are bit-identical to the
eager frontend's.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.config import CoreConfig
from repro.common.stats import SimStats
from repro.frontend.branch_unit import BranchUnit
from repro.isa.trace import TraceSource
from repro.isa.uop import MicroOp

#: Cycles between branch resolution and the first re-fetched µop. Together
#: with the constant frontend_depth + D = 15 sum, this keeps the minimum
#: misprediction penalty constant (~20 cycles) across delay configurations.
REDIRECT_BUBBLE = 2


class FetchStage:
    """In-order fetch + frontend delay pipe."""

    def __init__(self, trace: TraceSource, branch_unit: BranchUnit,
                 config: CoreConfig, stats: SimStats) -> None:
        self.trace = trace
        self.branch_unit = branch_unit
        self.stats = stats
        self.width = config.fetch_width
        self.depth = config.frontend_depth
        # (ready_cycle, uop) in fetch order; Rename reads its head.
        self.pipe: Deque[Tuple[int, MicroOp]] = deque()
        # Virtual wrong-path groups behind the pipe, in fetch order and
        # materialized on demand (module docstring): runs of consecutive
        # cycles' full-width groups, each [ready cycle of its oldest
        # group, µops left in that group, ready cycle of its last group].
        self._wp_groups: Deque[List[int]] = deque()
        self._wp_pending = 0
        # Correct-path µops to re-fetch after a memory-order violation.
        self.replay_queue: Deque[MicroOp] = deque()
        self.wrong_path = False
        self._wrong_path_pc = 0
        self._stall_until = 0
        self._next_seq = 0
        self.trace_exhausted = False

    # ------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Fetch one group of µops."""
        if now < self._stall_until:
            return
        if self.wrong_path:
            # Lazy wrong-path fetch: one full-width virtual group per
            # cycle (wrong-path filler is never a branch, so an eager
            # frontend would always fetch the full width too).
            self._extend_wrong_path(now, now + 1)
            return
        taken_seen = 0
        pipe_append = self.pipe.append
        replay_queue = self.replay_queue
        next_trace_uop = self.trace.next_uop
        ready = now + self.depth
        seq = self._next_seq
        for _ in range(self.width):
            if replay_queue:
                uop = replay_queue.popleft()
            else:
                uop = next_trace_uop()
                if uop is None:
                    self.trace_exhausted = True
                    break
            uop.fetch_cycle = now
            uop.seq = seq
            seq += 1
            pipe_append((ready, uop))
            if uop.is_branch:
                pred_taken, pred_target = self.branch_unit.predict(uop)
                uop.pred_taken = pred_taken
                uop.pred_target = pred_target
                uop.mispredicted = (pred_taken != uop.taken) or (
                    uop.taken and pred_target != uop.target)
                if uop.mispredicted:
                    self.wrong_path = True
                    self._wrong_path_pc = (pred_target if pred_taken
                                           else uop.pc + 1)
                    # Rest of this group comes from the wrong path next cycle.
                    break
                if pred_taken:
                    taken_seen += 1
                    if taken_seen >= 2:
                        break
        # The group's numbering is written back once per cycle.
        self._next_seq = seq

    def next_event(self, now: int) -> Optional[int]:
        """First cycle ``>= now`` whose :meth:`tick` cannot be applied
        in bulk by :meth:`skip` (``None`` when no such cycle is due
        without another stage's event).

        A stall ends at ``_stall_until``. While anything is in flight,
        every tick, correct path or wrong path, only appends behind the
        head Rename reads, so :meth:`skip` replays it. With nothing in
        flight, a correct-path tick hands Rename its next head, and so
        does the first wrong-path group's arrival (Rename materialises
        that group).
        """
        if now < self._stall_until:
            return self._stall_until
        if self.pipe or self._wp_groups:
            return None
        return now + self.depth if self.wrong_path else now

    def skip(self, now: int, until: int) -> None:
        """Apply the ticks of cycles ``now .. until-1``, a span that ends
        by :meth:`next_event`: stalled throughout, or with µops in
        flight. Correct-path ticks replay one by one, since each pulls
        the trace and predicts (nothing else moves during the span, and
        the predictor trains only when a branch executes); from a
        mispredict on, the rest of the span is wrong-path groups."""
        if now < self._stall_until:
            return
        tick = self.tick
        for cycle in range(now, until):
            if self.wrong_path:
                self._extend_wrong_path(cycle, until)
                return
            tick(cycle)

    def _extend_wrong_path(self, now: int, until: int) -> None:
        """Append the full-width wrong-path groups of cycles ``now ..
        until-1``. Wrong-path ticks come every cycle (a stall follows
        only a redirect, which clears the runs), so they extend the last
        run whenever one is left."""
        groups = self._wp_groups
        last = until - 1 + self.depth
        if groups:
            groups[-1][2] = last
        else:
            groups.append([now + self.depth, self.width, last])
        self._wp_pending += (until - now) * self.width

    # ------------------------------------------------------------------
    # delivery to Rename

    def head(self) -> Optional[Tuple[int, Optional[MicroOp]]]:
        """``(ready cycle, µop)`` of the next µop to deliver, with the µop
        ``None`` when it is still a virtual wrong-path group; ``None``
        when nothing is in flight."""
        if self.pipe:
            return self.pipe[0]
        if self._wp_groups:
            return self._wp_groups[0][0], None
        return None

    def peek(self, now: int) -> Optional[MicroOp]:
        """The next µop Rename could take at ``now`` (without taking it;
        Rename pops the pipe's head itself).

        Materializes at most one virtual wrong-path µop. Returns ``None``
        when nothing has finished its frontend traversal yet.
        """
        pipe = self.pipe
        if not pipe:
            if not self._wp_groups or not self._materialize_wrong_path(now):
                return None
        ready, uop = pipe[0]
        if ready > now:
            return None
        return uop

    def _materialize_wrong_path(self, now: int) -> bool:
        """Build the oldest virtual wrong-path µop if it is ready by
        ``now``; True when one was appended to the (empty) pipe."""
        group = self._wp_groups[0]
        ready = group[0]
        if ready > now:
            return False
        uop = self.trace.wrong_path_uop(0, self._wrong_path_pc)
        self._wrong_path_pc += 1
        uop.fetch_cycle = ready - self.depth
        uop.seq = self._next_seq
        self._next_seq += 1
        self._wp_pending -= 1
        group[1] -= 1
        if not group[1]:
            if ready == group[2]:
                self._wp_groups.popleft()
            else:
                group[0] = ready + 1
                group[1] = self.width
        self.pipe.append((ready, uop))
        return True

    # ------------------------------------------------------------------

    def redirect(self, now: int) -> None:
        """Resolve a mispredicted branch: flush and restart fetch.

        The caller (the core) squashes younger µops everywhere else; here we
        drop everything still inside the frontend, which is by construction
        younger than the resolving branch. Virtual wrong-path µops are
        discarded in bulk: seq numbering and the synthesis stream advance
        exactly as if they had been built (bit-identical to eager fetch).
        """
        self.pipe.clear()
        if self._wp_pending:
            self.trace.skip_wrong_path(self._wp_pending)
            self._next_seq += self._wp_pending
            self._wp_pending = 0
        self._wp_groups.clear()
        self.wrong_path = False
        self._stall_until = now + REDIRECT_BUBBLE
        self.stats.bump("fetch_redirects")

    def squash_all(self, now: int) -> None:
        """Full frontend flush (memory-order violation refetch).

        Unlike a branch redirect — where everything still inside the
        frontend is wrong-path by construction — a violation can flush
        while the pipe holds *correct-path* µops fetched after the last
        branch resolved. Dropping those would lose trace µops forever
        (the trace cursor never rewinds), so they are salvaged into the
        replay queue as fresh clones; only wrong-path filler is
        discarded. The caller re-injects the squashed ROB occupants
        *after* this, putting them ahead of the salvaged µops in
        program order.
        """
        salvaged = [u.clone_arch() for _, u in self.pipe
                    if not u.wrong_path]
        self.redirect(now)
        self.inject_refetch(salvaged)

    def inject_refetch(self, uops_in_program_order: List[MicroOp]) -> None:
        """Queue squashed correct-path µops for re-fetch (violations).

        New clones are older in program order than anything not yet fetched,
        so they go to the *front* of the replay queue.
        """
        for uop in reversed(uops_in_program_order):
            self.replay_queue.appendleft(uop)

    @property
    def done(self) -> bool:
        """True when the trace is exhausted and the pipe has drained."""
        return (self.trace_exhausted and not self.pipe
                and not self.wrong_path and not self.replay_queue)

    # ------------------------------------------------------------------
    # state protocol (repro.checkpoint)

    def state_dict(self, ctx) -> dict:
        """Frontend pipe + wrong-path bookkeeping; trace-cursor state is
        owned by the trace source itself."""
        return {
            "pipe": [(ready, ctx.ref(uop)) for ready, uop in self.pipe],
            "wp_groups": [list(group) for group in self._wp_groups],
            "wp_pending": self._wp_pending,
            "replay_queue": ctx.refs(self.replay_queue),
            "wrong_path": self.wrong_path,
            "wrong_path_pc": self._wrong_path_pc,
            "stall_until": self._stall_until,
            "next_seq": self._next_seq,
            "trace_exhausted": self.trace_exhausted,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        # In place: Rename reads the pipe's head directly.
        self.pipe.clear()
        self.pipe.extend((ready, ctx.uop(ref)) for ready, ref in state["pipe"])
        self._wp_groups = deque(list(g) for g in state["wp_groups"])
        self._wp_pending = state["wp_pending"]
        self.replay_queue = deque(ctx.uops(state["replay_queue"]))
        self.wrong_path = state["wrong_path"]
        self._wrong_path_pc = state["wrong_path_pc"]
        self._stall_until = state["stall_until"]
        self._next_seq = state["next_seq"]
        self.trace_exhausted = state["trace_exhausted"]
