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

Both paths are **lazy**: the stage builds a :class:`MicroOp` only for a
µop Rename takes. The pipe is unbounded (fetch runs ahead of a stalled
backend), and on a flooding workload (libquantum) tens of thousands of
fetched µops wait in it, most of them never renamed before the run ends
or a redirect drops them. They cost the pipe one tuple slot each: a
row is the trace source's own tuple, which a kernel shares between the
iterations of its loop wherever it does not vary.

* Correct path: one cycle's group of trace rows
  (:data:`repro.isa.trace.Row`) is one pipe entry ``[ready, first seq,
  rows]``. A row's seq is its offset from the first seq and its fetch
  cycle is ``ready - frontend_depth``; :meth:`take` builds the µop from
  those. A branch's row carries its prediction after the eight row
  fields (``pred_taken, pred_target, mispredicted, bp_state``), which
  :meth:`take` writes onto its µop. Refetched µops (memory-order
  violations) wait in ``replay_queue`` as rows and join a group like
  trace rows. Only wrong-path µops are built before Rename takes them,
  one at a time, as ``(ready, µop)`` entries.
* Wrong path: a long-latency resolving branch (an L2/DRAM miss feeding a
  mispredict) keeps the frontend in wrong-path mode for hundreds of
  cycles. The stage records those cycles as *virtual groups*, one
  full-width group per cycle kept run-length (a run of consecutive
  cycles is one entry), and synthesizes a µop only when its group
  reaches the head of an empty pipe (:meth:`materialize_wrong_path`,
  which Rename calls); at redirect the undelivered
  remainder is dropped in bulk while :meth:`TraceSource.skip_wrong_path`
  advances the synthesis stream exactly as if the µops had been built.

Delivered µops, their seq numbers and the wrong-path RNG stream are
bit-identical to an eager frontend's, and :meth:`in_flight` (which the
checkpoint state and :meth:`squash_all` read) yields the µops an eager
pipe would hold.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from repro.common.config import CoreConfig
from repro.common.stats import SimStats
from repro.frontend.branch_unit import BranchUnit
from repro.isa.opclass import BRANCH_OPS, OpClass
from repro.isa.trace import Row, TraceSource
from repro.isa.uop import MicroOp

#: Cycles between branch resolution and the first re-fetched µop. Together
#: with the constant frontend_depth + D = 15 sum, this keeps the minimum
#: misprediction penalty constant (~20 cycles) across delay configurations.
REDIRECT_BUBBLE = 2

#: OpClass value -> whether fetch predicts it.
_IS_BRANCH = tuple(op in BRANCH_OPS for op in OpClass)


def _build(seq: int, row: tuple, fetch_cycle: int) -> MicroOp:
    """The µop of a pipe row: numbered, stamped with its fetch cycle and,
    for a branch, carrying the prediction its row holds."""
    if len(row) == 8:
        uop = MicroOp(seq, *row)
    else:
        uop = MicroOp(seq, *row[:8])
        (uop.pred_taken, uop.pred_target, uop.mispredicted,
         uop.bp_state) = row[8:]
    uop.fetch_cycle = fetch_cycle
    return uop


class FetchStage:
    """In-order fetch + frontend delay pipe."""

    def __init__(self, trace: TraceSource, branch_unit: BranchUnit,
                 config: CoreConfig, stats: SimStats) -> None:
        self.trace = trace
        self.branch_unit = branch_unit
        self.stats = stats
        self.width = config.fetch_width
        self.depth = config.frontend_depth
        # In fetch order (module docstring): one [ready, first seq, rows]
        # per fetch group, and a built wrong-path µop as (ready, µop).
        self.pipe: Deque = deque()
        # Virtual wrong-path groups behind the pipe, in fetch order and
        # materialized on demand (module docstring): runs of consecutive
        # cycles' full-width groups, each [ready cycle of its oldest
        # group, µops left in that group, ready cycle of its last group].
        self._wp_groups: Deque[List[int]] = deque()
        self._wp_pending = 0
        # Rows of correct-path µops to re-fetch after a memory-order
        # violation, oldest first.
        self.replay_queue: Deque[Row] = deque()
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
        replay_queue = self.replay_queue
        next_row = self.trace.next_row
        is_branch = _IS_BRANCH
        rows = []
        for _ in range(self.width):
            if replay_queue:
                row = replay_queue.popleft()
            else:
                row = next_row()
                if row is None:
                    self.trace_exhausted = True
                    break
            if not is_branch[row[1]]:
                rows.append(row)
                continue
            pc, opclass, _, _, _, _, taken, target = row
            pred_taken, pred_target, bp_state = self.branch_unit.predict(
                pc, opclass, target)
            mispredicted = (pred_taken != taken) or (
                taken and pred_target != target)
            rows.append((*row, pred_taken, pred_target, mispredicted,
                         bp_state))
            if mispredicted:
                self.wrong_path = True
                self._wrong_path_pc = pred_target if pred_taken else pc + 1
                # Rest of this group comes from the wrong path next cycle.
                break
            if pred_taken:
                taken_seen += 1
                if taken_seen >= 2:
                    break
        if rows:
            self.pipe.append([now + self.depth, self._next_seq, rows])
            self._next_seq += len(rows)

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

    def head(self) -> Optional[Tuple[int, Optional[OpClass], Optional[int]]]:
        """``(ready cycle, opclass, dst)`` of the next µop to deliver,
        with the opclass ``None`` when it is still a virtual wrong-path
        group; ``None`` when nothing is in flight. Nothing is built.
        Rename's tick reads the pipe's head entry the same way."""
        pipe = self.pipe
        if pipe:
            entry = pipe[0]
            if len(entry) == 2:
                uop = entry[1]
                return entry[0], uop.opclass, uop.dst
            row = entry[2][0]
            return entry[0], row[1], row[3]
        if self._wp_groups:
            return self._wp_groups[0][0], None, None
        return None

    def materialize_wrong_path(self, now: int) -> bool:
        """Build the oldest virtual wrong-path µop into the empty pipe if
        its group is ready by ``now``; True when one was appended."""
        if not self._wp_groups:
            return False
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

    def take(self) -> MicroOp:
        """Remove the pipe's head µop and return it, building it when it
        is still a row (numbered by its offset in the group, stamped with
        the group's fetch cycle, a branch given its prediction). The
        caller has seen the head is ready."""
        pipe = self.pipe
        entry = pipe[0]
        if len(entry) == 2:
            pipe.popleft()
            return entry[1]
        ready, seq, rows = entry
        uop = _build(seq, rows.pop(0), ready - self.depth)
        if rows:
            entry[1] = seq + 1
        else:
            pipe.popleft()
        return uop

    def in_flight(self) -> Iterator[Tuple[int, MicroOp]]:
        """``(ready cycle, µop)`` for every µop in the pipe, in fetch
        order, as an eager frontend would hold them: a row is built into
        a fresh µop as :meth:`take` would build it. Virtual wrong-path
        groups are not µops yet and are left out."""
        depth = self.depth
        for entry in self.pipe:
            if len(entry) == 2:
                yield entry
                continue
            ready, seq, rows = entry
            for offset, row in enumerate(rows):
                yield ready, _build(seq + offset, row, ready - depth)

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
        (the trace cursor never rewinds), so their rows go back to the
        front of the replay queue, a branch's without its prediction;
        only wrong-path filler is discarded. The caller re-injects the
        squashed ROB occupants *after* this, putting them ahead of the
        salvaged µops in program order.
        """
        salvaged = [row[:8] for entry in self.pipe if len(entry) == 3
                    for row in entry[2]]
        self.redirect(now)
        self.replay_queue.extendleft(reversed(salvaged))

    def inject_refetch(self, uops_in_program_order: List[MicroOp]) -> None:
        """Queue squashed correct-path µops for re-fetch (violations) as
        the rows of their architectural fields.

        They are older in program order than anything not yet fetched,
        so they go to the *front* of the replay queue.
        """
        self.replay_queue.extendleft(
            uop.arch_row() for uop in reversed(uops_in_program_order))

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
            "pipe": [(ready, ctx.ref(uop)) for ready, uop in self.in_flight()],
            "wp_groups": [list(group) for group in self._wp_groups],
            "wp_pending": self._wp_pending,
            "replay_queue": ctx.refs(MicroOp(0, *row)
                                     for row in self.replay_queue),
            "wrong_path": self.wrong_path,
            "wrong_path_pc": self._wrong_path_pc,
            "stall_until": self._stall_until,
            "next_seq": self._next_seq,
            "trace_exhausted": self.trace_exhausted,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        # A saved correct-path µop becomes a row again (a branch's with
        # its prediction), joining the group of its fetch cycle (one
        # ready cycle) when it follows one.
        pipe = self.pipe = deque()
        for ready, ref in state["pipe"]:
            uop = ctx.uop(ref)
            if uop.wrong_path:
                pipe.append((ready, uop))
                continue
            row = uop.arch_row()
            if uop.is_branch:
                row += (uop.pred_taken, uop.pred_target, uop.mispredicted,
                        uop.bp_state)
            if pipe and len(pipe[-1]) == 3 and pipe[-1][0] == ready:
                pipe[-1][2].append(row)
            else:
                pipe.append([ready, uop.seq, [row]])
        self._wp_groups = deque(list(g) for g in state["wp_groups"])
        self._wp_pending = state["wp_pending"]
        self.replay_queue = deque(
            uop.arch_row() for uop in ctx.uops(state["replay_queue"]))
        self.wrong_path = state["wrong_path"]
        self._wrong_path_pc = state["wrong_path_pc"]
        self._stall_until = state["stall_until"]
        self._next_seq = state["next_seq"]
        self.trace_exhausted = state["trace_exhausted"]
