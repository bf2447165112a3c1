"""Load/store queues — 72-entry LQ, 48-entry SQ (Table 1).

Responsibilities:

* occupancy (dispatch stalls when a queue is full; entries release at
  commit);
* store-to-load forwarding at quadword granularity (a load whose address
  matches an older *executed* store gets its data from the SQ and performs
  no cache access — hence no bank conflict and no miss);
* memory-order violation detection: a store that executes and finds a
  *younger already-executed* load to the same quadword raises a violation
  (squash-and-refetch from the load, store-sets training);
* store-dependence wakeups for the store-sets predictor: µops predicted
  dependent on a store wait until that store executes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.isa.uop import MicroOp

_QWORD_SHIFT = 3


class LoadStoreQueue:
    """Combined LQ/SQ model.

    Queues are deques in program order: entries release from the front at
    commit and squash from the back, so both ends are O(1); the address
    scans (forwarding, violation detection) walk the whole queue either
    way."""

    def __init__(self, lq_capacity: int = 72, sq_capacity: int = 48,
                 on_ready: Optional[Callable[[MicroOp], None]] = None) -> None:
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self.loads: Deque[MicroOp] = deque()
        self.stores: Deque[MicroOp] = deque()
        self._dep_waiters: Dict[int, List[MicroOp]] = {}  # store seq -> µops
        self.on_ready = on_ready or (lambda uop: None)

    # -- occupancy ---------------------------------------------------------

    def lq_full(self) -> bool:
        return len(self.loads) >= self.lq_capacity

    def sq_full(self) -> bool:
        return len(self.stores) >= self.sq_capacity

    def insert(self, uop: MicroOp) -> None:
        if uop.is_load:
            if self.lq_full():
                raise OverflowError("LQ overflow")
            self.loads.append(uop)
        elif uop.is_store:
            if self.sq_full():
                raise OverflowError("SQ overflow")
            self.stores.append(uop)
        else:
            raise ValueError("LSQ only holds memory µops")

    def release(self, uop: MicroOp) -> None:
        """Free the entry at commit (or on squash)."""
        queue = self.loads if uop.is_load else self.stores
        if queue and queue[0] is uop:      # commit order: the common case
            queue.popleft()
        elif uop in queue:
            queue.remove(uop)

    def squash_younger(self, seq: int, inclusive: bool = False) -> List[MicroOp]:
        doomed: List[MicroOp] = []
        bound = seq - 1 if inclusive else seq
        for queue in (self.loads, self.stores):
            while queue and queue[-1].seq > bound:
                doomed.append(queue.pop())
        for uop in doomed:
            self._dep_waiters.pop(uop.seq, None)
        return doomed

    # -- store-dependence (store sets) ----------------------------------------

    def add_store_dependence(self, uop: MicroOp, store: MicroOp) -> None:
        """Make ``uop`` wait for ``store`` to execute (predictor decision)."""
        uop.store_dep = store
        uop.pending += 1
        self._dep_waiters.setdefault(store.seq, []).append(uop)

    def store_executed_wakeups(self, store: MicroOp) -> None:
        waiters = self._dep_waiters.pop(store.seq, None)
        if not waiters:
            return
        for uop in waiters:
            if uop.dead or uop.pending <= 0:
                continue
            uop.store_dep = None
            uop.pending -= 1
            if uop.pending == 0:
                self.on_ready(uop)

    # -- forwarding & violations -----------------------------------------------

    def forwarding_store(self, load: MicroOp) -> Optional[MicroOp]:
        """Youngest older executed store matching the load's quadword."""
        target = load.mem_addr >> _QWORD_SHIFT
        load_seq = load.seq
        best: Optional[MicroOp] = None
        for store in self.stores:
            if store.seq >= load_seq:
                break                  # program order: no older stores left
            if (store.mem_addr >> _QWORD_SHIFT == target
                    and store.executed and not store.dead):
                best = store           # walking oldest->youngest
        return best

    # -- state protocol (repro.checkpoint) ----------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "loads": ctx.refs(self.loads),
            "stores": ctx.refs(self.stores),
            "dep_waiters": [(seq, ctx.refs(waiters))
                            for seq, waiters in self._dep_waiters.items()],
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self.loads = deque(ctx.uops(state["loads"]))
        self.stores = deque(ctx.uops(state["stores"]))
        self._dep_waiters = {seq: ctx.uops(refs)
                             for seq, refs in state["dep_waiters"]}

    def detect_violation(self, store: MicroOp) -> Optional[MicroOp]:
        """Oldest younger executed load overlapping the store's quadword.

        Such a load read stale data: it performed its access before the
        store wrote. Returns the offending load (refetch point) or None.
        """
        target = store.mem_addr >> _QWORD_SHIFT
        store_seq = store.seq
        for load in self.loads:
            if (load.mem_addr >> _QWORD_SHIFT == target
                    and load.seq > store_seq and load.executed
                    and not load.dead):
                return load            # oldest match: queue is seq-sorted
        return None
