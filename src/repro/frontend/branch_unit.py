"""Branch unit: combines TAGE-lite, the BTB and the RAS.

Prediction happens at fetch; training happens at branch resolution (the
Execute stage). Each predicted branch carries a ``bp_state`` blob (TAGE
provider info + history/RAS snapshots) so a misprediction can repair the
speculative frontend state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.config import BranchPredictorConfig
from repro.frontend.btb import Btb
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import STATE_HISTORY, TageLite
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


class BranchUnit:
    """Frontend branch prediction state machine."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        self.config = config or BranchPredictorConfig()
        self.tage = TageLite(self.config)
        self.btb = Btb(self.config.btb_entries, self.config.btb_ways)
        self.ras = ReturnAddressStack(self.config.ras_entries)

    def predict(self, pc: int, opclass: OpClass,
                target: int) -> Tuple[bool, int, tuple]:
        """Predict direction and target for the branch at ``pc`` at fetch
        (``target`` is its encoded target, which a call falls back on).

        Returns ``(pred_taken, pred_target, bp_state)``: the recovery
        state is a ``(kind, component-state, ras-checkpoint)`` tuple,
        which :meth:`resolve` reads off the µop's ``bp_state``. A BTB
        miss on a predicted-taken conditional demotes the prediction to
        not-taken (the frontend has no target to redirect to).
        """
        if opclass == OpClass.CALL:
            state = ("call", self.tage.snapshot_history(),
                     self.ras.snapshot())
            self.ras.push(pc + 1)
            btb_target = self.btb.lookup(pc)
            return (True, target if btb_target is None else btb_target,
                    state)

        if opclass == OpClass.RET:
            state = ("ret", self.tage.snapshot_history(),
                     self.ras.snapshot())
            return True, self.ras.pop(), state

        pred_taken, tage_state = self.tage.predict(pc)
        state = ("cond", tage_state, self.ras.snapshot())
        if not pred_taken:
            return False, pc + 1, state
        btb_target = self.btb.lookup(pc)
        if btb_target is None:
            # No target available: fall through; resolves as a mispredict
            # if the branch is actually taken.
            return False, pc + 1, state
        return True, btb_target, state

    def resolve(self, uop: MicroOp) -> bool:
        """Train predictors when a branch executes; True if mispredicted."""
        state = uop.bp_state
        taken = uop.taken
        mispredicted = (uop.pred_taken != taken) or (
            taken and uop.pred_target != uop.target)
        if state is not None and state[0] == "cond":
            self.tage.update(taken, state[1])
        if taken:
            self.btb.install(uop.pc, uop.target)
        if mispredicted and state is not None:
            self._repair(state, uop.pc, taken)
        return mispredicted

    def warm(self, pcs, opclasses, targets, takens) -> None:
        """Predict and resolve correct-path branches in stream order, as
        fetch and execute would one right after the other (functional
        warming; ``opclasses`` may be raw ints).

        State effects are those of :meth:`predict` then :meth:`resolve`
        per branch. A conditional branch takes a shorter way to them:
        its BTB accesses are inlined against the BTB's internals, and a
        misprediction needs no repair, since TAGE's update already puts
        the outcome in the history and the branch never touched the RAS.
        """
        predict = self.predict
        tage = self.tage
        tage_predict = tage.predict
        tage_update = tage.update
        call, ret = OpClass.CALL, OpClass.RET
        # The BTB's stamp lives in a local, synced around the call/ret
        # path, which goes through the real methods.
        btb = self.btb
        btb_sets = btb._sets
        btb_num_sets = btb.num_sets
        btb_ways = btb.ways
        btb_stamp = btb._stamp
        for pc, opclass, target, taken in zip(pcs, opclasses, targets, takens):
            if opclass == call or opclass == ret:
                btb._stamp = btb_stamp
                pred_taken, pred_target, state = predict(pc, opclass, target)
                if taken:
                    btb.install(pc, target)
                if pred_taken != taken or (taken and pred_target != target):
                    self._repair(state, pc, taken)
                btb_stamp = btb._stamp
                continue
            pred_taken, tage_state = tage_predict(pc)
            if pred_taken:                    # lookup(): a hit is an LRU touch
                btb_set = btb_sets.get((pc >> 2) % btb_num_sets)
                entry = None if btb_set is None else btb_set.get(pc)
                if entry is not None:
                    btb_stamp += 1
                    btb_set[pc] = (entry[0], btb_stamp)
            tage_update(taken, tage_state)
            if taken:                         # install()
                index = (pc >> 2) % btb_num_sets
                btb_set = btb_sets.get(index)
                if btb_set is None:
                    btb_set = btb_sets[index] = {}
                btb_stamp += 1
                if pc not in btb_set and len(btb_set) >= btb_ways:
                    victim = min(btb_set, key=lambda key: btb_set[key][1])
                    del btb_set[victim]
                btb_set[pc] = (target, btb_stamp)
        btb._stamp = btb_stamp

    def _repair(self, state: tuple, pc: int, taken: bool) -> None:
        """Restore speculative history/RAS to the post-branch state of
        the branch at ``pc`` predicted with ``state``."""
        kind, component, ras_snap = state
        self.ras.restore(ras_snap)
        if kind == "cond":
            self.tage.restore_history(component[STATE_HISTORY])
            # Re-apply the *actual* outcome to the history.
            self.tage._push_history(taken)
        else:
            self.tage.restore_history(component)
        if kind == "call":
            self.ras.push(pc + 1)
        elif kind == "ret":
            self.ras.pop()

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "tage": self.tage.state_dict(),
            "btb": self.btb.state_dict(),
            "ras": self.ras.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.tage.load_state_dict(state["tage"])
        self.btb.load_state_dict(state["btb"])
        self.ras.load_state_dict(state["ras"])
