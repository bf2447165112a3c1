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


class _WarmBranch:
    """Reusable µop stand-in for :meth:`BranchUnit.resolve_block`.

    :meth:`BranchUnit.resolve` reads only these fields and never retains
    the object, so one shim can carry every call and return of a
    warming block — skipping the ~40-slot :class:`MicroOp` construction
    per branch.
    """

    __slots__ = ("pc", "target", "taken",
                 "pred_taken", "pred_target", "bp_state")


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
        mispredicted = (uop.pred_taken != uop.taken) or (
            uop.taken and uop.pred_target != uop.target)
        if state is not None and state[0] == "cond":
            self.tage.update(uop.taken, state[1])
        if uop.taken:
            self.btb.install(uop.pc, uop.target)
        if mispredicted:
            self._repair(uop)
        return mispredicted

    def resolve_block(self, pcs, opclasses, targets, takens,
                      cond_indices=None) -> None:
        """Batch predict+resolve for functional warming, in stream order.

        TAGE's speculative history makes every prediction depend on the
        previous branch, so the walk is sequential; the batch form's
        wins are skipping per-branch µop construction and, for
        conditionals, the RAS snapshot/restore round trip (a conditional
        never touches the RAS between predict and resolve, so repairing
        it to its own snapshot is a content no-op — calls/returns go
        through the full :meth:`predict`/:meth:`resolve` pair via a
        reusable shim). ``cond_indices``, when given, is the
        ``(idx_rows, tag_rows)`` pair of block-folded TAGE lookups
        (:func:`repro.pipeline.warming.engine.tage_fold_indices`), one
        row per conditional branch in order. ``opclasses`` may be raw
        ints (``OpClass`` is an ``IntEnum``). State effects are identical
        to calling :meth:`predict` + :meth:`resolve` per branch µop.
        """
        shim = _WarmBranch()
        predict = self.predict
        resolve = self.resolve
        tage = self.tage
        tage_predict = tage.predict
        warm_predict = tage.warm_predict
        tage_update = tage.update
        restore_history = tage.restore_history
        push_history = tage._push_history
        call, ret = OpClass.CALL, OpClass.RET
        rows = iter(zip(*cond_indices)) if cond_indices is not None else None
        # The BTB is inlined against its internals (exact lookup/install
        # semantics incl. LRU stamps); its stamp lives in a local and is
        # synced around the call/ret path, which goes through the real
        # methods.
        btb = self.btb
        btb_sets = btb._sets
        btb_num_sets = btb.num_sets
        btb_ways = btb.ways
        btb_stamp = btb._stamp
        for pc, opclass, target, taken in zip(pcs, opclasses, targets, takens):
            if opclass == call or opclass == ret:
                btb._stamp = btb_stamp
                shim.pc = pc
                shim.target = target
                shim.taken = taken
                (shim.pred_taken, shim.pred_target,
                 shim.bp_state) = predict(pc, opclass, target)
                resolve(shim)
                btb_stamp = btb._stamp
                continue
            if rows is None:
                pred_taken, tage_state = tage_predict(pc)
            else:
                idxs, tags = next(rows)
                pred_taken, tage_state = warm_predict(pc, idxs, tags)
            tage_pred = pred_taken
            if pred_taken:
                btb_set = btb_sets.get((pc >> 2) % btb_num_sets)
                entry = None if btb_set is None else btb_set.get(pc)
                if entry is None:             # BTB miss: demote (predict)
                    pred_taken, pred_target = False, pc + 1
                else:
                    btb_stamp += 1
                    pred_target = entry[0]
                    btb_set[pc] = (pred_target, btb_stamp)
            else:
                pred_target = pc + 1
            mispredicted = (pred_taken != taken) or (
                taken and pred_target != target)
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
            if mispredicted:                  # _repair, minus the RAS no-op
                restore_history(tage_state[STATE_HISTORY])
                push_history(taken)
            elif tage_pred != taken:
                # A BTB-demoted taken prediction that came true as
                # not-taken: no repair fires, so the history keeps the
                # TAGE *direction*, not the outcome — the one case where
                # block-folded indices (which assume outcome history) go
                # stale. Finish the block on the self-folding predict.
                rows = None
        btb._stamp = btb_stamp

    def _repair(self, uop: MicroOp) -> None:
        """Restore speculative history/RAS to the post-branch state."""
        state = uop.bp_state
        if state is None:
            return
        kind, component, ras_snap = state
        self.ras.restore(ras_snap)
        if kind == "cond":
            self.tage.restore_history(component[STATE_HISTORY])
            # Re-apply the *actual* outcome to the history.
            self.tage._push_history(uop.taken)
        else:
            self.tage.restore_history(component)
        if kind == "call":
            self.ras.push(uop.pc + 1)
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
