"""Store Sets memory-dependence predictor (Chrysos & Emer), Table 1:
1K-entry SSIT, 1K-entry LFST.

Independent memory µops are allowed to issue out of order; the predictor
learns, from past memory-order violations, which load PCs must wait for
which store PCs. Loads (and stores) in a store set serialize behind the
last fetched store of that set.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.uop import MicroOp

_INVALID = -1


class StoreSets:
    """SSIT (pc -> store-set id) + LFST (set id -> last inflight store)."""

    def __init__(self, ssit_entries: int = 1024, lfst_entries: int = 1024) -> None:
        self.ssit_entries = ssit_entries
        self.lfst_entries = lfst_entries
        self._ssit = [_INVALID] * ssit_entries
        self._lfst: Dict[int, MicroOp] = {}
        self._next_ssid = 0

    def _ssit_index(self, pc: int) -> int:
        return pc % self.ssit_entries

    # -- dispatch-time ---------------------------------------------------

    def lookup_dependence(self, uop: MicroOp) -> Optional[MicroOp]:
        """Store the µop must wait for (None if predicted independent).

        For stores, additionally records the µop as the new last fetched
        store of its set (store-store ordering).
        """
        ssid = self._ssit[uop.pc % self.ssit_entries]
        dep: Optional[MicroOp] = None
        if ssid != _INVALID:
            last = self._lfst.get(ssid % self.lfst_entries)
            if last is not None and not last.dead and last.seq < uop.seq \
                    and not last.executed:
                dep = last
            if uop.is_store:
                self._lfst[ssid % self.lfst_entries] = uop
        return dep

    # -- execute/squash-time ----------------------------------------------

    def store_done(self, store: MicroOp) -> None:
        """Clear the LFST entry when the store executes or is squashed."""
        ssid = self._ssit[store.pc % self.ssit_entries]
        if ssid == _INVALID:
            return
        key = ssid % self.lfst_entries
        if self._lfst.get(key) is store:
            del self._lfst[key]

    # -- state protocol (repro.checkpoint) ---------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "ssit": list(self._ssit),
            "lfst": [(key, ctx.ref(store))
                     for key, store in self._lfst.items()],
            "next_ssid": self._next_ssid,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._ssit = list(state["ssit"])
        self._lfst = {key: ctx.uop(ref) for key, ref in state["lfst"]}
        self._next_ssid = state["next_ssid"]

    # -- violation training -------------------------------------------------

    def train_violation(self, store_pc: int, load_pc: int) -> None:
        """Memory-order violation: put both PCs in the same store set."""
        s_idx = self._ssit_index(store_pc)
        l_idx = self._ssit_index(load_pc)
        s_set = self._ssit[s_idx]
        l_set = self._ssit[l_idx]
        if s_set == _INVALID and l_set == _INVALID:
            ssid = self._next_ssid
            self._next_ssid += 1
            self._ssit[s_idx] = ssid
            self._ssit[l_idx] = ssid
        elif s_set == _INVALID:
            self._ssit[s_idx] = l_set
        elif l_set == _INVALID:
            self._ssit[l_idx] = s_set
        else:
            # Both assigned: merge to the smaller id (declarative rule).
            winner = min(s_set, l_set)
            self._ssit[s_idx] = winner
            self._ssit[l_idx] = winner
