"""Branch target buffer — 2-way, 8K entries (Table 1)."""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional


class Btb:
    """Set-associative BTB with LRU within each set."""

    def __init__(self, entries: int = 8192, ways: int = 2) -> None:
        if entries % ways != 0:
            raise ValueError("BTB entries must divide evenly into ways")
        self.ways = ways
        self.num_sets = entries // ways
        # set index -> per-set dict pc -> (target, lru_stamp); a set is
        # allocated on its first install (most of the 4K sets of a
        # short run stay empty, and every restore builds a machine).
        self._sets: Dict[int, Dict[int, tuple]] = {}
        self._stamp = 0

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for a branch at ``pc``, or None on a BTB miss."""
        btb_set = self._sets.get((pc >> 2) % self.num_sets)
        entry = None if btb_set is None else btb_set.get(pc)
        if entry is None:
            return None
        self._stamp += 1
        target = entry[0]
        btb_set[pc] = (target, self._stamp)
        return target

    def install(self, pc: int, target: int) -> None:
        """Record (or refresh) a taken branch's target."""
        index = (pc >> 2) % self.num_sets
        btb_set = self._sets.get(index)
        if btb_set is None:
            btb_set = self._sets[index] = {}
        self._stamp += 1
        if pc not in btb_set and len(btb_set) >= self.ways:
            victim = min(btb_set, key=lambda key: btb_set[key][1])
            del btb_set[victim]
        btb_set[pc] = (target, self._stamp)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Flat int columns: pcs, targets and LRU stamps set by set, each set in
        insertion order (a pc names its set)."""
        sets = [self._sets[index] for index in sorted(self._sets)]
        entries = list(chain.from_iterable(map(dict.values, sets)))
        return {
            "pcs": list(chain.from_iterable(sets)),
            "targets": [target for target, _ in entries],
            "stamps": [stamp for _, stamp in entries],
            "stamp": self._stamp,
        }

    def load_state_dict(self, state: dict) -> None:
        sets = self._sets = {}
        num_sets = self.num_sets
        for pc, entry in zip(state["pcs"], zip(state["targets"], state["stamps"])):
            index = (pc >> 2) % num_sets
            btb_set = sets.get(index)
            if btb_set is None:
                btb_set = sets[index] = {}
            btb_set[pc] = entry
        self._stamp = state["stamp"]
