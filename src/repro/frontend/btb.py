"""Branch target buffer — 2-way, 8K entries (Table 1)."""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional


class Btb:
    """Set-associative BTB with LRU within each set."""

    def __init__(self, entries: int = 8192, ways: int = 2) -> None:
        if entries % ways != 0:
            raise ValueError("BTB entries must divide evenly into ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        # per-set dict: pc -> (target, lru_stamp)
        self._sets: List[Dict[int, tuple]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, pc: int) -> Dict[int, tuple]:
        return self._sets[(pc >> 2) % self.num_sets]

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for a branch at ``pc``, or None on a BTB miss."""
        entry = self._set_of(pc).get(pc)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._stamp += 1
        target = entry[0]
        self._set_of(pc)[pc] = (target, self._stamp)
        return target

    def install(self, pc: int, target: int) -> None:
        """Record (or refresh) a taken branch's target."""
        btb_set = self._set_of(pc)
        self._stamp += 1
        if pc not in btb_set and len(btb_set) >= self.ways:
            victim = min(btb_set, key=lambda key: btb_set[key][1])
            del btb_set[victim]
        btb_set[pc] = (target, self._stamp)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Flat int columns: pcs, targets and LRU stamps set by set, each set in
        insertion order (a pc names its set)."""
        entries = list(chain.from_iterable(map(dict.values, self._sets)))
        return {
            "pcs": list(chain.from_iterable(self._sets)),
            "targets": [target for target, _ in entries],
            "stamps": [stamp for _, stamp in entries],
            "stamp": self._stamp,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state_dict(self, state: dict) -> None:
        for btb_set in filter(None, self._sets):
            btb_set.clear()
        for pc, entry in zip(state["pcs"], zip(state["targets"], state["stamps"])):
            self._set_of(pc)[pc] = entry
        self._stamp = state["stamp"]
        self.hits = state["hits"]
        self.misses = state["misses"]
