"""Generic set-associative cache with true-LRU replacement.

Timing lives elsewhere (the hierarchy and the bank scheduler); this class
answers the purely functional question "is this line resident, and what gets
evicted on a fill" — which is all the scheduler-speculation study needs.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional

from repro.common.config import CacheConfig
from repro.common.mathutil import log2_int


class SetAssocCache:
    """Set-associative, write-allocate, true-LRU cache."""

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._offset_bits = log2_int(config.line_bytes)
        self._index_mask = self.num_sets - 1
        # Shift from line address to tag; 0 when direct-mapped-by-one-set
        # (a 0-bit shift is the identity, so no special case is needed).
        self._set_bits = log2_int(self.num_sets) if self.num_sets > 1 else 0
        # Per set: tag -> LRU stamp. Small dicts; max len == associativity.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0

    # -- address helpers -------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr >> self._offset_bits

    # -- operations -------------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """Access the cache; returns hit/miss and updates LRU on a hit.

        Does *not* allocate on a miss — callers decide fill timing.
        """
        line = addr >> self._offset_bits
        cache_set = self._sets[line & self._index_mask]
        tag = line >> self._set_bits
        if tag in cache_set:
            self._stamp += 1
            cache_set[tag] = self._stamp
            return True
        return False

    def probe(self, addr: int) -> bool:
        """Hit/miss check with no LRU update."""
        line = addr >> self._offset_bits
        return (line >> self._set_bits) in self._sets[line & self._index_mask]

    def fill(self, addr: int) -> Optional[int]:
        """Insert the line holding ``addr``; returns the evicted line
        address (or ``None`` if no eviction was needed / already present)."""
        line = addr >> self._offset_bits
        set_idx = line & self._index_mask
        cache_set = self._sets[set_idx]
        tag = line >> self._set_bits
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return None
        victim_line = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=cache_set.get)
            del cache_set[victim_tag]
            victim_line = (victim_tag << self._set_bits) | set_idx
        cache_set[tag] = self._stamp
        return victim_line

    def resident_lines(self) -> int:
        """Total lines currently valid (for tests / occupancy checks)."""
        return sum(len(s) for s in self._sets)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Flat int columns: per-set ``sizes``, then tags and LRU stamps set by set in
        insertion order (stamps are unique; the order only keeps digests stable)."""
        sets = self._sets
        return {
            "sizes": [len(cache_set) for cache_set in sets],
            "tags": list(chain.from_iterable(sets)),
            "stamps": list(chain.from_iterable(map(dict.values, sets))),
            "stamp": self._stamp,
        }

    def load_state_dict(self, state: dict) -> None:
        tags, stamps, end = state["tags"], state["stamps"], 0
        for cache_set, size in zip(self._sets, state["sizes"]):
            cache_set.clear()
            if size:
                start, end = end, end + size
                cache_set.update(zip(tags[start:end], stamps[start:end]))
        self._stamp = state["stamp"]
