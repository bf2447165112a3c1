"""TAGE-lite conditional branch predictor.

A faithful-in-structure, reduced-in-size TAGE (Seznec & Michaud, the
predictor of Table 1): a bimodal base table plus ``num_tagged_tables``
partially tagged tables indexed with geometrically increasing global
history lengths. Each tagged table is three flat int columns, which
checkpoints save as they are: partial tags (-1 when never allocated),
3-bit signed counters and useful bits. Prediction comes from the
longest-history matching table; allocation on mispredictions picks a
not-useful entry in a longer table.

The global history is speculatively updated at prediction time;
:meth:`snapshot_history` / :meth:`restore_history` let the pipeline repair
it after a squash, exactly as a real frontend checkpoint would.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.config import BranchPredictorConfig

_CTR_MAX = 3          # 3-bit signed counter range [-4, 3]
_CTR_MIN = -4
_BIMODAL_MAX = 3      # 2-bit saturating

#: Index of the history snapshot in the predict-state tuple (the branch
#: unit rewinds speculative history through it on repair).
STATE_HISTORY = 4


class TageLite:
    """TAGE with geometric history lengths."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None,
                 seed: int = 12345) -> None:
        self.config = config or BranchPredictorConfig()
        self.config.validate()
        cfg = self.config
        self._bimodal = [0] * cfg.bimodal_entries
        entries, tables = cfg.table_entries, range(cfg.num_tagged_tables)
        self._tags: List[List[int]] = [[-1] * entries for _ in tables]
        self._ctrs: List[List[int]] = [[0] * entries for _ in tables]
        self._useful: List[List[int]] = [[0] * entries for _ in tables]
        # Geometric history lengths from min to max.
        ratio = (cfg.max_history / cfg.min_history) ** (
            1.0 / max(1, cfg.num_tagged_tables - 1))
        self.history_lengths = []
        for i in range(cfg.num_tagged_tables):
            length = int(round(cfg.min_history * ratio ** i))
            if self.history_lengths and length <= self.history_lengths[-1]:
                length = self.history_lengths[-1] + 1
            self.history_lengths.append(length)
        self._history = 0          # global history as an int bitvector
        # Hot-path hash precomputes: per-table history masks and the
        # shared index/tag widths (predict hashes every table per branch).
        self._hist_masks = [(1 << length) - 1
                            for length in self.history_lengths]
        self._index_bits = cfg.table_entries.bit_length() - 1
        self._index_mask = cfg.table_entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._fold_memo = {}
        # The per-table index and tag history folds, kept live by
        # :meth:`predict` in one packed int (see :meth:`_recompute_folds`
        # and :meth:`_init_fold_layout`); valid only while
        # ``_folds_history`` equals ``_history``.
        self._folds = 0
        self._folds_history = -1
        self._init_fold_layout()
        self._rng_state = seed or 1

    def _init_fold_layout(self) -> None:
        """Constants of the packed folds. Table ``t`` owns the field of
        ``index_bits + tag_bits`` bits from bit ``t * width`` up: its
        index fold low, its tag fold above it."""
        cfg = self.config
        index_bits, tag_bits = self._index_bits, cfg.tag_bits
        width = index_bits + tag_bits
        tables = range(cfg.num_tagged_tables)
        self._history_mask = (1 << (cfg.max_history + 1)) - 1
        self._bimodal_mask = cfg.bimodal_entries - 1
        # Bit 0 of every index fold and of every tag fold, and every
        # bit of them but the top one.
        self._idx_lows = sum(1 << (t * width) for t in tables)
        self._tag_lows = self._idx_lows << index_bits
        self._lows = self._idx_lows | self._tag_lows
        self._body = (self._idx_lows * ((1 << (index_bits - 1)) - 1)
                      | self._tag_lows * ((1 << (tag_bits - 1)) - 1))
        # How far each fold's top bit shifts down to its bit 0.
        self._idx_top, self._tag_top = index_bits - 1, tag_bits - 1
        # The table number each table's index hash XORs in.
        self._table_ids = sum((t & self._index_mask) << (t * width)
                              for t in tables)
        # Highest table first: (table, tags, ctrs, index shift, tag shift).
        self._lookup_order = [
            (t, self._tags[t], self._ctrs[t], t * width, t * width + index_bits)
            for t in reversed(tables)]
        # The history bits the tables drop on a push (each its oldest):
        # ``history & _drop_mask`` keys :meth:`_drop_bits`.
        self._drop_mask = sum(1 << (length - 1)
                              for length in self.history_lengths)
        self._drops: dict = {}
        self._pc_keys: dict = {}

    def _drop_bits(self, dropped: int) -> Tuple[int, int]:
        """What a push XORs into the rotated folds, after a not-taken and
        after a taken prediction, when the history bits ``dropped``
        (``history & _drop_mask``) leave their tables: the oldest bit of
        a table of length ``L`` sits at fold position ``L % bits`` after
        the rotation, and the new bit enters at position 0."""
        index_bits, tag_bits = self._index_bits, self.config.tag_bits
        width = index_bits + tag_bits
        out = 0
        for t, length in enumerate(self.history_lengths):
            if dropped >> (length - 1) & 1:
                out |= 1 << (t * width + length % index_bits)
                out |= 1 << (t * width + index_bits + length % tag_bits)
        self._drops[dropped] = bits = (out, out ^ self._lows)
        return bits

    def _pc_key(self, pc: int) -> int:
        """Every table's pc hash for its index and tag, packed like the
        folds (memoised: a program has few branch pcs)."""
        key = self._pc_keys.get(pc)
        if key is None:
            key = (self._table_ids
                   ^ self._idx_lows * (((pc >> 2) ^ (pc >> (self._index_bits + 2)))
                                       & self._index_mask)
                   ^ self._tag_lows * (((pc >> 2) ^ (pc * 0x9E3779B1 >> 13))
                                       & self._tag_mask))
            if len(self._pc_keys) >= self._FOLD_MEMO_LIMIT:
                self._pc_keys.clear()
            self._pc_keys[pc] = key
        return key

    # -- history management ---------------------------------------------

    def snapshot_history(self) -> int:
        return self._history

    def restore_history(self, snapshot: int) -> None:
        self._history = snapshot

    def _push_history(self, taken: bool) -> None:
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    # -- hashing ----------------------------------------------------------

    #: The fold memo resets when it reaches this many entries — synthetic
    #: and loopy codes revisit a small set of (history, width) pairs, so
    #: hit rates are high and the cap only guards pathological histories.
    _FOLD_MEMO_LIMIT = 1 << 15

    def _fold(self, value: int, bits: int) -> int:
        memo = self._fold_memo
        key = (value, bits)
        folded = memo.get(key)
        if folded is None:
            folded = 0
            mask = (1 << bits) - 1
            v = value
            while v:
                folded ^= v & mask
                v >>= bits
            if len(memo) >= self._FOLD_MEMO_LIMIT:
                memo.clear()
            memo[key] = folded
        return folded

    def _recompute_folds(self, history: int) -> None:
        """Rebuild the packed per-table index/tag history folds.

        The folds are the chunked-XOR folds :meth:`_fold` computes, kept
        as live state: folding is XOR-linear, so shifting one bit into
        the history rotates each fold by one position within its chunk
        width and XORs in/out the entering/leaving bits — the step at
        the end of :meth:`predict`, done for every table at once on the
        packed fields. For the same reason a misprediction repair, which
        flips only the newest history bit, flips bit 0 of every fold.
        Any other history write (squash repair, checkpoint restore)
        invalidates ``_folds_history`` and lands here. This is the
        frontend's hottest math, and functional warming is bounded by
        it."""
        index_bits = self._index_bits
        index_mask = (1 << index_bits) - 1
        tag_bits = self.config.tag_bits
        tag_mask = (1 << tag_bits) - 1
        width = index_bits + tag_bits
        folds = 0
        for t, hist_mask in enumerate(self._hist_masks):
            hist = history & hist_mask
            folded = 0
            v = hist
            while v:
                folded ^= v & index_mask
                v >>= index_bits
            folds |= folded << (t * width)
            folded = 0
            v = hist
            while v:
                folded ^= v & tag_mask
                v >>= tag_bits
            folds |= folded << (t * width + index_bits)
        self._folds = folds
        self._folds_history = history

    def _index(self, pc: int, table: int) -> int:
        bits = self._index_bits
        hist = self._history & self._hist_masks[table]
        return (self._fold(hist, bits) ^ (pc >> 2) ^ (pc >> (bits + 2))
                ^ table) & self._index_mask

    def _tag(self, pc: int, table: int) -> int:
        hist = self._history & self._hist_masks[table]
        return (self._fold(hist, self.config.tag_bits) ^ (pc >> 2)
                ^ (pc * 0x9E3779B1 >> 13)) & self._tag_mask

    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self._bimodal_mask

    def _rand(self) -> int:
        # xorshift, deterministic across runs
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x

    # -- predict / update --------------------------------------------------

    def predict(self, pc: int) -> Tuple[bool, tuple]:
        """Predict ``pc``; returns (taken, state-for-update).

        The state captures provider/alternate components and the history
        snapshot — a plain tuple ``(provider, provider_idx, alt_pred,
        pred, history, pc)`` (see :data:`STATE_HISTORY`); it must be
        passed back to :meth:`update`. Global history is speculatively
        updated with the prediction.
        """
        history = self._history
        if history != self._folds_history:
            if history ^ self._folds_history == 1:
                # A misprediction repair (see _recompute_folds).
                self._folds ^= self._lows
                self._folds_history = history
            else:
                self._recompute_folds(history)
        folds = self._folds
        # Every table's index and tag at once, one field per table.
        keys = folds ^ (self._pc_keys.get(pc) or self._pc_key(pc))
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        provider = -1
        provider_idx = -1
        alt_pred = None
        pred = None
        for t, tags, ctrs, idx_shift, tag_shift in self._lookup_order:
            idx = (keys >> idx_shift) & index_mask
            if tags[idx] == (keys >> tag_shift) & tag_mask:
                if provider == -1:
                    provider, provider_idx = t, idx
                    pred = ctrs[idx] >= 0
                else:
                    alt_pred = ctrs[idx] >= 0
                    break
        bimodal_pred = self._bimodal[(pc >> 2) & self._bimodal_mask] >= 2
        if alt_pred is None:
            alt_pred = bimodal_pred
        if pred is None:
            pred = bimodal_pred
        self._history = self._folds_history = (
            (history << 1) | pred) & self._history_mask
        # Advance the live folds to the pushed history (see
        # _recompute_folds): each fold rotates left by one, takes the
        # predicted bit in and drops its table's oldest history bit.
        dropped = history & self._drop_mask
        self._folds = (((folds & self._body) << 1)
                       | ((folds >> self._idx_top) & self._idx_lows)
                       | ((folds >> self._tag_top) & self._tag_lows)
                       ) ^ (self._drops.get(dropped) or self._drop_bits(dropped))[pred]
        return pred, (provider, provider_idx, alt_pred, pred, history, pc)

    def update(self, taken: bool, state: tuple) -> None:
        """Train with the actual outcome; call once per predicted branch."""
        provider, provider_idx, alt_pred, pred, history, pc = state
        correct = pred == taken
        saved_history = self._history
        self._history = history            # rebuild indices as at predict
        try:
            if provider >= 0:
                ctrs = self._ctrs[provider]
                ctrs[provider_idx] = _saturate(ctrs[provider_idx] + (1 if taken else -1))
                if pred != alt_pred:
                    useful, u = self._useful[provider], self._useful[provider][provider_idx]
                    useful[provider_idx] = min(u + 1, 3) if correct else max(u - 1, 0)
            else:
                idx = self._bimodal_index(pc)
                ctr = self._bimodal[idx]
                self._bimodal[idx] = min(ctr + 1, _BIMODAL_MAX) if taken \
                    else max(ctr - 1, 0)
            if not correct:
                self._allocate(pc, taken, provider)
        finally:
            if correct:
                self._history = saved_history
            else:
                # Repair the speculative history: replace the mispredicted
                # bit with the actual outcome (idempotent with the branch
                # unit's own repair, which computes the same value).
                self._history = history
                self._push_history(taken)

    def _allocate(self, pc: int, taken: bool, provider: int) -> None:
        start = provider + 1
        if start >= self.config.num_tagged_tables:
            return
        # Randomize the starting table a little, as real TAGE does.
        if start + 1 < self.config.num_tagged_tables and self._rand() & 1:
            start += 1
        for t in range(start, self.config.num_tagged_tables):
            idx = self._index(pc, t)
            useful = self._useful[t]
            if useful[idx] == 0:
                self._tags[t][idx] = self._tag(pc, t)
                self._ctrs[t][idx] = 0 if taken else -1
                return
            useful[idx] -= 1    # age useful bits when allocation fails

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Predictor columns + history + RNG (the fold memo is a pure
        cache and is rebuilt empty on load)."""
        return {
            "bimodal": list(self._bimodal),
            "tags": [list(column) for column in self._tags],
            "ctrs": [list(column) for column in self._ctrs],
            "useful": [list(column) for column in self._useful],
            "history": self._history,
            "rng_state": self._rng_state,
        }

    def load_state_dict(self, state: dict) -> None:
        self._bimodal[:] = state["bimodal"]
        for key, columns in zip(("tags", "ctrs", "useful"), (self._tags, self._ctrs, self._useful)):
            for column, saved in zip(columns, state[key]):
                column[:] = saved
        self._history = state["history"]
        self._rng_state = state["rng_state"]
        self._fold_memo = {}
        self._folds_history = -1


def _saturate(ctr: int) -> int:
    return _CTR_MIN if ctr < _CTR_MIN else _CTR_MAX if ctr > _CTR_MAX else ctr
