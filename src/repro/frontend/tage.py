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
        # Incrementally maintained per-table history folds (see
        # :meth:`_recompute_folds`); valid only while ``_folds_history``
        # equals ``_history``.
        self._fold_idx = [0] * cfg.num_tagged_tables
        self._fold_tag = [0] * cfg.num_tagged_tables
        self._folds_history = -1
        # Per-table advance constants: (oldest-bit shift, index-fold
        # re-entry position, tag-fold re-entry position).
        self._fold_geometry = [
            (length - 1, length % self._index_bits, length % cfg.tag_bits)
            for length in self.history_lengths
        ]
        self._rng_state = seed or 1

    # -- history management ---------------------------------------------

    def snapshot_history(self) -> int:
        return self._history

    def restore_history(self, snapshot: int) -> None:
        self._history = snapshot

    def _push_history(self, taken: bool) -> None:
        mask = (1 << (self.config.max_history + 1)) - 1
        self._history = ((self._history << 1) | int(taken)) & mask

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
        """Rebuild the per-table index/tag history folds from scratch.

        The folds are the chunked-XOR folds :meth:`_fold` computes, kept
        as live state: folding is XOR-linear, so shifting one bit into
        the history rotates each fold by one position within its chunk
        width and XORs in/out the entering/leaving bits — the O(tables)
        incremental step at the end of :meth:`predict`. Any other
        history write (squash repair, misprediction repair, checkpoint
        restore) invalidates ``_folds_history`` and lands here. This is
        the frontend's hottest math, and the functional fast-forward
        mode is bounded by it."""
        index_bits = self._index_bits
        index_mask = (1 << index_bits) - 1
        tag_bits = self.config.tag_bits
        tag_mask = (1 << tag_bits) - 1
        fold_idx = self._fold_idx
        fold_tag = self._fold_tag
        for t, hist_mask in enumerate(self._hist_masks):
            hist = history & hist_mask
            folded = 0
            v = hist
            while v:
                folded ^= v & index_mask
                v >>= index_bits
            fold_idx[t] = folded
            folded = 0
            v = hist
            while v:
                folded ^= v & tag_mask
                v >>= tag_bits
            fold_tag[t] = folded
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
        return (pc >> 2) & (self.config.bimodal_entries - 1)

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
        provider = -1
        provider_idx = -1
        alt_pred = None
        pred = None
        history = self._history
        if history != self._folds_history:
            self._recompute_folds(history)
        fold_idx = self._fold_idx
        fold_tag = self._fold_tag
        tags, ctrs = self._tags, self._ctrs
        bits = self._index_bits
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        pc_idx = (pc >> 2) ^ (pc >> (bits + 2))
        pc_tag = ((pc >> 2) ^ (pc * 0x9E3779B1 >> 13)) & tag_mask
        for t in range(self.config.num_tagged_tables - 1, -1, -1):
            idx = (fold_idx[t] ^ pc_idx ^ t) & index_mask
            if tags[t][idx] == (fold_tag[t] ^ pc_tag) & tag_mask:
                if provider == -1:
                    provider, provider_idx = t, idx
                    pred = ctrs[t][idx] >= 0
                elif alt_pred is None:
                    alt_pred = ctrs[t][idx] >= 0
                    break
        bimodal_pred = self._bimodal[self._bimodal_index(pc)] >= 2
        if alt_pred is None:
            alt_pred = bimodal_pred
        if pred is None:
            pred = bimodal_pred
        state = (provider, provider_idx, alt_pred, pred, history, pc)
        self._push_history(pred)
        # Advance the live folds to the pushed history (rotate-and-XOR;
        # see _recompute_folds): each table shifts in the predicted bit
        # and drops its oldest history bit.
        bit = 1 if pred else 0
        tag_bits = self.config.tag_bits
        for t, (drop_shift, idx_pos, tag_pos) in enumerate(self._fold_geometry):
            dropped = (history >> drop_shift) & 1
            f = fold_idx[t]
            fold_idx[t] = (((f << 1) | (f >> (bits - 1))) & index_mask
                           ) ^ bit ^ (dropped << idx_pos)
            f = fold_tag[t]
            fold_tag[t] = (((f << 1) | (f >> (tag_bits - 1))) & tag_mask
                           ) ^ bit ^ (dropped << tag_pos)
        self._folds_history = self._history
        return pred, state

    def warm_predict(self, pc: int, idxs, tags) -> Tuple[bool, tuple]:
        """:meth:`predict` with precomputed per-table indices and tags.

        ``idxs``/``tags`` are this branch's table indices and partial
        tags, low table first, as the warming engine folds them
        in bulk (:func:`repro.pipeline.warming.engine.tage_fold_indices`)
        — they must equal what :meth:`predict` would compute for the
        current history. State effects are identical to :meth:`predict`;
        the live folds are left stale (``_folds_history`` no longer
        matches) and rebuilt by the next plain :meth:`predict`.
        """
        provider = -1
        provider_idx = -1
        alt_pred = None
        pred = None
        table_tags, ctrs = self._tags, self._ctrs
        for t in range(self.config.num_tagged_tables - 1, -1, -1):
            idx = idxs[t]
            if table_tags[t][idx] == tags[t]:
                if provider == -1:
                    provider, provider_idx = t, idx
                    pred = ctrs[t][idx] >= 0
                elif alt_pred is None:
                    alt_pred = ctrs[t][idx] >= 0
                    break
        bimodal_pred = self._bimodal[self._bimodal_index(pc)] >= 2
        if alt_pred is None:
            alt_pred = bimodal_pred
        if pred is None:
            pred = bimodal_pred
        state = (provider, provider_idx, alt_pred, pred, self._history, pc)
        self._push_history(pred)
        return pred, state

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
