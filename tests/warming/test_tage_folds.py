"""TAGE fold math: incremental folds, bulk folds, warm_predict."""

from __future__ import annotations

import random

import numpy as np

from repro.frontend.tage import TageLite


def branch_stream(seed: int, count: int, pcs: int = 64):
    """(pc, taken) pairs with clustered pcs so tables actually train."""
    rng = random.Random(seed)
    return [(0x4000 + 4 * rng.randrange(pcs), rng.random() < 0.55)
            for _ in range(count)]


def scalar_rows(tage: TageLite, pc: int):
    """Per-table (idx, tag) via the reference hash methods."""
    tables = range(tage.config.num_tagged_tables)
    return ([tage._index(pc, t) for t in tables],
            [tage._tag(pc, t) for t in tables])


class TestIncrementalFolds:
    def test_predict_keeps_folds_live(self):
        """After every predict, the live folds equal a fresh recompute."""
        tage = TageLite()
        for pc, taken in branch_stream(1, 800):
            _, state = tage.predict(pc)
            tage.update(taken, state)
            if tage._folds_history != tage._history:
                continue           # a mispredict repair invalidated them
            live_idx = list(tage._fold_idx)
            live_tag = list(tage._fold_tag)
            tage._recompute_folds(tage._history)
            assert tage._fold_idx == live_idx
            assert tage._fold_tag == live_tag


class TestBulkFolds:
    def test_rows_match_scalar_hashes(self):
        """tage_fold_indices rows == _index/_tag with outcome history."""
        from repro.pipeline.warming.engine import tage_fold_indices

        tage = TageLite()
        for pc, taken in branch_stream(2, 300):     # arbitrary start state
            _, state = tage.predict(pc)
            tage.update(taken, state)

        block = branch_stream(3, 257)
        pcs = np.array([pc for pc, _ in block], dtype=np.uint64)
        takens = np.array([taken for _, taken in block], dtype=np.uint64)
        idx_rows, tag_rows = tage_fold_indices(tage, pcs, takens)

        for i, (pc, taken) in enumerate(block):
            expected_idx, expected_tag = scalar_rows(tage, pc)
            assert list(idx_rows[i]) == expected_idx, i
            assert list(tag_rows[i]) == expected_tag, i
            tage._push_history(taken)    # history after branch = outcome

    def test_split_blocks_match_whole(self):
        """Folding a block in two halves equals folding it at once."""
        from repro.pipeline.warming.engine import tage_fold_indices

        tage = TageLite()
        for pc, taken in branch_stream(4, 200):
            _, state = tage.predict(pc)
            tage.update(taken, state)

        block = branch_stream(5, 180)
        pcs = np.array([pc for pc, _ in block], dtype=np.uint64)
        takens = np.array([taken for _, taken in block], dtype=np.uint64)
        whole_idx, whole_tag = tage_fold_indices(tage, pcs, takens)

        split = 77
        half_idx, half_tag = tage_fold_indices(
            tage, pcs[:split], takens[:split])
        for taken in takens[:split]:     # advance history to the boundary
            tage._push_history(bool(taken))
        rest_idx, rest_tag = tage_fold_indices(
            tage, pcs[split:], takens[split:])

        assert [list(r) for r in half_idx + rest_idx] == \
            [list(r) for r in whole_idx]
        assert [list(r) for r in half_tag + rest_tag] == \
            [list(r) for r in whole_tag]


class TestWarmPredict:
    def test_matches_predict(self):
        """warm_predict with correct rows is bit-identical to predict."""
        reference = TageLite()
        warmed = TageLite()
        for pc, taken in branch_stream(6, 600):
            pred_r, state_r = reference.predict(pc)
            idxs, tags = scalar_rows(warmed, pc)
            pred_w, state_w = warmed.warm_predict(pc, idxs, tags)
            assert (pred_r, state_r) == (pred_w, state_w)
            reference.update(taken, state_r)
            warmed.update(taken, state_w)
        assert reference.state_dict() == warmed.state_dict()
