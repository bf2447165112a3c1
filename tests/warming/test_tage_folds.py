"""TAGE fold math: the live folds predict keeps match a fresh recompute."""

from __future__ import annotations

import random

from repro.frontend.tage import TageLite


def branch_stream(seed: int, count: int, pcs: int = 64):
    """(pc, taken) pairs with clustered pcs so tables actually train."""
    rng = random.Random(seed)
    return [(0x4000 + 4 * rng.randrange(pcs), rng.random() < 0.55)
            for _ in range(count)]


class TestIncrementalFolds:
    def test_predict_keeps_folds_live(self):
        """After every predict, the live folds equal a fresh recompute
        (a mispredict repair leaves them to the next predict, which
        flips their newest bit)."""
        tage = TageLite()
        for pc, taken in branch_stream(1, 800):
            _, state = tage.predict(pc)
            live = tage._folds
            tage._recompute_folds(tage._history)
            assert tage._folds == live
            tage.update(taken, state)

    def test_predict_matches_reference_hashes(self):
        """Every table's packed index and tag field is the one
        ``_index``/``_tag`` compute for the history the prediction is
        made with, and the prediction is the one those scalar hashes
        give."""
        tage = TageLite()
        tables = range(tage.config.num_tagged_tables)
        hits = 0
        for pc, taken in branch_stream(2, 1500):
            history = tage._history
            if tage._folds_history ^ history == 1:   # a mispredict repair
                folds = tage._folds ^ tage._lows
            else:
                if tage._folds_history != history:   # the first predict
                    tage._recompute_folds(history)
                folds = tage._folds
            keys = folds ^ tage._pc_key(pc)
            indices = [tage._index(pc, t) for t in tables]
            tag_values = [tage._tag(pc, t) for t in tables]
            for t, _, _, idx_shift, tag_shift in tage._lookup_order:
                assert (keys >> idx_shift) & tage._index_mask == indices[t]
                assert (keys >> tag_shift) & tage._tag_mask == tag_values[t]
            hit = [t for t in reversed(tables)
                   if tage._tags[t][indices[t]] == tag_values[t]]
            bimodal = tage._bimodal[tage._bimodal_index(pc)] >= 2
            preds = [tage._ctrs[t][indices[t]] >= 0 for t in hit[:2]]
            preds += [bimodal] * (2 - len(preds))
            provider = hit[0] if hit else -1
            expected = (provider, indices[provider] if hit else -1,
                        preds[1], preds[0], history, pc)

            pred, state = tage.predict(pc)
            assert (pred, state) == (preds[0], expected)
            hits += bool(hit)
            tage.update(taken, state)
        assert hits > 50
