from repro.common.config import BranchPredictorConfig
from repro.frontend.tage import TageLite


def run_pattern(tage, pc, outcomes):
    """Predict+update over an outcome sequence; returns accuracy."""
    correct = 0
    for taken in outcomes:
        pred, state = tage.predict(pc)
        if pred == taken:
            correct += 1
        tage.update(taken, state)
    return correct / len(outcomes)


def test_geometric_history_lengths():
    t = TageLite()
    lengths = t.history_lengths
    assert lengths == sorted(lengths)
    assert len(set(lengths)) == len(lengths)
    assert lengths[0] == t.config.min_history
    assert lengths[-1] >= t.config.max_history // 2


def test_learns_always_taken():
    t = TageLite()
    acc = run_pattern(t, 0x40, [True] * 200)
    assert acc > 0.95


def test_learns_always_not_taken():
    t = TageLite()
    acc = run_pattern(t, 0x44, [False] * 200)
    assert acc > 0.95


def test_learns_short_loop_pattern():
    # taken 7, not-taken 1 — classic loop branch; needs history.
    t = TageLite()
    pattern = ([True] * 7 + [False]) * 80
    warm = run_pattern(t, 0x48, pattern[:320])
    trained = run_pattern(t, 0x48, pattern[320:])
    assert trained > warm - 0.02          # never regresses materially
    assert trained > 0.93


def test_learns_alternating():
    t = TageLite()
    pattern = [bool(i % 2) for i in range(600)]
    acc = run_pattern(t, 0x4C, pattern[200:])
    assert acc > 0.95


def test_random_biased_tracks_bias():
    import random
    rng = random.Random(7)
    t = TageLite()
    outcomes = [rng.random() < 0.9 for _ in range(1500)]
    acc = run_pattern(t, 0x50, outcomes)
    assert acc > 0.80        # at least the bias, minus learning noise


def test_history_snapshot_restore():
    t = TageLite()
    snap = t.snapshot_history()
    pred, state = t.predict(0x54)
    assert t.snapshot_history() != snap or pred is not None
    t.restore_history(snap)
    assert t.snapshot_history() == snap


def test_distinct_pcs_do_not_destructively_alias():
    t = TageLite()
    a = run_pattern(t, 0x100, [True] * 150)
    b = run_pattern(t, 0x204, [False] * 150)
    assert a > 0.9 and b > 0.9


def test_custom_config_validated():
    cfg = BranchPredictorConfig(num_tagged_tables=3, table_entries=256,
                                min_history=2, max_history=32)
    t = TageLite(cfg)
    assert len(t.history_lengths) == 3
