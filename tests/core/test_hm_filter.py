from repro.core.hm_filter import FilterPrediction, HitMissFilter


def make(entries=64, reset=10_000):
    return HitMissFilter(entries=entries, reset_interval=reset)


def test_fresh_entry_defers():
    f = make()
    assert f.predict(0x10) is FilterPrediction.DEFER


def test_always_hitting_load_becomes_sure_hit():
    f = make()
    f.train(0x10, hit=True)
    assert f.predict(0x10) is FilterPrediction.SURE_HIT


def test_always_missing_load_becomes_sure_miss():
    f = make()
    f.train(0x10, hit=False)
    f.train(0x10, hit=False)
    assert f.predict(0x10) is FilterPrediction.SURE_MISS


def test_leaving_saturation_silences():
    """Section 5.2: a counter going from saturated to transient (e.g. 0->1
    after a hit) silences the entry — the load's behaviour follows recent
    dynamic context, so the global counter should decide."""
    f = make()
    f.train(0x10, hit=False)
    f.train(0x10, hit=False)       # saturated low (sure miss)
    f.train(0x10, hit=True)        # 0 -> 1: silenced
    assert f.predict(0x10) is FilterPrediction.DEFER


def test_silenced_counters_not_updated():
    f = make()
    f.train(0x10, hit=False)
    f.train(0x10, hit=False)
    f.train(0x10, hit=True)        # silenced at counter 1
    for _ in range(5):
        f.train(0x10, hit=True)    # must not move the counter
    assert f.predict(0x10) is FilterPrediction.DEFER
    assert f._counters[f._index(0x10)] == 1


def test_silence_reset_interval():
    """Silence bits clear every reset_interval committed loads."""
    f = make(reset=8)
    f.train(0x10, hit=False)
    f.train(0x10, hit=False)
    f.train(0x10, hit=True)        # silenced, counter 1 (3 commits so far)
    for i in range(5):             # commits 4..8; reset fires at 8
        f.train(0x80 + i, hit=True)
    # Unsilenced again: counter 1 is transient -> DEFER but now trainable.
    f.train(0x10, hit=True)        # 1 -> 2
    f.train(0x10, hit=True)        # 2 -> 3: sure hit again
    assert f.predict(0x10) is FilterPrediction.SURE_HIT


def test_direct_mapped_aliasing():
    f = make(entries=4)
    f.train(0, hit=True)
    assert f.predict(4) is f.predict(0)     # same entry


def test_hit_then_miss_oscillation_defers():
    f = make()
    for i in range(12):
        f.train(0x10, hit=(i % 2 == 0))
    assert f.predict(0x10) is FilterPrediction.DEFER


def test_silenced_fraction():
    f = make(entries=4)
    f.train(0, hit=False)
    f.train(0, hit=False)
    f.train(0, hit=True)
    assert 0.0 < f.silenced_fraction() <= 1.0
