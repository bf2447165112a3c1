from repro.core.global_ctr import GlobalHitMissCounter


def test_initial_state_speculates():
    assert GlobalHitMissCounter().predict_hit()


def test_paper_update_rule():
    """-2 on a miss cycle, +1 otherwise, 4-bit saturating (Section 5.2)."""
    c = GlobalHitMissCounter()
    assert c.value == 15
    c.observe_cycle(True)
    assert c.value == 13
    c.observe_cycle(False)
    assert c.value == 14
    c.observe_cycle(False)
    c.observe_cycle(False)
    assert c.value == 15       # saturates high


def test_msb_threshold():
    c = GlobalHitMissCounter()
    # Drive down to just below the MSB (8): 15 -> 7 needs 4 misses.
    for _ in range(4):
        c.observe_cycle(True)
    assert c.value == 7
    assert not c.predict_hit()
    c.observe_cycle(False)
    assert c.value == 8
    assert c.predict_hit()


def test_saturates_low():
    c = GlobalHitMissCounter()
    for _ in range(20):
        c.observe_cycle(True)
    assert c.value == 0
    assert not c.predict_hit()


def test_miss_bursts_flip_mode_quickly():
    """Misses cluster: 4 consecutive miss cycles silence speculation, and
    8 quiet cycles restore it — the Alpha 21264 asymmetry."""
    c = GlobalHitMissCounter()
    for _ in range(4):
        c.observe_cycle(True)
    assert not c.predict_hit()
    for _ in range(8):
        c.observe_cycle(False)
    assert c.predict_hit()


def test_custom_geometry():
    c = GlobalHitMissCounter(bits=3, dec_on_miss=1, inc_on_hit=2)
    assert c.max_value == 7
    c.observe_cycle(True)
    assert c.value == 6
