import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace, TraceSource, WrongPathSynth, iterate
from repro.isa.uop import MicroOp


def _uops(n):
    return [MicroOp(0, 0x100 + i, OpClass.INT_ALU, srcs=[1], dst=2)
            for i in range(n)]


def test_finite_trace_exhausts():
    t = ListTrace(_uops(3))
    got = [t.next_uop() for _ in range(4)]
    assert got[3] is None
    assert [u.pc for u in got[:3]] == [0x100, 0x101, 0x102]


def test_fetch_assigns_monotone_seq():
    """Sources hand out µops unnumbered; fetch numbers every µop."""
    from repro.common.config import CoreConfig
    from repro.common.stats import SimStats
    from repro.frontend.fetch import FetchStage

    t = ListTrace(_uops(5))
    fetch = FetchStage(t, None, CoreConfig(), SimStats())
    fetch.tick(0)
    seqs = [uop.seq for _, uop in fetch.in_flight()]
    assert seqs == list(range(5))


def test_trace_clones_templates():
    templates = _uops(1)
    t = ListTrace(templates * 2)
    a = t.next_uop()
    b = t.next_uop()
    assert a is not b and a is not templates[0]
    a.executed = True
    assert not b.executed


def test_iterate_limit():
    t = ListTrace(_uops(10))
    assert len(list(iterate(t, 4))) == 4


def test_iterate_stops_at_exhaustion():
    t = ListTrace(_uops(2))
    assert len(list(iterate(t, 10))) == 2


def test_default_wrong_path_uop_is_alu():
    t = TraceSource(wp_seed=0)
    wp = t.wrong_path_uop(3, 0xDEAD)
    assert wp.wrong_path
    assert wp.opclass == OpClass.INT_ALU
    assert wp.pc == 0xDEAD


def test_list_trace_wrong_path_has_seeded_variety():
    # The seeded filler is no constant chain: the (srcs, dst) pattern
    # varies, but only over the reserved registers.
    t = ListTrace(_uops(3))
    wps = [t.wrong_path_uop(0, 0x1000 + i) for i in range(64)]
    assert all(w.wrong_path and w.opclass == OpClass.INT_ALU for w in wps)
    assert all(set(w.srcs) | {w.dst} <= {0, 1} for w in wps)
    assert len({(tuple(w.srcs), w.dst) for w in wps}) > 1


def test_list_trace_wrong_path_deterministic_per_seed():
    a = ListTrace(_uops(3), wp_seed=9)
    b = ListTrace(_uops(3), wp_seed=9)
    c = ListTrace(_uops(3), wp_seed=10)
    pa = [(tuple(u.srcs), u.dst) for u in
          (a.wrong_path_uop(0, i) for i in range(32))]
    pb = [(tuple(u.srcs), u.dst) for u in
          (b.wrong_path_uop(0, i) for i in range(32))]
    pc = [(tuple(u.srcs), u.dst) for u in
          (c.wrong_path_uop(0, i) for i in range(32))]
    assert pa == pb
    assert pa != pc


def test_list_trace_restore_restarts_wrong_path_stream():
    t = ListTrace(_uops(3), wp_seed=5)
    start = t.state_dict()
    first = [(tuple(u.srcs), u.dst) for u in
             (t.wrong_path_uop(0, i) for i in range(16))]
    t.load_state_dict(start)
    again = [(tuple(u.srcs), u.dst) for u in
             (t.wrong_path_uop(0, i) for i in range(16))]
    assert first == again


# ---------------------------------------------------------------------------
# The four shipped sources share the base class's seeded wrong path.

#: Source kind -> its pinned checkpoint state keys.
SOURCE_STATE_KEYS = {
    "list": {"buffer", "emitted", "synth"},
    "suite": {"rng", "kernels", "buffer", "emitted", "synth"},
    "recording": {"emitted", "synth"},
    "rv32i": {"machine", "buffer", "emitted", "synth"},
}


def _source(kind, tmp_path):
    from repro.traces.format import FileTrace, capture
    from repro.traces.registry import resolve_workload

    if kind == "list":
        return ListTrace(_uops(40), wp_seed=3)
    if kind == "suite":
        return resolve_workload("gzip").build_trace(3)
    if kind == "recording":
        path = tmp_path / "t.trc"
        capture(ListTrace(_uops(40)), path, 40, wp_seed=3)
        return FileTrace(path)
    return resolve_workload("ptr-chase").build_trace(3)


@pytest.mark.parametrize("kind", sorted(SOURCE_STATE_KEYS))
def test_source_wrong_path_is_the_base_synthesizer(kind, tmp_path):
    source = _source(kind, tmp_path)
    for name in ("wrong_path_uop", "skip_wrong_path"):
        assert name not in vars(type(source)), name
    assert set(source.state_dict()) == SOURCE_STATE_KEYS[kind]

    reference = WrongPathSynth(3)
    for i in range(20):
        a, b = source.wrong_path_uop(0, i), reference.synth(0, i)
        assert (a.srcs, a.dst, a.wrong_path) == (b.srcs, b.dst, True)
    source.skip_wrong_path(7)
    reference.skip(7)

    # A restored source continues the same wrong-path stream.
    state = source.state_dict()
    draws = [source.wrong_path_uop(0, i).srcs for i in range(20)]
    restored = _source(kind, tmp_path)
    restored.load_state_dict(state)
    assert [restored.wrong_path_uop(0, i).srcs for i in range(20)] == draws
    assert draws == [reference.synth(0, i).srcs for i in range(20)]


@pytest.mark.parametrize("kind", sorted(SOURCE_STATE_KEYS))
def test_only_a_recording_overrides_the_row_supply(kind, tmp_path):
    """Generated sources refill the base class's row buffer; only a
    recording reads its own frames."""
    supply = ("next_row", "next_record_block")
    overridden = [name for name in supply
                  if name in vars(type(_source(kind, tmp_path)))]
    assert overridden == (list(supply) if kind == "recording" else [])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       count=st.one_of(st.sampled_from([0, 1, 3, 65_536, 65_537, 140_000]),
                       st.integers(0, 500)))
def test_skip_consumes_the_rng_like_single_draws(seed, count):
    """The bulk discard leaves the RNG exactly where ``count`` single
    variant draws leave it, across its word-block boundary too."""
    bulk, single = WrongPathSynth(seed), WrongPathSynth(seed)
    bulk.skip(count)
    for _ in range(count):
        single._draw_variant()
    assert bulk._rng.getstate() == single._rng.getstate()
