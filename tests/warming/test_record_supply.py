"""One stream, two shapes: every trace source serves ``next_uop`` and
``next_record_block`` over the same stream position.

The four sources — the kernel generator (``WorkloadTrace``), a recording
(``FileTrace``), an RV32I program (``Rv32iTrace``) and a hand-built list
(``ListTrace``) — must hand out the same µops whichever way the stream
is consumed, and a checkpoint taken between the two shapes must resume
it.
"""

from __future__ import annotations

import pickle
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.format import FileTrace, capture
from repro.traces.registry import resolve_workload

from tests.warming.conftest import list_trace, random_uops

#: µops each interleaving consumes; the recording holds exactly this many.
STREAM = 3000
#: Records per frame of the recording: a block request can span several.
FRAME = 500
#: Largest block request: past a frame and past any kernel block.
MAX_BLOCK = 1200
#: Length of the finite list source (it runs out mid-interleaving).
LIST_UOPS = 2000


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Source name -> a factory building that source from the start."""
    path = tmp_path_factory.mktemp("supply") / "gzip.trc"
    capture(resolve_workload("gzip").build_trace(3), path, STREAM,
            wp_seed=3, frame_records=FRAME)
    return {
        "workload": lambda: resolve_workload("gzip").build_trace(3),
        "file": lambda: FileTrace(path),
        "rv32i": lambda: resolve_workload("dhry-mix").build_trace(1),
        "list": lambda: list_trace(23, LIST_UOPS),
    }


def uop_fields(uop):
    return (uop.pc, int(uop.opclass), tuple(uop.srcs), uop.dst,
            uop.mem_addr, uop.mem_size, bool(uop.taken), uop.target)


def record_fields(records):
    """The ``uop_fields`` of each record in a record array."""
    out = []
    for (pc, mem_addr, target, s0, s1, s2, dst, opclass, flags,
         mem_size) in records.tolist():
        srcs = tuple(s for s in (s0, s1, s2) if s >= 0)
        out.append((pc, opclass, srcs, None if dst < 0 else dst, mem_addr,
                    mem_size, bool(flags & 1), target))
    return out


def uop_stream(source, count):
    out = []
    for _ in range(count):
        uop = source.next_uop()
        if uop is None:
            break
        out.append(uop_fields(uop))
    return out


_REFERENCE = {}


def reference(name, sources):
    """The pure ``next_uop`` stream of a source, far enough to cover
    every interleaving."""
    if name not in _REFERENCE:
        _REFERENCE[name] = uop_stream(sources[name](), STREAM + MAX_BLOCK)
    return _REFERENCE[name]


steps = st.lists(
    st.one_of(st.tuples(st.just("uop"), st.integers(1, 40)),
              st.tuples(st.just("block"), st.integers(1, MAX_BLOCK))),
    min_size=1, max_size=8)


@pytest.mark.parametrize("name", ("workload", "file", "rv32i", "list"))
@settings(max_examples=12, deadline=None)
@given(plan=steps)
def test_interleaving_equals_next_uop_stream(sources, name, plan):
    source = sources[name]()
    got = []
    exhausted = False
    for kind, count in cycle(plan):
        if len(got) >= STREAM or exhausted:
            break
        if kind == "block":
            records = source.next_record_block(count)
            if records is None:
                exhausted = True
            else:
                assert 1 <= len(records) <= count
                got.extend(record_fields(records))
        else:
            uops = uop_stream(source, count)
            got.extend(uops)
            exhausted = len(uops) < count
    expected = reference(name, sources)
    assert got == expected[:len(got)]
    if exhausted:
        assert len(got) == len(expected)
        assert source.next_uop() is None
        assert source.next_record_block(10) is None
    resumed = sources[name]()
    resumed.load_state_dict(pickle.loads(pickle.dumps(source.state_dict())))
    assert uop_stream(resumed, 50) == expected[len(got):len(got) + 50]


@pytest.mark.parametrize("name", ("workload", "file", "rv32i", "list"))
def test_state_round_trip_between_shapes(sources, name):
    """A checkpoint taken after a block read (mid kernel block, mid
    frame) resumes the same stream, read back as records."""
    source = sources[name]()
    read = 0
    while read < 777:
        read += len(source.next_record_block(777 - read))
    state = pickle.loads(pickle.dumps(source.state_dict()))
    if name == "workload":
        assert state["buffer"]           # cut inside a kernel block
    expected = uop_stream(source, 500)
    resumed = sources[name]()
    resumed.load_state_dict(state)
    got = []
    while len(got) < len(expected):
        got.extend(record_fields(resumed.next_record_block(97)))
    assert got[:len(expected)] == expected


def test_kind_masks_match_uop_flags():
    from repro.isa.opclass import OpClass
    from repro.pipeline.warming.blocks import (
        IS_BRANCH,
        IS_CALL_OR_RET,
        IS_LOAD,
        IS_MEM,
    )

    for uop in random_uops(37, 300):
        assert IS_MEM[int(uop.opclass)] == uop.is_mem
        assert IS_LOAD[int(uop.opclass)] == uop.is_load
        assert IS_BRANCH[int(uop.opclass)] == uop.is_branch
        assert IS_CALL_OR_RET[int(uop.opclass)] == (
            uop.opclass in (OpClass.CALL, OpClass.RET))
