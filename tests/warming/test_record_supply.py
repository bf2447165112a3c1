"""One stream, two shapes: every trace source serves ``next_uop`` and
``next_record_block`` over the same stream position.

A block carries only the columns warming reads (pc, opclass, mem_addr,
taken, target), so a block is compared with the ``next_uop`` stream on
those fields; µop streams are compared on every architectural field.

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


def block_fields(fields):
    """The fields of ``uop_fields`` a record block carries."""
    pc, opclass, _srcs, _dst, mem_addr, _mem_size, taken, target = fields
    return (pc, opclass, mem_addr, taken, target)


def record_fields(block):
    """The ``block_fields`` of each µop in a record block."""
    assert len({len(block.pcs), len(block.opclasses), len(block.mem_addrs),
                len(block.takens), len(block.targets)}) == 1
    return [(pc, int(opclass), mem_addr, bool(taken), target)
            for pc, opclass, mem_addr, taken, target
            in zip(block.pcs, block.opclasses, block.mem_addrs,
                   block.takens, block.targets)]


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
    every interleaving and the 50 µops resumed after it."""
    if name not in _REFERENCE:
        _REFERENCE[name] = uop_stream(sources[name](), STREAM + MAX_BLOCK + 50)
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
            got.extend(map(block_fields, uops))
            exhausted = len(uops) < count
    expected = reference(name, sources)
    assert got == list(map(block_fields, expected[:len(got)]))
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
    expected = list(map(block_fields, uop_stream(source, 500)))
    resumed = sources[name]()
    resumed.load_state_dict(state)
    got = []
    while len(got) < len(expected):
        got.extend(record_fields(resumed.next_record_block(97)))
    assert got[:len(expected)] == expected


def test_kind_tables_match_uop_flags():
    from repro.pipeline.warming import _IS_BRANCH, _LOAD, _MEM_KIND, _STORE

    for uop in random_uops(37, 300):
        kind = _MEM_KIND[uop.opclass]
        assert bool(kind) == uop.is_mem
        assert (kind == _LOAD) == uop.is_load
        assert (kind == _STORE) == (uop.is_mem and not uop.is_load)
        assert _IS_BRANCH[uop.opclass] == uop.is_branch
