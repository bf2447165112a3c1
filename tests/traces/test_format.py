"""Binary trace format: encoding, header, digests, corruption handling."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.container import FRAME_HEADER, HEADER
from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace, iterate
from repro.isa.uop import MicroOp
from repro.traces.format import (
    FileTrace,
    RECORD,
    TraceFormatError,
    capture,
    pack_rows,
    read_info,
    verify,
)

ARCH_FIELDS = ("pc", "opclass", "srcs", "dst", "mem_addr", "mem_size",
               "taken", "target")


def arch(uop):
    return tuple(getattr(uop, name) for name in ARCH_FIELDS)


def packed(uop):
    """One µop's record bytes, packed field by field (-1 for an absent
    register, flag bit 0 for the branch outcome)."""
    srcs = list(uop.srcs) + [-1] * (3 - len(uop.srcs))
    return RECORD.pack(uop.pc, uop.mem_addr, uop.target, *srcs,
                       -1 if uop.dst is None else uop.dst, int(uop.opclass),
                       1 if uop.taken else 0, uop.mem_size)


def replay(path, limit=10_000):
    return list(iterate(FileTrace(path), limit))


def _mixed_uops(n=100):
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            out.append(MicroOp(0, 0x100 + i, OpClass.LOAD, srcs=[2],
                               dst=3 + i % 4, mem_addr=0x4000 + 64 * i))
        elif kind == 1:
            out.append(MicroOp(0, 0x200 + i, OpClass.STORE, srcs=[2, 3],
                               mem_addr=0x8000 + 8 * i, mem_size=4))
        elif kind == 2:
            out.append(MicroOp(0, 0x300 + i, OpClass.FP_MUL,
                               srcs=[35, 36], dst=37))
        else:
            out.append(MicroOp(0, 0x400 + i, OpClass.BRANCH, srcs=[3],
                               taken=i % 3 == 0, target=0x400))
    return out


# ---------------------------------------------------------------------------
# Record encoding


uop_strategy = st.builds(
    MicroOp,
    seq=st.just(0),
    pc=st.integers(min_value=0, max_value=2**63),
    opclass=st.sampled_from(list(OpClass)),
    srcs=st.lists(st.integers(min_value=0, max_value=63), max_size=3),
    dst=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    mem_addr=st.integers(min_value=0, max_value=2**63),
    mem_size=st.integers(min_value=0, max_value=64),
    taken=st.booleans(),
    target=st.integers(min_value=0, max_value=2**63),
)


@settings(max_examples=100, deadline=None)
@given(uops=st.lists(uop_strategy, min_size=1, max_size=12))
def test_record_roundtrip_property(uops):
    """Recorded µops replay field for field (``FileTrace.next_uop``
    decodes what :func:`pack_rows` wrote)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.trc"
        capture(ListTrace(uops), path, len(uops), wp_seed=0,
                frame_records=5)
        assert [arch(u) for u in replay(path)] == [arch(u) for u in uops]


@settings(max_examples=100, deadline=None)
@given(uops=st.lists(uop_strategy, min_size=1, max_size=12))
def test_rows_pack_like_records_property(uops):
    """Packing rows equals packing each µop field by field."""
    rows = [arch(u) for u in uops]
    assert pack_rows(rows) == b"".join(packed(u) for u in uops)


def test_record_is_fixed_width():
    assert len(pack_rows([arch(_mixed_uops(1)[0])])) == RECORD.size


def test_too_many_sources_rejected():
    """Packing drops no fourth source, wherever its row sits."""
    wide = arch(MicroOp(0, 0x1, OpClass.INT_ALU, srcs=[1, 2, 3, 4], dst=5))
    for position in range(3):
        rows = [arch(u) for u in _mixed_uops(3)]
        rows[position] = wide
        with pytest.raises(TraceFormatError, match="at most 3"):
            pack_rows(rows)


def test_wrong_path_uop_rejected():
    """A wrong-path µop never reaches a recording: a trace source holds
    the correct path only, so ``ListTrace`` refuses the template."""
    uop = MicroOp(0, 0x1, OpClass.INT_ALU, srcs=[0], dst=1, wrong_path=True)
    with pytest.raises(ValueError, match="wrong-path") as refused:
        ListTrace([MicroOp(0, 0x0, OpClass.INT_ALU), uop])
    assert "\n" not in str(refused.value)


# ---------------------------------------------------------------------------
# File round-trips


def test_file_roundtrip(tmp_path):
    uops = _mixed_uops(500)
    path = tmp_path / "t.trc"
    info = capture(ListTrace(uops), path, 500, wp_seed=3,
                   provenance={"workload": "hand"},
                   frame_records=64)       # force multiple frames
    assert info.uop_count == 500
    assert [arch(u) for u in replay(path)] == [arch(u) for u in uops]
    assert verify(path)


def test_capture_stops_at_exhaustion(tmp_path):
    path = tmp_path / "t.trc"
    info = capture(ListTrace(_mixed_uops(20)), path, 1000, wp_seed=0)
    assert info.uop_count == 20
    assert len(replay(path)) == 20


def test_info_provenance_and_wp_seed(tmp_path):
    path = tmp_path / "t.trc"
    capture(ListTrace(_mixed_uops(10)), path, 10, wp_seed=77,
            provenance={"workload": "x", "is_fp": True})
    info = read_info(path)
    assert info.wp_seed == 77
    assert info.provenance == {"workload": "x", "is_fp": True}
    assert info.raw_bytes == 10 * RECORD.size


def test_digest_independent_of_framing(tmp_path):
    uops = _mixed_uops(200)
    a = capture(ListTrace(uops), tmp_path / "a.trc", 200, wp_seed=0)
    b = capture(ListTrace(uops), tmp_path / "b.trc", 200, wp_seed=0,
                frame_records=16)
    assert a.digest == b.digest
    assert a.file_bytes < a.raw_bytes         # zlib must actually help


# ---------------------------------------------------------------------------
# Corruption (header faults and truncation: tests/common/test_container.py)


def test_tampered_payload_fails_verify(tmp_path):
    path = tmp_path / "t.trc"
    capture(ListTrace(_mixed_uops(100)), path, 100, wp_seed=0)
    assert verify(path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF                           # flip payload bits
    path.write_bytes(bytes(raw))
    assert not verify(path)


# ---------------------------------------------------------------------------
# FileTrace replay semantics


def test_file_trace_assigns_no_state(tmp_path):
    path = tmp_path / "t.trc"
    uops = _mixed_uops(30)
    capture(ListTrace(uops), path, 30, wp_seed=0)
    trace = FileTrace(path)
    replayed = list(iterate(trace, 100))
    assert len(replayed) == 30
    assert trace.next_uop() is None           # exhausted, stays exhausted
    assert [arch(u) for u in replayed] == [arch(u) for u in uops]


def test_record_blocks_end_after_last_record(tmp_path):
    path = tmp_path / "t.trc"
    capture(ListTrace(_mixed_uops(10)), path, 10, wp_seed=0,
            frame_records=4)
    trace = FileTrace(path)
    sizes = []
    while (block := trace.next_record_block(3)) is not None:
        sizes.append(len(block))
    assert sum(sizes) == 10 and trace.emitted == 10
    assert trace.next_uop() is None


def test_flag_bits_beyond_taken_are_ignored(tmp_path):
    """Only flag bit 0 is the outcome: a flag byte with other bits set
    (a non-bool ``taken`` is packed as is) reads the same as a µop and
    in a block."""
    flags = (0, 1, 2, 3, 0xFE, 0xFF)
    uops = [MicroOp(0, 0x100 + 4 * i, OpClass.BRANCH, taken=flag,
                    target=0x800) for i, flag in enumerate(flags)]
    path = tmp_path / "t.trc"
    capture(ListTrace(uops), path, len(uops), wp_seed=0)
    assert [u.taken for u in replay(path)] == [bool(f & 1) for f in flags]
    block = FileTrace(path).next_record_block(len(uops))
    assert [bool(t) for t in block.takens] == [bool(f & 1) for f in flags]


def test_file_trace_wrong_path_matches_header_seed(tmp_path):
    from repro.isa.trace import WrongPathSynth

    path = tmp_path / "t.trc"
    capture(ListTrace(_mixed_uops(5)), path, 5, wp_seed=123)
    trace = FileTrace(path)
    synth = WrongPathSynth(123)
    for i in range(40):
        a, b = trace.wrong_path_uop(0, i), synth.synth(0, i)
        assert (a.srcs, a.dst, a.opclass) == (b.srcs, b.dst, b.opclass)
        assert a.wrong_path


# ---------------------------------------------------------------------------
# Restore seeks (frames before the cursor are stepped over by header)

SEEK_UOPS = 50                 # seven 7-record frames and a 1-record one


def _seek_recording(tmp_path):
    path = tmp_path / "seek.trc"
    capture(ListTrace(_mixed_uops(SEEK_UOPS)), path, SEEK_UOPS, wp_seed=5,
            frame_records=7)
    return path


def _restored(path, position):
    """A FileTrace restored to ``position``, and a from-zero reader that
    replayed ``position`` records to get there."""
    reference = FileTrace(path)
    for _ in range(position):
        reference.next_uop()
    restored = FileTrace(path)
    restored.load_state_dict(reference.state_dict())
    return restored, reference


def test_restore_seek_matches_skipping_from_zero(tmp_path):
    """Every cursor — 0, each frame boundary, mid-frame and the end —
    resumes exactly where a from-zero reader would, through both the
    per-µop and the record-block supply."""
    path = _seek_recording(tmp_path)
    follow = SEEK_UOPS + 9                # runs past the end
    for position in range(SEEK_UOPS + 1):
        restored, reference = _restored(path, position)
        expected = []
        for _ in range(follow):
            uop = reference.next_uop()
            if uop is None:
                break
            expected.append(uop)
        got = [restored.next_uop() for _ in range(len(expected))]
        assert [arch(u) for u in got] == [arch(u) for u in expected], \
            position
        assert restored.emitted == reference.emitted
        assert restored.next_uop() is None

        restored, _ = _restored(path, position)
        records = []
        while len(records) < len(expected):
            block = restored.next_record_block(
                min(5, len(expected) - len(records)))
            if block is None:
                break
            records.extend(zip(block.pcs, block.opclasses, block.mem_addrs,
                               block.takens, block.targets))
        assert records == [(u.pc, u.opclass, u.mem_addr, u.taken, u.target)
                           for u in expected], position
        assert restored.emitted == reference.emitted


def _frame_offsets(path):
    """File offset of every frame header in a recording."""
    data = path.read_bytes()
    _, _, _, _, _, meta_len, _ = HEADER.unpack_from(data)
    offset, offsets = HEADER.size + meta_len, []
    while offset < len(data):
        offsets.append(offset)
        _, stored_len = FRAME_HEADER.unpack_from(data, offset)
        offset += FRAME_HEADER.size + stored_len
    return offsets


def test_restore_past_truncation_raises(tmp_path):
    """A recording cut inside a frame the seek steps over must fail at
    restore, not end the stream early (opened before the cut, so the
    check at open does not catch it first)."""
    path = _seek_recording(tmp_path)
    _, reference = _restored(path, 40)
    state = reference.state_dict()
    trace = FileTrace(path)
    cut = _frame_offsets(path)[2] + FRAME_HEADER.size + 3
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(TraceFormatError, match="truncated"):
        trace.load_state_dict(state)
    with pytest.raises(TraceFormatError, match="truncated"):
        FileTrace(path)


def test_open_rejects_recording_cut_at_a_frame_boundary(tmp_path):
    """Frames holding fewer records than the header declares are refused
    when the recording is opened, before any µop is read."""
    path = _seek_recording(tmp_path)
    path.write_bytes(path.read_bytes()[:_frame_offsets(path)[3]])
    with pytest.raises(TraceFormatError,
                       match=f"holds 21 of the {SEEK_UOPS} records"):
        FileTrace(path)


def test_restore_rejects_skipped_frame_of_partial_records(tmp_path):
    path = _seek_recording(tmp_path)
    _, reference = _restored(path, 40)
    state = reference.state_dict()
    trace = FileTrace(path)
    data = bytearray(path.read_bytes())
    offset = _frame_offsets(path)[1]
    FRAME_HEADER.pack_into(data, offset, 7 * RECORD.size - 1,
                           7 * RECORD.size - 1)
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError, match="length mismatch"):
        trace.load_state_dict(state)
    with pytest.raises(TraceFormatError, match="length mismatch"):
        FileTrace(path)
