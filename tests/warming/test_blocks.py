"""Block supply: record blocks, decoded batches and the array views."""

from __future__ import annotations

from repro.traces.format import FileTrace
from repro.traces.registry import resolve_workload

from tests.warming.conftest import list_trace, random_uops


def drain_fields(trace):
    """(pc, mem_addr, target, opclass, taken) per µop via next_uop."""
    out = []
    while True:
        uop = trace.next_uop()
        if uop is None:
            return out
        out.append((uop.pc, uop.mem_addr, uop.target, int(uop.opclass),
                    uop.taken))


class TestRecordBlocks:
    def test_matches_next_uop(self, recorded_trace):
        reference = drain_fields(FileTrace(recorded_trace))
        replay = FileTrace(recorded_trace)
        got = []
        while True:
            records = replay.next_record_block(1000)
            if records is None:
                break
            for rec in records:
                got.append((int(rec["pc"]), int(rec["mem_addr"]),
                            int(rec["target"]), int(rec["opclass"]),
                            bool(rec["flags"] & 1)))
        assert got == reference

    def test_mixed_consumption_preserves_stream(self, recorded_trace):
        reference = drain_fields(FileTrace(recorded_trace))
        replay = FileTrace(recorded_trace)
        got = []
        records = replay.next_record_block(137)
        assert len(records) == 137
        got.extend((int(r["pc"]), int(r["mem_addr"]), int(r["target"]),
                    int(r["opclass"]), bool(r["flags"] & 1))
                   for r in records)
        for _ in range(3):                  # switch to per-µop decode
            uop = replay.next_uop()
            got.append((uop.pc, uop.mem_addr, uop.target, int(uop.opclass),
                        uop.taken))
        while True:                         # record supply, with the
            records = replay.next_record_block(512)   # decoded fallback
            if records is not None:
                got.extend((int(r["pc"]), int(r["mem_addr"]),
                            int(r["target"]), int(r["opclass"]),
                            bool(r["flags"] & 1)) for r in records)
                continue
            batch = replay.next_block(512)
            if not batch:
                break
            got.extend((u.pc, u.mem_addr, u.target, int(u.opclass),
                        u.taken) for u in batch)
        assert got == reference

    def test_exhaustion_returns_none(self, recorded_trace):
        replay = FileTrace(recorded_trace)
        total = 0
        while True:
            records = replay.next_record_block(4096)
            if records is None:
                break
            total += len(records)
        assert total == replay.info.uop_count
        assert replay.next_record_block(10) is None

    def test_replayed_counter_advances(self, recorded_trace):
        replay = FileTrace(recorded_trace)
        replay.next_record_block(500)
        state = replay.state_dict()
        fresh = FileTrace(recorded_trace)
        fresh.load_state_dict(state)
        assert drain_fields(fresh) == drain_fields(FileTrace(
            recorded_trace))[500:]

    def test_zero_request(self, recorded_trace):
        assert FileTrace(recorded_trace).next_record_block(0) is None


class TestNextBlock:
    def test_workload_trace_matches_next_uop(self):
        reference_trace = resolve_workload("gzip").build_trace(5)
        reference = [(u.pc, u.mem_addr, u.target, int(u.opclass), u.taken)
                     for u in (reference_trace.next_uop()
                               for _ in range(5000))]
        blocked = resolve_workload("gzip").build_trace(5)
        got = []
        while len(got) < 5000:
            batch = blocked.next_block(977)
            got.extend((u.pc, u.mem_addr, u.target, int(u.opclass), u.taken)
                       for u in batch)
        assert got[:5000] == reference

    def test_list_trace_base_implementation(self):
        trace = list_trace(23, 250)
        first = trace.next_block(100)
        rest = trace.next_block(1000)
        assert len(first) == 100 and len(rest) == 150
        assert trace.next_block(10) == []

    def test_state_round_trip_mid_block(self):
        trace = resolve_workload("mcf").build_trace(9)
        trace.next_block(777)
        state = trace.state_dict()
        expected = [u.pc for u in trace.next_block(500)]
        resumed = resolve_workload("mcf").build_trace(9)
        resumed.load_state_dict(state)
        assert [u.pc for u in resumed.next_block(500)] == expected


class TestUopBlock:
    def test_from_uops_fields(self):
        from repro.pipeline.warming.blocks import UopBlock

        uops = random_uops(31, 400)
        block = UopBlock.from_uops(uops)
        assert block.size == 400
        assert block.pc.tolist() == [u.pc for u in uops]
        assert block.addr.tolist() == [u.mem_addr for u in uops]
        assert block.target.tolist() == [u.target for u in uops]
        assert block.opclass.tolist() == [int(u.opclass) for u in uops]
        assert block.taken.tolist() == [u.taken for u in uops]

    def test_kind_masks_match_uop_flags(self):
        from repro.pipeline.warming.blocks import (
            IS_BRANCH,
            IS_CALL_OR_RET,
            IS_LOAD,
            IS_MEM,
        )
        from repro.isa.opclass import OpClass

        for uop in random_uops(37, 300):
            assert IS_MEM[int(uop.opclass)] == uop.is_mem
            assert IS_LOAD[int(uop.opclass)] == uop.is_load
            assert IS_BRANCH[int(uop.opclass)] == uop.is_branch
            assert IS_CALL_OR_RET[int(uop.opclass)] == (
                uop.opclass in (OpClass.CALL, OpClass.RET))
