import random
from collections import namedtuple

import pytest

from repro.isa.opclass import BRANCH_OPS, MEMORY_OPS, OpClass
from repro.memory.banks import bank_of
from repro.workloads.kernels import (
    BankConflictKernel,
    BranchKernel,
    ComputeKernel,
    PointerChaseKernel,
    RandomLoadKernel,
    StoreLoadKernel,
    StreamKernel,
)


def make(cls, **params):
    return cls("k", pc_base=0x1000, reg_base=2, addr_base=1 << 26,
               rng=random.Random(42), **params)


#: Field names of a kernel row (the ``MicroOp`` arguments after ``seq``).
Row = namedtuple("Row", "pc opclass srcs dst mem_addr mem_size taken target")


def one_block(kernel):
    return [Row(*row) for row in kernel.next_block()]


def blocks(kernel, n):
    return [one_block(kernel) for _ in range(n)]


def is_load(u):
    return u.opclass == OpClass.LOAD


def is_store(u):
    return u.opclass == OpClass.STORE


def is_mem(u):
    return u.opclass in MEMORY_OPS


def is_branch(u):
    return u.opclass in BRANCH_OPS


class TestCommonProperties:
    @pytest.mark.parametrize("cls,params", [
        (StreamKernel, {}),
        (PointerChaseKernel, {"ws_lines": 1024}),
        (RandomLoadKernel, {"ws_lines": 1024}),
        (ComputeKernel, {}),
        (BankConflictKernel, {}),
        (BranchKernel, {}),
        (StoreLoadKernel, {}),
    ])
    def test_stable_pcs_across_iterations(self, cls, params):
        """Per-PC predictors need the same static µops every iteration."""
        k = make(cls, **params)
        a, b = blocks(k, 2)
        assert [u.pc for u in a] == [u.pc for u in b]
        assert [u.opclass for u in a] == [u.opclass for u in b]

    @pytest.mark.parametrize("cls,params", [
        (StreamKernel, {}),
        (RandomLoadKernel, {"ws_lines": 64}),
        (BankConflictKernel, {}),
    ])
    def test_pcs_within_region(self, cls, params):
        k = make(cls, **params)
        for block in blocks(k, 3):
            for u in block:
                assert 0x1000 <= u.pc < 0x2000

    def test_registers_within_window(self):
        k = make(StreamKernel)
        for block in blocks(k, 3):
            for u in block:
                for r in ([u.dst] if u.dst is not None else []) + u.srcs:
                    assert (2 <= r < 8) or (34 <= r < 40)


class TestStreamKernel:
    def test_addresses_stride_and_wrap(self):
        k = make(StreamKernel, stride=8, ws_lines=2, unroll=4)
        addrs = [u.mem_addr for b in blocks(k, 8) for u in b if is_load(u)]
        assert addrs[1] - addrs[0] == 8
        assert max(addrs) < (1 << 26) + 2 * 64
        assert len(set(addrs)) <= 16      # wrapped around the tiny set

    def test_serial_acc_chains_through_accumulator(self):
        k = make(StreamKernel, serial_acc=True)
        block = one_block(k)
        adds = [u for u in block if u.opclass == OpClass.INT_ALU
                and not is_branch(u)]
        assert all(u.dst in u.srcs for u in adds)


class TestPointerChase:
    def test_loads_serially_dependent(self):
        k = make(PointerChaseKernel, ws_lines=256)
        block = one_block(k)
        chase = [u for u in block if is_load(u)][0]
        assert chase.srcs == [chase.dst]

    def test_addresses_cover_working_set(self):
        k = make(PointerChaseKernel, ws_lines=64)
        addrs = {u.mem_addr for b in blocks(k, 200) for u in b if is_load(u)}
        assert len(addrs) > 16


class TestRandomLoad:
    def test_indirect_creates_two_level_chain(self):
        k = make(RandomLoadKernel, ws_lines=256, loads=2, indirect=True)
        block = one_block(k)
        loads = [u for u in block if is_load(u)]
        assert len(loads) == 4            # index + data per access
        idx, data = loads[0], loads[1]
        assert data.srcs == [idx.dst]

    def test_direct_mode_single_level(self):
        k = make(RandomLoadKernel, ws_lines=256, loads=2, indirect=False)
        loads = [u for u in one_block(k) if is_load(u)]
        assert len(loads) == 2


class TestBankConflictKernel:
    def test_pairs_share_bank_but_not_set(self):
        k = make(BankConflictKernel, unroll=2, ws_lines=64)
        loads = [u for u in one_block(k) if is_load(u)]
        assert len(loads) == 4
        for a, b in zip(loads[::2], loads[1::2]):
            assert bank_of(a.mem_addr, 8) == bank_of(b.mem_addr, 8)
            assert (a.mem_addr >> 6) != (b.mem_addr >> 6)

    def test_banks_rotate_across_pairs(self):
        k = make(BankConflictKernel, unroll=2, ws_lines=64)
        banks = set()
        for block in blocks(k, 8):
            loads = [u for u in block if is_load(u)]
            banks.update(bank_of(u.mem_addr, 8) for u in loads)
        assert len(banks) == 8


class TestBranchKernel:
    def test_noise_zero_is_pure_pattern(self):
        k = make(BranchKernel, branches=1, period=4, noise=0.0)
        outcomes = [u.taken for b in blocks(k, 32) for u in b if is_branch(u)]
        expected = [(i % 4) != 0 for i in range(32)]
        assert outcomes == expected

    def test_noise_one_inverts_pattern(self):
        k = make(BranchKernel, branches=1, period=4, noise=1.0)
        outcomes = [u.taken for b in blocks(k, 16) for u in b if is_branch(u)]
        expected = [not ((i % 4) != 0) for i in range(16)]
        assert outcomes == expected


class TestStoreLoadKernel:
    def test_alias_probability_one_always_pairs(self):
        k = make(StoreLoadKernel, pairs=1, alias_prob=1.0)
        for block in blocks(k, 10):
            st = next(u for u in block if is_store(u))
            ld = next(u for u in block if is_load(u))
            assert st.mem_addr == ld.mem_addr

    def test_store_data_off_a_chain(self):
        k = make(StoreLoadKernel, pairs=1, chain=3)
        block = one_block(k)
        st = next(u for u in block if is_store(u))
        chain = [u for u in block if not is_mem(u) and not is_branch(u)]
        assert st.srcs[1] == chain[-1].dst
