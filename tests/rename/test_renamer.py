import pytest

from repro.common.config import CoreConfig
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp
from repro.rename.rat import RegisterAliasTable
from repro.rename.rename import FP_REG_BASE, NUM_ARCH_REGS, RegisterRenamer


def op(srcs, dst):
    return MicroOp(0, 0x10, OpClass.INT_ALU, srcs=srcs, dst=dst)


class TestRat:
    def test_set_returns_previous(self):
        rat = RegisterAliasTable(4)
        assert rat.set(1, 100) == -1
        assert rat.set(1, 200) == 100
        assert rat.lookup(1) == 200

    def test_lookup_unmapped_raises(self):
        with pytest.raises(KeyError):
            RegisterAliasTable(4).lookup(2)

    def test_restore(self):
        rat = RegisterAliasTable(4)
        rat.set(1, 100)
        prev = rat.set(1, 200)
        rat.restore(1, prev)
        assert rat.lookup(1) == 100


class TestRenamer:
    def test_initial_mappings_cover_all_arch_regs(self):
        r = RegisterRenamer()
        for arch in range(NUM_ARCH_REGS):
            assert r.rat.lookup(arch) >= 0

    def test_rename_allocates_and_links(self):
        r = RegisterRenamer()
        u = op([2, 3], 4)
        old = r.rat.lookup(4)
        r.rename(u)
        assert u.psrcs == [2, 3]          # initial identity mappings
        assert u.pdst != old
        assert u.prev_pdst == old
        assert r.rat.lookup(4) == u.pdst

    def test_fp_regs_use_fp_pool(self):
        r = RegisterRenamer()
        u = op([FP_REG_BASE], FP_REG_BASE + 1)
        r.rename(u)
        assert u.pdst >= CoreConfig().int_prf    # FP pool is above the INT file

    def test_dependency_chain_through_rat(self):
        r = RegisterRenamer()
        a = op([2], 5)
        b = op([5], 6)
        r.rename(a)
        r.rename(b)
        assert b.psrcs == [a.pdst]

    def test_commit_frees_previous_mapping(self):
        r = RegisterRenamer()
        free_before = len(r.int_free)
        a = op([2], 5)
        r.rename(a)
        assert len(r.int_free) == free_before - 1
        r.commit(a)
        assert len(r.int_free) == free_before   # prev mapping recycled

    def test_rollback_restores_rat_and_freelist(self):
        r = RegisterRenamer()
        snapshot = r.rat.snapshot()
        free_before = r.free_counts()
        uops = [op([2], 5), op([5], 5), op([5], 6)]
        for u in uops:
            r.rename(u)
        r.rollback(list(reversed(uops)))   # youngest first
        assert r.rat.snapshot() == snapshot
        assert r.free_counts() == free_before

    def test_int_pool_drains_independently_of_fp(self):
        core = CoreConfig()
        r = RegisterRenamer(core)
        fp_before = len(r.fp_free)
        for _ in range(len(r.int_free)):
            r.rename(op([2], 5))
        assert r.int_free.empty
        assert len(r.fp_free) == fp_before   # FP pool unaffected
        r.rename(op([2], None))              # no dst: needs no register
        r.rename(op([2], FP_REG_BASE))
        assert len(r.fp_free) == fp_before - 1

    def test_restore_refuses_an_unmapped_register(self):
        r = RegisterRenamer()
        state = r.state_dict()
        state["rat"]["map"][3] = -1
        with pytest.raises(KeyError, match="register 3 never mapped"):
            RegisterRenamer().load_state_dict(state)

    def test_no_dst_rename(self):
        r = RegisterRenamer()
        u = op([2, 3], None)
        r.rename(u)
        assert u.pdst == -1 and u.prev_pdst == -1
