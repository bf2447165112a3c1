import pytest

from repro.workloads.spec import KernelSpec, WorkloadSpec
from repro.workloads.suite import DEFAULT_SUBSET, SUITE


class TestSuiteShape:
    def test_36_workloads(self):
        assert len(SUITE) == 36

    def test_int_fp_split_matches_table2(self):
        ints = sum(1 for s in SUITE.values() if not s.is_fp)
        fps = sum(1 for s in SUITE.values() if s.is_fp)
        assert ints == 18 and fps == 18

    def test_all_validate(self):
        for spec in SUITE.values():
            spec.validate()

    def test_expected_members(self):
        for name in ("gzip", "swim", "mcf", "libquantum", "xalancbmk",
                     "hmmer", "GemsFDTD", "omnetpp"):
            assert name in SUITE

    def test_subset_is_within_suite(self):
        assert set(DEFAULT_SUBSET) <= set(SUITE)
        assert len(DEFAULT_SUBSET) >= 10

    def test_descriptions_present(self):
        for spec in SUITE.values():
            assert spec.description


class TestTraceBuilding:
    def test_deterministic_across_builds(self):
        a = SUITE["gzip"].build_trace()
        b = SUITE["gzip"].build_trace()
        for _ in range(500):
            ua, ub = a.next_uop(), b.next_uop()
            assert (ua.pc, ua.opclass, ua.mem_addr, ua.taken) == \
                   (ub.pc, ub.opclass, ub.mem_addr, ub.taken)

    def test_seed_changes_stream(self):
        a = SUITE["gzip"].build_trace(seed=1)
        b = SUITE["gzip"].build_trace(seed=2)
        diffs = sum(a.next_uop().mem_addr != b.next_uop().mem_addr
                    for _ in range(500))
        assert diffs > 0

    def test_every_workload_generates(self):
        for name, spec in SUITE.items():
            trace = spec.build_trace()
            for _ in range(100):
                u = trace.next_uop()
                assert u is not None, name
                assert u.srcs is not None

    def test_address_regions_disjoint(self):
        trace = SUITE["swim"].build_trace()
        regions = set()
        for _ in range(2000):
            u = trace.next_uop()
            if u.is_mem:
                regions.add(u.mem_addr >> 26)
        assert len(regions) >= 2          # one region per kernel

    def test_wrong_path_uops_are_alu_on_reserved_regs(self):
        trace = SUITE["gzip"].build_trace()
        for i in range(50):
            wp = trace.wrong_path_uop(i, 0x999 + i)
            assert wp.wrong_path
            assert not wp.is_mem and not wp.is_branch
            assert set(wp.srcs) <= {0, 1}
            assert wp.dst in (0, 1)


class TestSpecValidation:
    def test_too_many_kernels_rejected(self):
        spec = WorkloadSpec(
            name="x",
            kernels=tuple(KernelSpec("compute") for _ in range(5)))
        with pytest.raises(ValueError):
            spec.validate()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", kernels=()).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", kernels=(KernelSpec("quantum"),)).validate()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", kernels=(
                KernelSpec("compute", weight=0),)).validate()


class TestBehaviouralClasses:
    """Key class properties the paper's discussion relies on (cheap runs)."""

    def _miss_rate(self, name):
        from repro.pipeline.sim import run_workload
        r = run_workload(name, "Baseline_0", warmup_uops=1500,
                         measure_uops=3000, banked=False)
        return r.stats.l1d_miss_rate, r.ipc

    def test_mcf_class(self):
        miss, ipc = self._miss_rate("mcf")
        assert miss > 0.5 and ipc < 0.3

    def test_libquantum_class(self):
        miss, ipc = self._miss_rate("libquantum")
        assert miss > 0.8

    def test_namd_class(self):
        miss, ipc = self._miss_rate("namd")
        assert ipc > 1.2

    def test_xalancbmk_class(self):
        miss, ipc = self._miss_rate("xalancbmk")
        assert miss > 0.25 and ipc > 0.6
