"""Small-scale checks of the paper's qualitative results.

Each check runs at small volumes on a workload where the paper states
the effect; the grids come from the figure registry
(:mod:`repro.experiments.figures`). EXPERIMENTS.md records the
paper-vs-measured numbers at default volumes.
"""

import pytest

from repro.core.presets import make_config
from repro.experiments.engine import EngineOptions
from repro.experiments.figures import run_figure
from repro.experiments.runner import Settings
from repro.pipeline.sim import run_workload

SMALL = dict(warmup_uops=1000, measure_uops=4000, functional_warmup_uops=30000)


def _figure(key, *workloads):
    # Class-scoped fixtures call this before the autouse fixture that
    # disables the persistent result cache, so disable it here too.
    return run_figure(key, Settings(workloads=workloads, **SMALL),
                      EngineOptions(cache_dir="off"))


@pytest.fixture(scope="module")
def xalanc_runs():
    return {
        name: run_workload("xalancbmk", name, banked=True, **SMALL)
        for name in ("Baseline_4", "SpecSched_4", "SpecSched_4_Crit")
    }


class TestXalancStory:
    """The paper's motivating workload: high IPC x high miss rate."""

    def test_always_hit_loses_to_conservative(self, xalanc_runs):
        # Section 4.3: xalancbmk is the one workload where replays make
        # Always-Hit speculation a net loss.
        assert xalanc_runs["SpecSched_4"].ipc < \
            xalanc_runs["Baseline_4"].ipc

    def test_crit_recovers(self, xalanc_runs):
        assert xalanc_runs["SpecSched_4_Crit"].ipc > \
            xalanc_runs["SpecSched_4"].ipc

    def test_crit_removes_most_replays(self, xalanc_runs):
        assert xalanc_runs["SpecSched_4_Crit"].stats.replayed_total < \
            0.2 * xalanc_runs["SpecSched_4"].stats.replayed_total


class TestGzipStory:
    """Pointer-chasing INT code: the Figure-3 effect and its recovery."""

    def test_conservative_scheduling_costs(self):
        fast = run_workload("gzip", "Baseline_0", banked=False, **SMALL)
        slow = run_workload("gzip", "Baseline_4", banked=False, **SMALL)
        assert slow.ipc < fast.ipc * 0.92

    def test_speculation_recovers_most(self):
        conservative = run_workload("gzip", "Baseline_4", banked=False,
                                    **SMALL)
        speculative = run_workload("gzip", "SpecSched_4", banked=False,
                                   **SMALL)
        assert speculative.ipc > conservative.ipc * 1.05


class TestLibquantumStory:
    """Always-missing streamer: filtering removes nearly all replays."""

    def test_filter_eliminates_replays(self):
        base = run_workload("libquantum", "SpecSched_4", banked=True, **SMALL)
        filt = run_workload("libquantum", "SpecSched_4_Filter",
                            banked=True, **SMALL)
        assert base.stats.replayed_miss > 1000
        assert filt.stats.replayed_miss < 0.05 * base.stats.replayed_miss

    def test_performance_unharmed(self):
        base = run_workload("libquantum", "SpecSched_4", banked=True, **SMALL)
        filt = run_workload("libquantum", "SpecSched_4_Filter",
                            banked=True, **SMALL)
        assert filt.ipc > base.ipc * 0.95


class TestSwimStory:
    """Bank-conflict-heavy FP streams: shifting recovers the banking loss."""

    def test_shifting_recovers_banking_loss(self):
        dual = run_workload("swim", "SpecSched_4", banked=False, **SMALL)
        banked = run_workload("swim", "SpecSched_4", banked=True, **SMALL)
        shifted = run_workload("swim", "SpecSched_4_Shift", banked=True,
                               **SMALL)
        assert banked.ipc < dual.ipc            # banking costs
        assert shifted.ipc > banked.ipc         # shifting recovers
        gap = dual.ipc - banked.ipc
        recovered = shifted.ipc - banked.ipc
        assert recovered > 0.5 * gap            # paper: 2.8 of 4.7 points
        # Figure 5: -74.8% bank-conflict replays.
        assert shifted.stats.replayed_bank < 0.5 * banked.stats.replayed_bank


class TestFigure3:
    """Conservative scheduling: IPC falls with the issue-to-execute delay
    (gzip's load chains) and one load port per cycle costs IPC (swim's
    load-port-bound FP streams)."""

    @pytest.fixture(scope="class")
    def result(self):
        return _figure("3", "gzip", "swim")

    def test_decline_with_delay_is_monotone(self, result):
        for workload in ("gzip", "swim"):
            ratios = [result.ipc_ratio(f"Baseline_{delay}")[workload]
                      for delay in (0, 2, 4, 6)]
            assert ratios == sorted(ratios, reverse=True), workload

    def test_one_load_port_costs_ipc(self, result):
        one_port = "Baseline_0, 1 load/cycle"
        assert result.ipc_ratio(one_port)["swim"] < 0.9
        assert result.gmean_ipc_ratio(one_port) < 1.0


class TestFigure4:
    """Speculative scheduling on xalancbmk, which both misses and
    bank-conflicts."""

    @pytest.fixture(scope="class")
    def result(self):
        return _figure("4", "xalancbmk")

    def test_banked_replays_for_both_causes(self, result):
        miss, bank = result.total_replays("SpecSched_4 (banked)")
        assert miss > 0 and bank > 0

    def test_replays_grow_with_delay(self, result):
        totals = [sum(result.total_replays(f"SpecSched_{delay} (banked)"))
                  for delay in (2, 4, 6)]
        assert totals == sorted(totals) and totals[0] < totals[-1]

    def test_dual_ported_never_bank_replays(self, result):
        for delay in (2, 4, 6):
            assert result.total_replays(f"SpecSched_{delay} (dual)")[1] == 0


class TestFigure7:
    """Hit/miss filtering on xalancbmk, a high-IPC, high-miss workload."""

    @pytest.fixture(scope="class")
    def result(self):
        return _figure("7", "xalancbmk")

    def test_counter_alone_cuts_miss_replays(self, result):
        assert result.replay_reduction(
            "SpecSched_4_Ctr", "SpecSched_4", "miss") > 0.3

    def test_performance_near_neutral_or_better(self, result):
        assert result.speedup_over("SpecSched_4_Ctr", "SpecSched_4") > 0.9
        assert result.speedup_over("SpecSched_4_Filter", "SpecSched_4") > 0.95


class TestFigure8:
    """The combined mechanisms and criticality gating on xalancbmk; the
    Crit row carries the abstract's headline numbers."""

    @pytest.fixture(scope="class")
    def result(self):
        return _figure("8", "xalancbmk")

    def test_crit_removes_more_replays_than_combined(self, result):
        crit = result.replay_reduction("SpecSched_4_Crit", "SpecSched_4",
                                       "total")
        combined = result.replay_reduction("SpecSched_4_Combined",
                                           "SpecSched_4", "total")
        assert crit > 0.7 and crit > combined > 0.4

    def test_crit_avoids_both_replay_causes(self, result):
        for kind in ("miss", "bank"):
            assert result.replay_reduction(
                "SpecSched_4_Crit", "SpecSched_4", kind) > 0.5, kind

    def test_crit_issues_fewer_uops(self, result):
        assert result.issued_reduction("SpecSched_4_Crit",
                                       "SpecSched_4") > 0.05

    def test_performance_kept(self, result):
        for label in ("SpecSched_4_Combined", "SpecSched_4_Crit"):
            assert result.speedup_over(label, "SpecSched_4") > 0.98, label


class TestDelaySweep:
    """Section 5.3: about 90% fewer replays at D=2 and D=6, and 11.2% vs
    18.7% fewer issued µops, so the reduction grows with the delay."""

    @pytest.fixture(scope="class")
    def result(self):
        return _figure("delay", "xalancbmk")

    def test_crit_removes_most_replays_at_both_delays(self, result):
        for delay in (2, 6):
            crit, plain = f"SpecSched_{delay}_Crit", f"SpecSched_{delay}"
            assert result.replay_reduction(crit, plain, "total") > 0.6
            assert result.speedup_over(crit, plain) > 0.97

    def test_issued_reduction_grows_with_delay(self, result):
        assert result.issued_reduction("SpecSched_6_Crit", "SpecSched_6") > \
            result.issued_reduction("SpecSched_2_Crit", "SpecSched_2") > 0


class TestSilenceBitAblation:
    """Section 5.2: the filter's silence bit beats plain per-entry
    counters. art's loads change behaviour, which plain counters keep
    mispredicting."""

    def test_silence_bit_beats_plain_counters(self):
        config = make_config("SpecSched_4_Filter", banked=True)
        silence = run_workload("art", config, **SMALL)
        plain = run_workload(
            "art", config.with_sched(filter_silence_bit=False), **SMALL)
        assert silence.ipc > plain.ipc
        assert silence.stats.replayed_total < plain.stats.replayed_total
