"""Experiment harness tests (tiny simulation volumes)."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments.engine import EngineOptions
from repro.experiments.figures import BASELINE, FIGURES, run_figure
from repro.experiments.report import (
    SUMMARY_METRICS,
    breakdown_table,
    format_table,
    performance_table,
    summary_line,
)
from repro.experiments.engine import Sweep
from repro.experiments.runner import Settings, _CACHE, run_sweep
from repro.experiments.tables import render_table1, render_table2, table2

TINY = Settings(workloads=("gzip", "swim"), warmup_uops=500,
                measure_uops=1500, functional_warmup_uops=5000)
# The module fixture runs before the autouse fixture that disables the
# persistent result cache, so keep the figure runs off it explicitly.
NO_DISK = EngineOptions(cache_dir="off")


@pytest.fixture(scope="module")
def fig5_result():
    return run_figure("5", TINY, NO_DISK)


class TestRunner:
    def test_grid_populated(self, fig5_result):
        assert set(fig5_result.labels()) == {
            "Baseline_0", "SpecSched_4", "SpecSched_4_Shift"}
        for label in fig5_result.labels():
            for wl in ("gzip", "swim"):
                assert fig5_result.get(label, wl).cycles > 0

    def test_baseline_ratio_is_unity(self, fig5_result):
        ratios = fig5_result.ipc_ratio("Baseline_0")
        assert all(r == pytest.approx(1.0) for r in ratios.values())

    def test_gmean_in_plausible_band(self, fig5_result):
        g = fig5_result.gmean_ipc_ratio("SpecSched_4")
        assert 0.3 < g <= 1.3

    def test_breakdown_fields(self, fig5_result):
        b = fig5_result.breakdown("SpecSched_4")
        for wl in ("gzip", "swim"):
            row = b[wl]
            assert set(row) == {"unique", "rpld_miss", "rpld_bank", "total"}
            assert row["total"] >= row["unique"] > 0

    def test_replay_reduction_kinds(self, fig5_result):
        for kind in ("total", "miss", "bank"):
            red = fig5_result.replay_reduction(
                "SpecSched_4_Shift", "SpecSched_4", kind)
            assert -2.0 <= red <= 1.0

    def test_cache_hit_on_second_run(self):
        before = len(_CACHE)
        run_figure("5", TINY, NO_DISK)
        assert len(_CACHE) == before     # everything memoized

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(Sweep(name="x", baseline=BASELINE.label,
                            series=(BASELINE, BASELINE)), TINY)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(Sweep(name="x", baseline="nope", series=(BASELINE,)),
                      TINY)


class TestSettings:
    def test_from_env_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "subset")
        s = Settings.from_env()
        assert len(s.workloads) >= 10

    def test_from_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "full")
        assert len(Settings.from_env().workloads) == 36

    def test_from_env_explicit_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "gzip, mcf")
        assert Settings.from_env().workloads == ("gzip", "mcf")

    def test_from_env_typo_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "gzipp")
        with pytest.raises(KeyError):
            Settings.from_env()

    def test_volume_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "123")
        monkeypatch.setenv("REPRO_MEASURE", "456")
        s = Settings.from_env()
        assert s.warmup_uops == 123 and s.measure_uops == 456


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [["xx", "1"], ["y", "22"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1    # rectangular

    def test_performance_table_has_gmean_row(self, fig5_result):
        text = performance_table(fig5_result)
        assert "gmean" in text and "SpecSched_4_Shift" in text

    def test_breakdown_table_columns(self, fig5_result):
        text = breakdown_table(fig5_result, "SpecSched_4")
        assert "RpldMiss" in text and "RpldBank" in text and "Unique" in text

    def test_summary_line(self, fig5_result):
        line = summary_line(fig5_result, "SpecSched_4_Shift", "SpecSched_4")
        assert "speedup" in line and "bank" in line
        assert "[paper" not in line

    def test_summary_line_paper_values(self, fig5_result):
        plain = summary_line(fig5_result, "SpecSched_4_Shift", "SpecSched_4")
        line = summary_line(fig5_result, "SpecSched_4_Shift", "SpecSched_4",
                            {"speedup": 0.029, "bank": 0.748})
        assert "[paper +2.9%]," in line and "[paper -74.8%])" in line
        # Only the paper annotations are added.
        assert line.replace(" [paper +2.9%]", "").replace(
            " [paper -74.8%]", "") == plain


class TestTables:
    def test_table1_mentions_key_structures(self):
        text = render_table1()
        assert "192-entry ROB" in text
        assert "60-entry IQ" in text
        assert "32KB" in text
        assert "75" in text           # DRAM min latency

    def test_table2_runs(self):
        data = table2(TINY)
        assert set(data) == {"gzip", "swim"}
        assert data["swim"]["fp"] is True
        assert data["gzip"]["ipc"] > 0

    def test_render_table2(self):
        text = render_table2(TINY)
        assert "gzip" in text and "swim" in text and "IPC" in text


def _figure_choices():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    figure = commands.choices["figure"]
    return next(action for action in figure._actions
                if action.dest == "number").choices


class TestFigureRegistry:
    """The registry is self-consistent; none of these simulate."""

    @pytest.mark.parametrize("key", sorted(FIGURES))
    def test_summary_rows_name_sweep_series(self, key):
        figure = FIGURES[key]
        labels = {series.label for series in figure.sweep.series}
        for summary in figure.summaries:
            assert summary.label in labels
            assert summary.reference in labels | {None}

    @pytest.mark.parametrize("key", sorted(FIGURES))
    def test_paper_keys_are_summary_metrics(self, key):
        for summary in FIGURES[key].summaries:
            assert set(summary.paper) <= set(SUMMARY_METRICS)
            assert not summary.paper or summary.reference

    def test_cli_choices_are_registry_keys(self):
        assert set(_figure_choices()) == set(FIGURES)

    def test_unknown_figure_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "9"])
        assert excinfo.value.code == 2
        assert "invalid choice: '9'" in capsys.readouterr().err

    def test_fig8_summary_lines_carry_paper_values(self):
        result = run_figure("8", TINY, NO_DISK)
        for summary in FIGURES["8"].summaries:
            line = summary_line(result, summary.label, summary.reference,
                                summary.paper)
            assert line.count("[paper ") == len(summary.paper)
        # The Crit row states all five of the abstract's numbers.
        crit = FIGURES["8"].summaries[-1]
        assert crit.label == "SpecSched_4_Crit"
        assert set(crit.paper) == set(SUMMARY_METRICS)
