"""Run manifests: build/write/read round trip, rollup, engine wiring."""

from __future__ import annotations

import json

from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    cell_key,
    cell_payload,
    run_cells,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifests_dir,
    peak_rss_kb,
    read_manifests,
    render_rollup,
    rollup,
    write_manifest,
)
from repro.traces.registry import resolve_workload
from repro.workloads.suite import SUITE

VOLUMES = dict(warmup_uops=200, measure_uops=600,
               functional_warmup_uops=1_000, seed=1)


def _payload(workload="gzip", preset="Baseline_0"):
    return cell_payload(preset, SUITE[workload], banked=False,
                        **VOLUMES)


def test_build_manifest_captures_the_cell_identity():
    payload = _payload()
    key = cell_key(payload)
    record = build_manifest(payload, key, cached=False, wall_seconds=1.25,
                            peak_rss_kb=4_096, jobs=2)
    assert record["schema"] == MANIFEST_SCHEMA
    assert record["key"] == key
    assert record["config"] == "Baseline_0"
    assert record["workload"] == "gzip"
    assert record["workload_kind"] == "spec"
    assert record["measure_uops"] == VOLUMES["measure_uops"]
    assert record["cached"] is False
    assert record["wall_seconds"] == 1.25
    assert record["peak_rss_kb"] == 4_096
    assert record["jobs"] == 2
    assert "checkpoint_digest" not in record
    assert "sampling_interval" not in record
    json.dumps(record)                   # must be JSON-able as-is


def test_write_and_read_round_trip(tmp_path):
    payload = _payload()
    record = build_manifest(payload, cell_key(payload), cached=True,
                            wall_seconds=0.0)
    path = write_manifest(tmp_path, record)
    assert path.name == f"{record['key']}.json"
    assert read_manifests(tmp_path) == [record]


def test_rewriting_a_key_overwrites_in_place(tmp_path):
    payload = _payload()
    key = cell_key(payload)
    write_manifest(tmp_path, build_manifest(
        payload, key, cached=False, wall_seconds=2.0))
    write_manifest(tmp_path, build_manifest(
        payload, key, cached=True, wall_seconds=0.0))
    records = read_manifests(tmp_path)
    assert len(records) == 1
    assert records[0]["cached"] is True


def test_read_manifests_skips_foreign_files(tmp_path):
    (tmp_path / "junk.json").write_text("not json")
    (tmp_path / "foreign.json").write_text('{"schema": 999}')
    payload = _payload()
    write_manifest(tmp_path, build_manifest(
        payload, cell_key(payload), cached=False, wall_seconds=1.0))
    assert len(read_manifests(tmp_path)) == 1
    assert read_manifests(tmp_path / "does-not-exist") == []


def test_rollup_splits_simulated_and_cached():
    payloads = [_payload("gzip"), _payload("mcf"),
                _payload("gzip", "SpecSched_4")]
    records = [
        build_manifest(payloads[0], "k0", cached=False, wall_seconds=2.0,
                       peak_rss_kb=100),
        build_manifest(payloads[1], "k1", cached=True, wall_seconds=0.0,
                       peak_rss_kb=50),
        build_manifest(payloads[2], "k2", cached=False, wall_seconds=3.0,
                       peak_rss_kb=200),
    ]
    summary = rollup(records)
    assert summary["total"] == {
        "cells": 3, "cached": 1, "simulated": 2,
        "wall_seconds": 5.0, "peak_rss_kb": 200}
    assert summary["by_config"]["Baseline_0"]["cells"] == 2
    assert summary["by_config"]["SpecSched_4"]["wall_seconds"] == 3.0
    assert summary["by_workload"]["gzip"]["simulated"] == 2
    # Cached cells contribute no wall time: the table reports real work.
    assert summary["by_workload"]["mcf"]["wall_seconds"] == 0.0
    text = render_rollup(summary)
    assert "cells: 3" in text
    assert "Baseline_0" in text
    assert "by workload:" in text


def test_rollup_names_each_rv32i_program():
    names = ("ptr-chase", "dhry-mix", "gzip")
    records = [
        build_manifest(cell_payload("Baseline_0", resolve_workload(name),
                                    banked=False, **VOLUMES),
                       f"k{i}", cached=False, wall_seconds=1.0)
        for i, name in enumerate(names)]
    assert [r["workload_kind"] for r in records] == ["rv32i", "rv32i",
                                                     "spec"]
    by_workload = rollup(records)["by_workload"]
    assert sorted(by_workload) == sorted(names)
    assert all(row["cells"] == 1 for row in by_workload.values())


def test_manifests_dir_follows_the_cache():
    assert manifests_dir(None) is None
    assert manifests_dir("/tmp/cache").name == "manifests"


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_kb() > 0


# ---------------------------------------------------------------------------
# Engine wiring


def test_run_cells_writes_manifests_and_marks_cache_hits(tmp_path):
    cache_dir = tmp_path / "cache"
    payloads = [_payload("gzip"), _payload("mcf")]
    progress_seen = []

    def progress(done, total, manifest):
        progress_seen.append((done, total, manifest["workload"]))

    run_cells(payloads, options=EngineOptions(jobs=1),
              cache=ResultCache(cache_dir), progress=progress)
    records = {r["workload"]: r for r in
               read_manifests(manifests_dir(cache_dir))}
    assert set(records) == {"gzip", "mcf"}
    assert all(not r["cached"] for r in records.values())
    assert all(r["wall_seconds"] > 0 for r in records.values())
    assert [p[:2] for p in progress_seen] == [(1, 2), (2, 2)]

    # Second run: all hits, manifests overwritten as cached.
    run_cells(payloads, options=EngineOptions(jobs=1),
              cache=ResultCache(cache_dir))
    records = read_manifests(manifests_dir(cache_dir))
    assert len(records) == 2
    assert all(r["cached"] for r in records)
    assert all(r["wall_seconds"] == 0.0 for r in records)


def test_run_cells_without_disk_cache_skips_manifests(tmp_path):
    stats = run_cells([_payload("gzip")], options=EngineOptions(jobs=1),
                      cache=ResultCache(None))
    assert stats[0].committed_uops > 0
    assert not list(tmp_path.iterdir())   # nothing written anywhere here
