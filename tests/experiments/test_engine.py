"""Engine tests: cell dispatch, persistent cache, determinism, sweeps.

Determinism is the load-bearing property here: the same cell must yield
bit-identical counters whether simulated inline, in a pool worker, or
loaded back from the persistent cache — otherwise figures would depend on
``REPRO_JOBS`` and cache state.
"""

import io
import json
import os

import pytest

from repro.common.stats import SimStats
from repro.experiments.engine import (
    CACHE_SCHEMA,
    EngineOptions,
    ResultCache,
    Sweep,
    SweepSeries,
    cell_key,
    cell_payload,
    code_version,
    payload_identity,
    run_cells,
    simulate_payload,
)
from repro.experiments.runner import Settings, run_sweep
from repro.workloads.suite import SUITE

TINY = Settings(workloads=("gzip", "swim"), warmup_uops=500,
                measure_uops=1500, functional_warmup_uops=5000)

GRID = (
    SweepSeries("Baseline_0", "Baseline_0", banked=False),
    SweepSeries("SpecSched_4", "SpecSched_4", banked=True),
)
GRID_SWEEP = Sweep(name="grid", baseline="Baseline_0", series=GRID)

GRID4 = Settings(workloads=("gzip", "swim", "mcf", "art"), warmup_uops=500,
                 measure_uops=1500, functional_warmup_uops=5000)


def _payload(workload="gzip", preset="SpecSched_4", **overrides):
    volumes = dict(warmup_uops=500, measure_uops=1500,
                   functional_warmup_uops=5000, seed=1)
    volumes.update(overrides)
    return cell_payload(preset, SUITE[workload], **volumes)


class TestResultCache:
    def test_miss_then_memory_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("aa" * 32) is None
        stats = SimStats(cycles=10, committed_uops=20)
        cache.put("aa" * 32, stats)
        hit = cache.get("aa" * 32)
        assert hit.to_dict() == stats.to_dict()
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        stats = SimStats(cycles=7, committed_uops=13)
        stats.bump("adhoc", 3)
        ResultCache(tmp_path).put("bb" * 32, stats, {"why": "test"})
        fresh = ResultCache(tmp_path)          # new memory, same disk
        hit = fresh.get("bb" * 32)
        assert hit is not None and hit.to_dict() == stats.to_dict()
        assert fresh.disk_hits == 1 and fresh.misses == 0

    def test_entries_are_sharded_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_key(_payload())
        cache.put(key, SimStats(cycles=1), _payload())
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.exists()
        entry = json.loads(path.read_text())
        assert entry["key"] == key
        assert entry["payload"]["seed"] == 1

    def test_entry_bytes_match_the_streaming_encoder(self, tmp_path):
        # Entries are written in one json.dumps call; the bytes must equal
        # what the streaming json.dump wrote, so existing caches stay
        # byte-identical and keep hitting.
        stats = SimStats(cycles=7, committed_uops=13)
        stats.bump("adhoc", 3)
        payload = _payload()
        key = cell_key(payload)
        ResultCache(tmp_path).put(key, stats, payload)
        streamed = io.StringIO()
        json.dump({"schema": CACHE_SCHEMA, "key": key,
                   "payload": payload_identity(payload),
                   "stats": stats.to_dict()}, streamed, sort_keys=True)
        written = (tmp_path / key[:2] / f"{key}.json").read_bytes()
        assert written == streamed.getvalue().encode()

    def test_failed_write_keeps_the_entry_and_leaves_no_temp_file(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        key = "cc" * 32
        cache.put(key, SimStats(cycles=1))
        path = tmp_path / key[:2] / f"{key}.json"
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, SimStats(cycles=2))
        assert path.read_bytes() == before
        assert [entry.name for entry in path.parent.iterdir()] == [path.name]

    @pytest.mark.parametrize("garbage", [
        "not json{", "[]", "42", '{"schema": 99}',
        '{"schema": 1, "stats": []}',
        '{"schema": 1, "stats": {"cycles": 1, "ipc": 2.0}}',
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        key = cell_key(_payload())
        cache.put(key, SimStats(cycles=1))
        (tmp_path / key[:2] / f"{key}.json").write_text(garbage)
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None

    def test_disabled_disk_layer(self):
        cache = ResultCache(None)
        cache.put("cc" * 32, SimStats(cycles=1))
        assert cache.entry_count() == 0
        assert ResultCache(None).get("cc" * 32) is None

    def test_returned_stats_are_copies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("dd" * 32, SimStats(cycles=5))
        first = cache.get("dd" * 32)
        first.cycles = 999
        assert cache.get("dd" * 32).cycles == 5


class TestCellPayload:
    def test_payload_is_self_contained_and_json(self):
        payload = _payload()
        json.dumps(payload)                   # picklable and serializable
        assert payload["code_version"] == code_version()

    def test_key_changes_with_any_knob(self):
        base = cell_key(_payload())
        assert cell_key(_payload(workload="swim")) != base
        assert cell_key(_payload(preset="Baseline_0")) != base
        assert cell_key(_payload(measure_uops=1501)) != base
        assert cell_key(_payload(seed=2)) != base

    def test_simulate_payload_matches_direct_simulation(self):
        from repro.pipeline.sim import run_workload

        stat_dict = simulate_payload(_payload())
        direct = run_workload("gzip", "SpecSched_4", warmup_uops=500,
                              measure_uops=1500, seed=1,
                              functional_warmup_uops=5000)
        assert stat_dict == direct.stats.to_dict()


class TestDeterminism:
    """Same cell: serial == process pool == cache round-trip."""

    def test_serial_pool_and_cache_identical(self, tmp_path):
        payloads = [_payload("gzip"), _payload("mcf", "SpecSched_4_Crit")]
        serial = run_cells(payloads, EngineOptions(jobs=1),
                           ResultCache(None))
        pooled = run_cells(payloads, EngineOptions(jobs=2),
                           ResultCache(None))
        primed = ResultCache(tmp_path)
        run_cells(payloads, EngineOptions(jobs=1), primed)
        reload_cache = ResultCache(tmp_path)   # fresh memory, warm disk
        reloaded = run_cells(payloads, EngineOptions(jobs=1), reload_cache)
        for a, b, c in zip(serial, pooled, reloaded):
            assert a.to_dict() == b.to_dict() == c.to_dict()
        assert reload_cache.disk_hits == len(payloads)
        assert reload_cache.misses == 0

    def test_duplicate_payloads_simulate_once(self):
        payload = _payload()
        cache = ResultCache(None)
        results = run_cells([payload, dict(payload)],
                            EngineOptions(jobs=1), cache)
        assert results[0].to_dict() == results[1].to_dict()
        assert results[0] is not results[1]
        assert cache.misses == 1 and cache.stores == 1    # one lookup, one run

    @pytest.mark.slow
    def test_grid_identical_across_jobs_and_warm_cache(self, tmp_path):
        """The acceptance grid: 2 presets x 4 workloads, three ways."""
        serial = run_sweep(GRID_SWEEP, GRID4, options=EngineOptions(jobs=1),
                           cache=ResultCache(tmp_path / "c"))
        pooled = run_sweep(GRID_SWEEP, GRID4, options=EngineOptions(jobs=4),
                           cache=ResultCache(None))
        warm = ResultCache(tmp_path / "c")     # fresh memory, warm disk
        cached = run_sweep(GRID_SWEEP, GRID4, options=EngineOptions(jobs=1),
                           cache=warm)
        for request in GRID:
            for wl in GRID4.workloads:
                s = serial.get(request.label, wl).to_dict()
                assert s == pooled.get(request.label, wl).to_dict()
                assert s == cached.get(request.label, wl).to_dict()
        # Warm run performed zero simulations.
        assert warm.misses == 0
        assert warm.disk_hits == len(GRID) * len(GRID4.workloads)


class TestDispatch:
    def test_run_cells_streams_progress_inline(self, tmp_path):
        payloads = [_payload(measure_uops=150 + 10 * i, warmup_uops=50,
                             functional_warmup_uops=0) for i in range(3)]
        seen = []
        run_cells(payloads, EngineOptions(jobs=1, cache_dir=str(tmp_path)),
                  progress=lambda done, total, manifest: seen.append(
                      (manifest["key"], done, total)))
        assert seen == [(cell_key(p), done, 3)
                        for done, p in enumerate(payloads, start=1)]
        manifests = {path.stem for path in (tmp_path / "manifests").iterdir()}
        assert manifests == {cell_key(p) for p in payloads}

    def test_warm_rerun_looks_up_each_distinct_key_once(self, tmp_path):
        class CountingCache(ResultCache):
            def get(self, key):
                self.lookups.append(key)
                return super().get(key)

        payloads = [_payload(), _payload("swim"), _payload()]
        keys = {cell_key(p) for p in payloads}
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path))
        cold = run_cells(payloads, options)
        warm_cache = CountingCache(tmp_path)     # fresh memory, warm disk
        warm_cache.lookups = []
        warm = run_cells(payloads, options, warm_cache)
        assert sorted(warm_cache.lookups) == sorted(keys)
        assert warm_cache.disk_hits == len(keys) and warm_cache.misses == 0
        assert [s.to_dict() for s in warm] == [s.to_dict() for s in cold]


class TestEngineOptions:
    def test_from_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        options = EngineOptions.from_env()
        assert options.jobs == 1
        assert options.cache_path() is not None    # default cache dir

    def test_from_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "6")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = EngineOptions.from_env()
        assert options.jobs == 6
        assert options.cache_path() == tmp_path

    def test_non_integer_jobs_refused(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            EngineOptions.from_env()

    @pytest.mark.parametrize("token", ["off", "none", "0", "", "OFF"])
    def test_cache_disable_tokens(self, token):
        assert EngineOptions(cache_dir=token).cache_path() is None

    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = EngineOptions.from_env().cache_path()
        assert path == tmp_path / "repro-isca2015"


class TestSweep:
    def _sweep_dict(self):
        return {
            "name": "mini",
            "baseline": "Baseline_0",
            "workloads": ["gzip", "swim"],
            "warmup_uops": 500,
            "measure_uops": 1500,
            "functional_warmup_uops": 5000,
            "series": [
                {"label": "Baseline_0", "preset": "Baseline_0",
                 "banked": False},
                {"label": "SpecSched_4", "preset": "SpecSched_4"},
            ],
        }

    def test_from_dict_and_run(self, tmp_path):
        sweep = Sweep.from_dict(self._sweep_dict())
        result = run_sweep(sweep, options=EngineOptions(jobs=1),
                           cache=ResultCache(None))
        assert set(result.labels()) == {"Baseline_0", "SpecSched_4"}
        assert result.workloads == ["gzip", "swim"]
        assert result.get("SpecSched_4", "gzip").cycles > 0

    def test_sweep_overrides_match_explicit_settings(self):
        """A sweep's own workloads/volumes win over the settings it is
        given, and give the grid those volumes as settings would."""
        sweep = Sweep.from_dict(self._sweep_dict())
        via_sweep = run_sweep(sweep, Settings(workloads=("mcf",)),
                              options=EngineOptions(jobs=1),
                              cache=ResultCache(None))
        via_grid = run_sweep(Sweep(name="mini", baseline="Baseline_0",
                                   series=GRID), TINY,
                             options=EngineOptions(jobs=1),
                             cache=ResultCache(None))
        assert via_sweep.workloads == via_grid.workloads == ["gzip", "swim"]
        for wl in TINY.workloads:
            assert (via_sweep.get("SpecSched_4", wl).to_dict()
                    == via_grid.get("SpecSched_4", wl).to_dict())

    def test_toml_round_trip(self, tmp_path):
        toml_text = (
            'name = "mini"\n'
            'baseline = "Baseline_0"\n'
            'workloads = ["gzip", "swim"]\n'
            'warmup_uops = 500\n'
            'measure_uops = 1500\n'
            'functional_warmup_uops = 5000\n\n'
            '[[series]]\nlabel = "Baseline_0"\npreset = "Baseline_0"\n'
            'banked = false\n\n'
            '[[series]]\nlabel = "SpecSched_4"\npreset = "SpecSched_4"\n'
        )
        path = tmp_path / "mini.toml"
        path.write_text(toml_text)
        assert Sweep.from_file(path) == Sweep.from_dict(self._sweep_dict())

    def test_json_file(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(self._sweep_dict()))
        assert Sweep.from_file(path) == Sweep.from_dict(self._sweep_dict())

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "mini.yaml"
        path.write_text("nope")
        with pytest.raises(ValueError, match="unsupported file type"):
            Sweep.from_file(path)

    def test_validation_failures(self):
        data = self._sweep_dict()
        data["baseline"] = "missing"
        with pytest.raises(ValueError, match="baseline"):
            Sweep.from_dict(data)
        data = self._sweep_dict()
        data["series"].append(dict(data["series"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            Sweep.from_dict(data)
        data = self._sweep_dict()
        data["series"][1]["preset"] = "SpecSched_4_Typo"
        with pytest.raises(ValueError):
            Sweep.from_dict(data)
        data = self._sweep_dict()
        data["workloads"] = ["gzipp"]
        with pytest.raises(KeyError):
            Sweep.from_dict(data)
        data = self._sweep_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown sweep fields"):
            Sweep.from_dict(data)

    def test_sweep_overrides_win_over_settings(self):
        sweep = Sweep.from_dict(self._sweep_dict())
        effective = TINY.with_sweep_overrides(sweep)
        assert effective.workloads == ("gzip", "swim")
        assert effective.measure_uops == 1500
        bare = Sweep(name="bare", baseline="b",
                     series=(SweepSeries("b", "Baseline_0"),))
        assert TINY.with_sweep_overrides(bare) == TINY


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()

    def test_is_hex_digest(self):
        assert len(code_version()) == 64
        int(code_version(), 16)

    def test_non_semantic_exclusions_still_exist(self):
        """Guard against renames silently emptying the exclusion list."""
        import repro
        from repro.experiments.engine import _NON_SEMANTIC_SOURCES

        root = __import__("pathlib").Path(repro.__file__).parent
        for relative in _NON_SEMANTIC_SOURCES:
            assert (root / relative).exists(), relative
