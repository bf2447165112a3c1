"""Benchmark harness configuration.

Each ``bench_*`` file regenerates one table or figure of the paper: the
pytest-benchmark timing wraps the (cached) experiment run, and the bench
prints the paper-style rows so EXPERIMENTS.md can be refreshed from the
output. Scale with::

    REPRO_WORKLOADS=full REPRO_MEASURE=40000 REPRO_JOBS=8 \
        pytest benchmarks/ --benchmark-only

``REPRO_JOBS`` fans the grid out over worker processes and
``REPRO_CACHE_DIR`` points the persistent result cache somewhere durable,
so a re-run of the full figure set after an unrelated edit costs seconds,
not hours (see :mod:`repro.experiments.engine`).

**Collection rules.** Bench files are named ``bench_*.py``, which pytest
does not collect by default — a :func:`pytest_collect_file` hook here
makes them collectable, but *only* when benchmarks were requested:
either the command line names the ``benchmarks`` directory (or a file in
it), or the root-level ``--benchmarks`` flag is set. A plain
``pytest -x -q`` from the repository root therefore never runs a
benchmark by accident. The longest benches additionally carry the
``slow`` marker; deselect them inside a benchmark run with
``-m 'not slow'``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.engine import EngineOptions
from repro.experiments.runner import Settings

_BENCHMARKS_DIR = Path(__file__).resolve().parent


def _benchmarks_requested(config) -> bool:
    """True when the invocation explicitly asked for benchmarks."""
    if config.getoption("--benchmarks", default=False):
        return True
    invocation_dir = Path(str(config.invocation_params.dir))
    for arg in config.invocation_params.args:
        text = str(arg)
        if text.startswith("-"):
            continue
        # Strip parametrization/node-id suffixes ("path::test").
        path = Path(text.split("::", 1)[0])
        if not path.is_absolute():
            path = invocation_dir / path
        try:
            resolved = path.resolve()
        except OSError:         # unresolvable arg: not a benchmarks path
            continue
        if resolved == _BENCHMARKS_DIR or _BENCHMARKS_DIR in resolved.parents:
            return True
    return False


def pytest_collect_file(file_path, parent):
    """Collect ``bench_*.py`` modules — on explicit request only."""
    if (file_path.suffix == ".py" and file_path.name.startswith("bench_")
            and _benchmarks_requested(parent.config)):
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running benchmark/test; deselect with "
                   "-m 'not slow'")


@pytest.fixture(scope="session")
def settings() -> Settings:
    return Settings.from_env()


@pytest.fixture(scope="session")
def engine_options() -> EngineOptions:
    return EngineOptions.from_env()


def emit(title: str, *blocks: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    for block in blocks:
        print(block)
        print()
