"""Golden-result regression suite.

Three tiny fixed-seed (workload, preset) cells are simulated and every
``SimStats`` counter is compared **exactly** against the checked-in
``goldens.json``. Any refactor that changes simulation semantics — seed
plumbing, issue ordering, replay accounting — fails here loudly instead
of silently skewing the figures.

If a change is *intentional*, regenerate and commit the goldens::

    PYTHONPATH=src python -m pytest tests/golden -q --regen-goldens

and call out the semantic change in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.engine import cell_payload, simulate_payload
from repro.workloads.suite import SUITE

GOLDEN_PATH = Path(__file__).parent / "goldens.json"

#: Small but diverse: a low-miss INT baseline, a bank-conflict-prone FP
#: workload under plain speculative scheduling, and a high-miss workload
#: under the paper's full mechanism stack.
CELLS = {
    "gzip/Baseline_0(dual)": dict(
        workload="gzip", preset="Baseline_0", banked=False),
    "swim/SpecSched_4(banked)": dict(
        workload="swim", preset="SpecSched_4", banked=True),
    "mcf/SpecSched_4_Crit(banked)": dict(
        workload="mcf", preset="SpecSched_4_Crit", banked=True),
}

#: Fixed, tiny volumes: goldens must be immune to REPRO_* scaling knobs.
VOLUMES = dict(warmup_uops=500, measure_uops=1500,
               functional_warmup_uops=5000, seed=1)


def _simulate(cell: dict) -> dict:
    payload = cell_payload(
        cell["preset"], SUITE[cell["workload"]],
        banked=cell["banked"], **VOLUMES)
    return simulate_payload(payload)


@pytest.fixture(scope="module")
def goldens(request) -> dict:
    if request.config.getoption("--regen-goldens"):
        regenerated = {cell_id: _simulate(cell)
                       for cell_id, cell in CELLS.items()}
        GOLDEN_PATH.write_text(
            json.dumps(regenerated, indent=2, sort_keys=True) + "\n")
        return regenerated
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run pytest tests/golden "
                    f"--regen-goldens and commit it")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_golden_cell(cell_id, goldens):
    assert cell_id in goldens, f"no golden for {cell_id}; regenerate"
    measured = _simulate(CELLS[cell_id])
    expected = goldens[cell_id]
    if measured != expected:
        diffs = {key: (expected.get(key), measured.get(key))
                 for key in sorted(set(expected) | set(measured))
                 if expected.get(key) != measured.get(key)}
        pytest.fail(
            f"{cell_id}: simulation semantics changed "
            f"(golden, measured): {diffs}\nIf intentional, rerun with "
            f"--regen-goldens and commit the new goldens.json.")


def test_goldens_cover_exactly_the_declared_cells(goldens):
    assert set(goldens) == set(CELLS)


def test_golden_counters_are_sane(goldens):
    for cell_id, stats in goldens.items():
        assert stats["cycles"] > 0, cell_id
        # The run stops on the first retire group past the budget, so the
        # measured region can land one retire width either side of it.
        assert stats["committed_uops"] >= VOLUMES["measure_uops"] - 16, cell_id
        assert stats["issued_total"] >= stats["unique_issued"] > 0, cell_id
