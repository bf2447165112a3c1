"""Shared builders for the warming equivalence suite."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.presets import make_config
from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload

PRESETS = ("Baseline_0", "SpecSched_4_Combined")


def build_sim(preset: str, trace) -> Simulator:
    return Simulator(make_config(preset), trace)


def workload_sim(preset: str, name: str, seed: int = 7) -> Simulator:
    return build_sim(preset, resolve_workload(name).build_trace(seed))


def state_bytes(sim: Simulator) -> bytes:
    return pickle.dumps(sim.state_dict())


def random_uops(seed: int, count: int, pcs: int = 40) -> list:
    """A mixed µop stream with clustered pcs (branch aliasing likely)."""
    rng = random.Random(seed)
    ops = []
    for seq in range(count):
        kind = rng.random()
        if kind < 0.3:
            ops.append(MicroOp(
                seq=seq, pc=0x400 + 4 * rng.randrange(pcs),
                opclass=OpClass.LOAD, srcs=[2], dst=4,
                mem_addr=rng.randrange(1 << 20)))
        elif kind < 0.4:
            ops.append(MicroOp(
                seq=seq, pc=0x800 + 4 * rng.randrange(pcs),
                opclass=OpClass.STORE, srcs=[2, 4],
                mem_addr=rng.randrange(1 << 20)))
        elif kind < 0.6:
            pc = 0xc00 + 4 * rng.randrange(pcs)
            ops.append(MicroOp(
                seq=seq, pc=pc, opclass=OpClass.BRANCH, srcs=[4],
                taken=rng.random() < 0.5, target=pc + rng.randrange(2, 60)))
        elif kind < 0.65:
            pc = 0x1000 + 4 * rng.randrange(pcs)
            call = rng.random() < 0.5
            ops.append(MicroOp(
                seq=seq, pc=pc,
                opclass=OpClass.CALL if call else OpClass.RET,
                taken=True, target=pc + 16))
        else:
            ops.append(MicroOp(
                seq=seq, pc=0x1400 + 4 * rng.randrange(pcs),
                opclass=OpClass.INT_ALU, srcs=[2], dst=5))
    return ops


def list_trace(seed: int, count: int) -> ListTrace:
    return ListTrace(random_uops(seed, count))


@pytest.fixture
def recorded_trace(tmp_path):
    """A short recorded gzip trace on disk; returns its path."""
    from repro.traces.format import capture

    path = tmp_path / "warm.trc"
    capture(resolve_workload("gzip").build_trace(3), path, 9000, wp_seed=3)
    return path
