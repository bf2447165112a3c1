"""Workload specification and the trace source built from it.

A :class:`WorkloadSpec` is a declarative mix of kernels (with weights and
parameters); :meth:`WorkloadSpec.build_trace` instantiates the kernels with
disjoint PC regions, register windows and address regions and returns a
:class:`WorkloadTrace` the fetch stage can consume. Everything is seeded
and deterministic: the same spec + seed yields the same µop stream.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional

from repro.common.serialize import dataclass_from_dict, stable_hash

from repro.isa.trace import TraceSource
from repro.workloads.kernels import (
    BankConflictKernel,
    BranchKernel,
    ComputeKernel,
    Kernel,
    PointerChaseKernel,
    RandomLoadKernel,
    StoreLoadKernel,
    StreamKernel,
)

#: kind name -> kernel class
KERNEL_KINDS = {
    "stream": StreamKernel,
    "chase": PointerChaseKernel,
    "random": RandomLoadKernel,
    "compute": ComputeKernel,
    "bank": BankConflictKernel,
    "branch": BranchKernel,
    "storeload": StoreLoadKernel,
}

#: Architectural registers 0/1 are reserved for wrong-path filler µops.
_FIRST_KERNEL_REG = 2
_MAX_KERNELS = 4
_PC_REGION = 4096
_ADDR_REGION = 1 << 26      # 64 MB per kernel: address spaces never overlap


@dataclass(frozen=True)
class KernelSpec:
    """One kernel in a workload mix."""

    kind: str
    weight: float = 1.0
    fp: bool = False
    params: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.weight <= 0:
            raise ValueError("kernel weight must be positive")

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelSpec":
        return dataclass_from_dict(cls, data)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named synthetic benchmark (one Table-2 row analogue)."""

    name: str
    kernels: tuple
    seed: int = 1
    description: str = ""
    is_fp: bool = False        # Table 2's INT/FP tag

    def validate(self) -> None:
        if not self.kernels:
            raise ValueError(f"workload {self.name!r} has no kernels")
        if len(self.kernels) > _MAX_KERNELS:
            raise ValueError(
                f"workload {self.name!r}: at most {_MAX_KERNELS} kernels "
                f"(register windows)")
        for kspec in self.kernels:
            kspec.validate()

    def build_trace(self, seed: Optional[int] = None) -> "WorkloadTrace":
        self.validate()
        return WorkloadTrace(self, self.seed if seed is None else seed)

    def to_dict(self) -> Dict[str, object]:
        """Lossless plain-dict encoding; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        data = dict(data)
        data["kernels"] = tuple(
            KernelSpec.from_dict(k) for k in data["kernels"])
        return cls(**data)

    def content_hash(self) -> str:
        """Stable hex digest over the full spec (kernels, weights, seed)."""
        return stable_hash(self.to_dict())


class WorkloadTrace(TraceSource):
    """Weighted block interleaving of a spec's kernels: each refill
    draws one kernel and buffers its next block of rows."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        super().__init__(seed)
        self.rng = random.Random(seed)
        self.kernels: List[Kernel] = []
        for i, kspec in enumerate(spec.kernels):
            cls = KERNEL_KINDS[kspec.kind]
            kernel = cls(
                pc_base=(i + 1) * _PC_REGION,
                reg_base=_FIRST_KERNEL_REG + i * Kernel.REG_WINDOW,
                addr_base=(i + 1) * _ADDR_REGION,
                rng=random.Random(seed * 7919 + i),
                fp=kspec.fp,
                **kspec.params,
            )
            self.kernels.append(kernel)
        # ``choices`` accumulates ``weights`` on every call; the same
        # running sums, computed once, make the same draws.
        self._cum_weights = list(accumulate(k.weight for k in spec.kernels))

    def _refill(self) -> bool:
        kernel = self.rng.choices(self.kernels,
                                  cum_weights=self._cum_weights)[0]
        self._buffer.extend(kernel.next_block())
        return True

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["rng"] = self.rng.getstate()
        state["kernels"] = [kernel.state_dict() for kernel in self.kernels]
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        super().load_state_dict(state)
        set_rng_state(self.rng, state["rng"])
        for kernel, kernel_state in zip(self.kernels, state["kernels"]):
            kernel.load_state_dict(kernel_state)
