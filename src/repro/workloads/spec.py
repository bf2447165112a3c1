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
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.common.serialize import dataclass_from_dict, stable_hash

from repro.isa.opclass import OpClass
from repro.isa.trace import TraceSource
from repro.isa.uop import MicroOp
from repro.workloads.kernels import (
    BankConflictKernel,
    BranchKernel,
    ComputeKernel,
    Kernel,
    PointerChaseKernel,
    RandomLoadKernel,
    Row,
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
    """Weighted block interleaving of a spec's kernels."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        super().__init__(seed)
        self.spec = spec
        self.rng = random.Random(seed)
        self.kernels: List[Kernel] = []
        self.weights: List[float] = []
        for i, kspec in enumerate(spec.kernels):
            cls = KERNEL_KINDS[kspec.kind]
            kernel = cls(
                f"{spec.name}/{kspec.kind}{i}",
                pc_base=(i + 1) * _PC_REGION,
                reg_base=_FIRST_KERNEL_REG + i * Kernel.REG_WINDOW,
                addr_base=(i + 1) * _ADDR_REGION,
                rng=random.Random(seed * 7919 + i),
                fp=kspec.fp,
                **kspec.params,
            )
            self.kernels.append(kernel)
            self.weights.append(kspec.weight)
        self._buffer: Deque[Row] = deque()
        self.emitted = 0

    def _refill(self) -> None:
        kernel = self.rng.choices(self.kernels, weights=self.weights)[0]
        self._buffer.extend(kernel.next_block())

    # -- TraceSource -------------------------------------------------------

    def next_uop(self) -> Optional[MicroOp]:
        if not self._buffer:
            self._refill()
        self.emitted += 1
        return MicroOp(0, *self._buffer.popleft())

    def next_record_block(self, max_uops: int):
        """The next ``max_uops`` rows as one record array.

        Whole kernel blocks are drained per refill, with one weighted
        draw per refill exactly as :meth:`next_uop` makes, so the stream
        and the checkpoint state after a block match per-µop iteration.
        No :class:`MicroOp` is built.
        """
        from repro.traces.format import encode_rows

        buffer = self._buffer
        rows: List[Row] = []
        while len(rows) < max_uops:
            if not buffer:
                self._refill()
            take = max_uops - len(rows)
            if take >= len(buffer):
                rows.extend(buffer)
                buffer.clear()
            else:
                rows.extend([buffer.popleft() for _ in range(take)])
        self.emitted += len(rows)
        return encode_rows(rows)

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self) -> dict:
        return {
            "rng": self.rng.getstate(),
            "wp_synth": self._wp_synth.state_dict(),
            "kernels": [kernel.state_dict() for kernel in self.kernels],
            # The checkpoint layout ends each µop with its wrong-path
            # flag, always False for kernel rows.
            "buffer": [(pc, int(opclass), list(srcs), *rest, False)
                       for pc, opclass, srcs, *rest in self._buffer],
            "emitted": self.emitted,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        set_rng_state(self.rng, state["rng"])
        self._wp_synth.load_state_dict(state["wp_synth"])
        for kernel, kernel_state in zip(self.kernels, state["kernels"]):
            kernel.load_state_dict(kernel_state)
        self._buffer = deque(
            (pc, OpClass(opclass), list(srcs), *rest)
            for pc, opclass, srcs, *rest, _ in state["buffer"])
        self.emitted = state["emitted"]
