"""Synthetic workloads standing in for the SPEC CPU2000/2006 slices.

Trace-driven simulation of the paper's scheduler mechanisms needs µop
streams with controllable dependence structure, load miss rate, bank
behaviour and branch predictability — see DESIGN.md §2 for why parametric
kernels preserve the phenomena the paper measures.
"""

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
from repro.workloads.spec import WorkloadSpec, WorkloadTrace
from repro.workloads.suite import DEFAULT_SUBSET, SUITE

__all__ = [
    "BankConflictKernel",
    "BranchKernel",
    "ComputeKernel",
    "DEFAULT_SUBSET",
    "Kernel",
    "PointerChaseKernel",
    "RandomLoadKernel",
    "StoreLoadKernel",
    "StreamKernel",
    "SUITE",
    "WorkloadSpec",
    "WorkloadTrace",
]
