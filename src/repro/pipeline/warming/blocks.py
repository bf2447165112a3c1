"""Block size and kind masks of the warming engine.

The engine reads the correct-path stream as record arrays
(:meth:`repro.isa.trace.TraceSource.next_record_block`, dtype
:func:`repro.traces.format.record_dtype`) of :data:`DEFAULT_BLOCK_UOPS`
µops, using the ``pc``, ``mem_addr``, ``target``, ``opclass`` and
``flags`` columns directly.

The kind lookup tables (:data:`IS_MEM` etc.) are opclass-value-indexed
boolean arrays, the vectorized twin of ``MicroOp``'s precomputed
``is_mem``/``is_load``/``is_branch`` flags.
"""

from __future__ import annotations

import numpy as np

from repro.isa.opclass import BRANCH_OPS, MEMORY_OPS, OpClass

#: µops per engine block. Matches the trace format's frame size
#: (``DEFAULT_FRAME_RECORDS``) so replaying a recorded trace usually
#: serves whole frames without re-slicing.
DEFAULT_BLOCK_UOPS = 4096

#: OpClass-value-indexed kind masks: ``IS_MEM[opclass_array]`` classifies
#: a whole block in one gather.
IS_MEM = np.array([op in MEMORY_OPS for op in OpClass], dtype=bool)
IS_LOAD = np.array([op == OpClass.LOAD for op in OpClass], dtype=bool)
IS_BRANCH = np.array([op in BRANCH_OPS for op in OpClass], dtype=bool)
IS_CALL_OR_RET = np.array([op in (OpClass.CALL, OpClass.RET) for op in OpClass], dtype=bool)

