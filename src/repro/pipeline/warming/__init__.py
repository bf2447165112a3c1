"""Functional warming: the numpy block kernels behind every warm call.

Functional warming is the wall-time bound of SMARTS-style sampling and
the stand-in for the paper's 50M-instruction warmup. Every warm call —
:meth:`Simulator.functional_warmup`, :meth:`Simulator.fast_forward` and
through them the sampling drivers — lands in :func:`warm_stream`, which
runs the batched engine
(:func:`repro.pipeline.warming.engine.warm_stream_vectorized`): the
stream is consumed in fixed-size blocks, address/classification math
runs through numpy array kernels, and state updates apply through the
components' batch entry points.

The per-µop loop :func:`repro.pipeline.functional.functional_stream` is
the reference oracle: its semantics define what warming *means*, and the
engine must leave every component byte-identical to it (``tests/warming``
holds that contract; perfbench's ``warming.*`` layers time the engine).

The engine, and with it numpy, is imported on the first warm call, not
here: importing the simulator must stay cheap for callers that never
warm.
"""

from __future__ import annotations


def warm_stream(sim, trace, uops: int, train_policy: bool = False) -> int:
    """Functionally stream ``uops`` µops of ``trace`` through ``sim``.

    Shared by :meth:`Simulator.functional_warmup` and
    :meth:`Simulator.fast_forward`; returns the count actually consumed
    (short when the trace exhausts).
    """
    from repro.pipeline.warming.engine import warm_stream_vectorized

    return warm_stream_vectorized(sim, trace, uops, train_policy=train_policy)
