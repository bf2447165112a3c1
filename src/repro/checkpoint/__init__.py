"""Checkpointing and SMARTS-style interval sampling.

Four layers:

* :mod:`repro.checkpoint.state` — the µop codec behind the uniform
  ``state_dict()`` / ``load_state_dict()`` protocol every stateful
  pipeline component implements;
* :mod:`repro.checkpoint.format` — the plain-data state payload of a
  ``.ckpt`` file (a :mod:`repro.common.container` file):
  ``save_checkpoint``, then ``load_checkpoint(path).restore(config)``;
* :mod:`repro.checkpoint.rebase` — when saved warm state serves another
  configuration (``restore_refusal``, the one statement of the rule): a
  purely functional checkpoint restores as a fresh machine of that
  configuration plus the warmed islands, so one warming pass serves a
  whole scheduling-policy grid;
* :mod:`repro.checkpoint.sampling` — :class:`SamplingSpec` and its
  compilation into checkpoint-chained engine cells (run one sampled
  cell with ``repro.run_workload(..., sampling=spec)``).

Submodules are imported lazily (PEP 562): :mod:`repro.pipeline.cpu`
imports the codec from :mod:`~repro.checkpoint.state`, while
:mod:`~repro.checkpoint.format` imports the simulator — eager package
imports would make that a cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "UopCodec": "repro.checkpoint.state",
    "UopDecoder": "repro.checkpoint.state",
    "CheckpointError": "repro.checkpoint.format",
    "CheckpointInfo": "repro.checkpoint.format",
    "CHECKPOINT_SUFFIX": "repro.checkpoint.format",
    "read_info": "repro.checkpoint.format",
    "load_checkpoint": "repro.checkpoint.format",
    "verify_checkpoint": "repro.checkpoint.format",
    "save_checkpoint": "repro.checkpoint.format",
    "RebaseError": "repro.checkpoint.rebase",
    "rebase_checkpoint": "repro.checkpoint.rebase",
    "SamplingSpec": "repro.checkpoint.sampling",
    "chained_cell_payloads": "repro.checkpoint.sampling",
    "sample_payloads": "repro.checkpoint.sampling",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
