"""Machine-level checkpoint assembly: the component codec registration.

The PR-4 state protocol gives every component a
``state_dict``/``load_state_dict`` pair; this module owns the machine's
registration table — which components are serialized, under which key,
in which order, and whether they take the identity-preserving µop codec
(:mod:`repro.checkpoint.state`). :class:`~repro.pipeline.cpu.Simulator`
delegates its own ``state_dict``/``load_state_dict`` here.

Invariants (normative list in ``docs/ARCHITECTURE.md``):

* registration order is payload order — reordering the table changes
  checkpoint bytes (and therefore digests in sampled-cell cache keys);
* the µop table is encoded *last*, after every component has had the
  chance to register in-flight µops;
* inter-stage latches and wires are serialized by the driver alongside
  the components; stages own no state and contribute nothing;
* a table is saved as flat int columns, one list per field, never as a
  list of per-entry containers; a layout change bumps ``STATE_VERSION``.
"""

from __future__ import annotations

from typing import Dict

from repro.checkpoint.state import UOP_SLOTS, UopCodec, UopDecoder

#: (state-dict key, simulator attribute, component takes the µop codec).
#: Append new components at the end; never reorder (see module docstring).
COMPONENT_REGISTRY = (
    ("stats", "stats", False),
    ("trace", "trace", False),
    ("fetch", "fetch", True),
    ("branch_unit", "branch_unit", False),
    ("renamer", "renamer", False),
    ("scoreboard", "scoreboard", True),
    ("rob", "rob", True),
    ("iq", "iq", True),
    ("lsq", "lsq", True),
    ("fus", "fus", False),
    ("recovery", "recovery", True),
    ("replay", "replay", True),
    ("store_sets", "store_sets", True),
    ("policy", "policy", False),
    ("hierarchy", "hierarchy", False),
)


def machine_state_dict(sim) -> Dict:
    """Serialize ``sim``'s complete machine state as plain data."""
    ctx = UopCodec()
    state = {
        "version": sim.STATE_VERSION,
        "now": sim.now,
        "issue_block_cycle": sim.issue_block.state_dict(),
        "last_commit_cycle": sim.last_commit.state_dict(),
        "l1_miss_this_cycle": sim.l1_miss.state_dict(),
        "l1_access_this_cycle": sim.l1_access.state_dict(),
        "exec_queue": sim.exec_latch.state_dict(ctx),
        "completion_queue": sim.completion_latch.state_dict(ctx),
    }
    for key, attr, takes_ctx in COMPONENT_REGISTRY:
        component = getattr(sim, attr)
        state[key] = (component.state_dict(ctx) if takes_ctx else component.state_dict())
    # Encode the µop table last: serializing components (and then the
    # table itself, via store_dep chains) may register further µops.
    state["uops"] = ctx.table()
    state["uop_slots"] = list(UOP_SLOTS)
    return state


def load_machine_state_dict(sim, state: Dict) -> None:
    """Restore a :func:`machine_state_dict` snapshot into ``sim``."""
    if state.get("version") != sim.STATE_VERSION:
        raise ValueError(
            f"checkpoint state version {state.get('version')} "
            f"(this build reads {sim.STATE_VERSION})"
        )
    # The decoder checks the µop slot layout before anything is mutated:
    # a half-restored simulator that survives a caught exception would
    # silently produce wrong results.
    ctx = UopDecoder(state["uops"], state.get("uop_slots"))
    sim.now = state["now"]
    sim.issue_block.load_state_dict(state["issue_block_cycle"])
    sim.last_commit.load_state_dict(state["last_commit_cycle"])
    sim.l1_miss.load_state_dict(state["l1_miss_this_cycle"])
    sim.l1_access.load_state_dict(state["l1_access_this_cycle"])
    sim.exec_latch.load_state_dict(state["exec_queue"], ctx)
    sim.completion_latch.load_state_dict(state["completion_queue"], ctx)
    for key, attr, takes_ctx in COMPONENT_REGISTRY:
        component = getattr(sim, attr)
        if takes_ctx:
            component.load_state_dict(state[key], ctx)
        else:
            component.load_state_dict(state[key])
