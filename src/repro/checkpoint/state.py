"""The µop codec behind the component state protocol.

Every stateful pipeline component implements ``state_dict()`` /
``load_state_dict(state)`` returning/consuming *plain data* (ints,
strings, bools, lists, tuples, dicts) — nothing that needs code to
deserialize. Components that hold references to in-flight
:class:`~repro.isa.uop.MicroOp` objects (ROB, IQ, LSQ, scoreboard
waiter lists, the fetch pipe, the replay window, ...) take a codec
argument instead: ``state_dict(ctx)`` / ``load_state_dict(state, ctx)``.

The codec preserves *identity*: the same dynamic µop is referenced from
many structures at once (a load sits in the ROB, the LSQ, the replay
window and a scoreboard waiter list simultaneously), and restore must
rebuild exactly one object per dynamic µop so the pipeline's ``is``
checks and flag updates keep working. :class:`UopCodec` assigns each
encountered µop a dense integer id and serializes each exactly once
(every ``__slots__`` field, with ``store_dep`` encoded as another id);
:class:`UopDecoder` rebuilds the table and resolves references.

The slot list itself is stored in the checkpoint payload and verified at
load (:func:`check_slot_layout`), so a :class:`MicroOp` layout change
fails loudly instead of silently misaligning fields.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp

#: The serialized µop field order — MicroOp's slot layout, verified
#: against the checkpoint payload at load time.
UOP_SLOTS: Tuple[str, ...] = tuple(MicroOp.__slots__)

_STORE_DEP_INDEX = UOP_SLOTS.index("store_dep")

#: Value -> OpClass member (decode runs once per checkpointed µop).
_OPCLASS_BY_VALUE = tuple(OpClass(v) for v in range(len(OpClass)))


class StateError(ValueError):
    """A component state blob does not match the live object."""


def check_slot_layout(slots: Sequence[str]) -> None:
    """Refuse a checkpoint whose µop layout differs from this build's."""
    if tuple(slots) != UOP_SLOTS:
        raise StateError(
            "checkpoint µop layout does not match this build "
            f"(checkpoint: {list(slots)}; build: {list(UOP_SLOTS)})")


class UopCodec:
    """Encode side: µop object -> dense id, each serialized once."""

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {}       # id(uop) -> table index
        self._uops: List[MicroOp] = []

    def ref(self, uop: Optional[MicroOp]) -> Optional[int]:
        """Table id for ``uop`` (registering it on first sight)."""
        if uop is None:
            return None
        key = id(uop)
        index = self._ids.get(key)
        if index is None:
            index = len(self._uops)
            self._ids[key] = index
            self._uops.append(uop)
        return index

    def refs(self, uops: Iterable[MicroOp]) -> List[Optional[int]]:
        return [self.ref(uop) for uop in uops]

    def table(self) -> List[List[Any]]:
        """The encoded µop table; call after all components registered.

        Encoding a µop may register new ones (``store_dep``), so the
        walk continues until the table stops growing.
        """
        rows: List[List[Any]] = []
        index = 0
        while index < len(self._uops):
            rows.append(self._encode(self._uops[index]))
            index += 1
        return rows

    def _encode(self, uop: MicroOp) -> List[Any]:
        row: List[Any] = []
        for slot in UOP_SLOTS:
            value = getattr(uop, slot)
            if slot == "opclass":
                value = int(value)
            elif slot == "store_dep":
                value = self.ref(value)
            elif slot in ("srcs", "psrcs"):
                value = list(value)
            row.append(value)
        return row


class UopDecoder:
    """Decode side: rebuild the µop table, then resolve ids to objects."""

    def __init__(self, table: Sequence[Sequence[Any]],
                 slots: Optional[Sequence[str]] = None) -> None:
        if slots is not None:
            check_slot_layout(slots)
        uops = [object.__new__(MicroOp) for _ in table]
        opclass_by_value = _OPCLASS_BY_VALUE
        for uop, row in zip(uops, table):
            for slot, value in zip(UOP_SLOTS, row):
                if slot == "opclass":
                    value = opclass_by_value[value]
                elif slot == "store_dep":
                    continue                 # second pass: needs the table
                elif slot in ("srcs", "psrcs"):
                    value = list(value)
                setattr(uop, slot, value)
        for uop, row in zip(uops, table):
            dep = row[_STORE_DEP_INDEX]
            uop.store_dep = uops[dep] if dep is not None else None
        self._uops = uops

    def uop(self, ref: Optional[int]) -> Optional[MicroOp]:
        return None if ref is None else self._uops[ref]

    def uops(self, refs: Iterable[Optional[int]]) -> List[MicroOp]:
        return [self._uops[ref] for ref in refs]


# ---------------------------------------------------------------------------
# RNG state helpers (random.Random round-trips as plain data)


def set_rng_state(rng: random.Random, state: Sequence[Any]) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))
