"""Declarative scenario specs: new behavioural classes as data files.

A :class:`ScenarioSpec` describes a synthetic workload entirely in data —
an instruction-mix Markov chain, a dependency-distance (ILP) model, a
working-set/stride memory model for MLP, and branch-predictability knobs
— and compiles into a deterministic seeded :class:`ScenarioTrace`
(a :class:`~repro.isa.trace.TraceSource`). Where the Table-2 suite wires
kernel *code* together, a scenario is a TOML/JSON file::

    name = "pointer-chase-storm"
    seed = 11

    [deps]
    mean_distance = 2.0        # avg producer distance: low = serial chains

    [memory]
    ws_lines = 131072          # working set in 64-byte cache lines
    stream_frac = 0.0          # fraction of loads that stride sequentially
    chase_frac = 0.9           # fraction whose address is the last load's dst
    streams = 1                # independent stride cursors (MLP)

    [branch]
    period = 16                # TAGE-learnable outcome period
    noise = 0.02               # probability an outcome defies the pattern

    [[mix]]                    # Markov chain over µop kinds
    name = "ld"
    op = "load"
    next = { ld = 2.0, alu = 1.0 }
    ...

Like the kernel suite, every mix state owns fixed PCs so the per-PC
predictors (TAGE, stride prefetcher, hit/miss filter, criticality table)
see stable static instructions, and everything downstream of the seed is
reproducible: the same spec + seed always yields the same µop stream.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.serialize import load_structured_file, stable_hash
from repro.isa.opclass import OpClass
from repro.isa.trace import TraceSource
from repro.isa.uop import MicroOp

LINE = 64

#: op name -> (integer opclass, fp opclass); ``fp = true`` on the spec
#: switches the ALU-ish kinds to their FP counterparts, like the kernels.
_OPS: Dict[str, Tuple[OpClass, OpClass]] = {
    "alu": (OpClass.INT_ALU, OpClass.FP_ADD),
    "mul": (OpClass.INT_MUL, OpClass.FP_MUL),
    "div": (OpClass.INT_DIV, OpClass.FP_DIV),
    "load": (OpClass.LOAD, OpClass.LOAD),
    "store": (OpClass.STORE, OpClass.STORE),
    "branch": (OpClass.BRANCH, OpClass.BRANCH),
    "nop": (OpClass.NOP, OpClass.NOP),
}

_PC_BASE = 0x200000          # disjoint from the kernel suite's PC regions
_ADDR_BASE = 1 << 30         # ... and from its address regions
_ADDR_REG = 2                # pre-mapped int register: load/store base
_VALUE_REG_BASE = 3          # start of the rotating destination window
_MAX_WINDOW = 16             # int regs 3..18 / fp regs 35..50


@dataclass(frozen=True)
class MixState:
    """One state of the instruction-mix Markov chain."""

    name: str
    op: str
    #: ((successor state name, weight), ...) — sorted for stable hashing.
    next: Tuple[Tuple[str, float], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "op": self.op,
                "next": {state: weight for state, weight in self.next}}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MixState":
        transitions = data.get("next") or {}
        if isinstance(transitions, dict):
            items = sorted(transitions.items())
        else:                            # [[name, weight], ...] lists
            items = sorted((str(k), float(v)) for k, v in transitions)
        return cls(name=str(data["name"]), op=str(data["op"]),
                   next=tuple((str(k), float(v)) for k, v in items))


@dataclass(frozen=True)
class DepModel:
    """Dependency-distance / ILP knobs for value-consuming µops."""

    #: Average distance (in value-producing µops) to a source's producer.
    #: ~1 forces serial chains; large values approximate independence.
    mean_distance: float = 4.0
    #: Rotating destination-register window (bounds live dependencies).
    window: int = 8
    #: Sources sampled per ALU-class µop.
    srcs: int = 1


@dataclass(frozen=True)
class MemoryModel:
    """Working-set + stride patterns: miss rate and MLP."""

    ws_lines: int = 4096       # working set, in cache lines
    stride: int = 64           # bytes between consecutive stream accesses
    streams: int = 1           # independent stream cursors (MLP)
    stream_frac: float = 1.0   # loads/stores striding (rest: random in WS)
    chase_frac: float = 0.0    # loads addressed by the previous load's dst


@dataclass(frozen=True)
class BranchModel:
    """Branch-predictability knobs (see ``BranchKernel``)."""

    period: int = 8            # TAGE-learnable outcome period
    noise: float = 0.05        # probability an outcome defies the pattern


def _model(cls, data: Optional[Dict[str, object]], section: str):
    """Build a knob dataclass, rejecting typoed keys as ValueError (a
    bare ``cls(**data)`` would raise TypeError, which CLI error handling
    rightly treats as a bug rather than bad input)."""
    data = dict(data or {})
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown [{section}] fields: {sorted(unknown)} "
            f"(expected among {sorted(known)})")
    return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative behavioural class, loadable from TOML/JSON."""

    name: str
    mix: Tuple[MixState, ...]
    seed: int = 1
    description: str = ""
    is_fp: bool = False
    deps: DepModel = field(default_factory=DepModel)
    memory: MemoryModel = field(default_factory=MemoryModel)
    branch: BranchModel = field(default_factory=BranchModel)

    # -- validation ------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        if not self.mix:
            raise ValueError(f"scenario {self.name!r} has an empty mix")
        names = [state.name for state in self.mix]
        if len(set(names)) != len(names):
            raise ValueError(
                f"scenario {self.name!r}: duplicate mix state names")
        known = set(names)
        for state in self.mix:
            if state.op not in _OPS:
                raise ValueError(
                    f"scenario {self.name!r}: unknown op {state.op!r} in "
                    f"state {state.name!r} (expected one of "
                    f"{sorted(_OPS)})")
            for successor, weight in state.next:
                if successor not in known:
                    raise ValueError(
                        f"scenario {self.name!r}: state {state.name!r} "
                        f"names unknown successor {successor!r}")
                if weight <= 0:
                    raise ValueError(
                        f"scenario {self.name!r}: non-positive transition "
                        f"weight in state {state.name!r}")
        if self.deps.mean_distance < 1:
            raise ValueError("deps.mean_distance must be >= 1")
        if not 1 <= self.deps.window <= _MAX_WINDOW:
            raise ValueError(f"deps.window must be in 1..{_MAX_WINDOW}")
        if not 1 <= self.deps.srcs <= 2:
            raise ValueError("deps.srcs must be 1 or 2")
        if self.memory.ws_lines < 1 or self.memory.streams < 1:
            raise ValueError("memory.ws_lines and memory.streams must be "
                             "positive")
        if self.memory.stride <= 0:
            raise ValueError("memory.stride must be positive")
        for frac_name in ("stream_frac", "chase_frac"):
            frac = getattr(self.memory, frac_name)
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"memory.{frac_name} must be in [0, 1]")
        if self.branch.period < 2:
            raise ValueError("branch.period must be >= 2")
        if not 0.0 <= self.branch.noise <= 1.0:
            raise ValueError("branch.noise must be in [0, 1]")
        return self

    # -- construction ----------------------------------------------------

    def build_trace(self, seed: Optional[int] = None) -> "ScenarioTrace":
        self.validate()
        return ScenarioTrace(self, self.seed if seed is None else seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "is_fp": self.is_fp,
            "seed": self.seed,
            "mix": [state.to_dict() for state in self.mix],
            "deps": dataclasses.asdict(self.deps),
            "memory": dataclasses.asdict(self.memory),
            "branch": dataclasses.asdict(self.branch),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)} | {"fp"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields: {sorted(unknown)}")
        mix = tuple(MixState.from_dict(entry)
                    for entry in data.get("mix") or ())
        return cls(
            name=str(data["name"]),
            mix=mix,
            seed=int(data.get("seed", 1)),
            description=str(data.get("description", "")),
            # TOML files say `fp = true`, serialized dicts `is_fp`.
            is_fp=bool(data.get("is_fp", data.get("fp", False))),
            deps=_model(DepModel, data.get("deps"), "deps"),
            memory=_model(MemoryModel, data.get("memory"), "memory"),
            branch=_model(BranchModel, data.get("branch"), "branch"),
        ).validate()

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        return cls.from_dict(load_structured_file(path))

    def content_hash(self) -> str:
        """Stable hex digest over the full spec (mix, models, seed)."""
        return stable_hash(self.to_dict())


class ScenarioTrace(TraceSource):
    """The compiled form of a :class:`ScenarioSpec`: a seeded generator.

    One µop per :meth:`next_uop`; the Markov chain picks the next state,
    the dependency ring supplies sources at the spec's ILP distribution,
    and the memory model supplies addresses. Fully deterministic in
    (spec, seed).
    """

    def __init__(self, spec: ScenarioSpec, seed: int) -> None:
        super().__init__(seed)
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self._states = list(spec.mix)
        self._by_name = {state.name: state for state in self._states}
        self._transitions = {
            state.name: ([self._by_name[n] for n, _ in state.next],
                         [w for _, w in state.next])
            for state in self._states
        }
        self._pcs = {state.name: _PC_BASE + index
                     for index, state in enumerate(self._states)}
        self._state: Optional[MixState] = None   # next_uop starts the chain
        # Dependency ring: the last `window` destination registers, newest
        # last. Registers rotate through the window so writes stay dense.
        self._ring: List[int] = []
        self._next_reg = 0
        # Memory cursors.
        mem = spec.memory
        self._ws_bytes = mem.ws_lines * LINE
        self._cursors = [
            (i * self._ws_bytes) // mem.streams for i in range(mem.streams)]
        self._next_stream = 0
        self._last_load_dst: Optional[int] = None
        # Branch pattern position.
        self._branch_count = 0
        self.emitted = 0

    # -- registers -------------------------------------------------------

    def _fresh_dst(self) -> int:
        reg = _VALUE_REG_BASE + self._next_reg
        if self.spec.is_fp:
            reg += 32
        self._next_reg = (self._next_reg + 1) % self.spec.deps.window
        return reg

    def _pick_src(self) -> int:
        """A source at the spec's dependency-distance distribution."""
        if not self._ring:
            return _ADDR_REG
        mean = self.spec.deps.mean_distance
        if mean <= 1.0:
            distance = 1
        else:
            # Geometric over 1..len(ring) with the requested mean.
            distance = 1 + int(self.rng.expovariate(1.0 / (mean - 1.0)))
        distance = min(distance, len(self._ring))
        return self._ring[-distance]

    def _produce(self, reg: int) -> None:
        self._ring.append(reg)
        if len(self._ring) > self.spec.deps.window:
            self._ring.pop(0)

    # -- memory ----------------------------------------------------------

    def _next_addr(self) -> int:
        mem = self.spec.memory
        if self.rng.random() < mem.stream_frac:
            stream = self._next_stream
            self._next_stream = (self._next_stream + 1) % mem.streams
            addr = _ADDR_BASE + self._cursors[stream]
            self._cursors[stream] = (
                self._cursors[stream] + mem.stride) % self._ws_bytes
            return addr
        line = self.rng.randrange(mem.ws_lines)
        offset = self.rng.randrange(LINE // 8) * 8
        return _ADDR_BASE + line * LINE + offset

    # -- TraceSource -----------------------------------------------------

    def next_uop(self) -> Optional[MicroOp]:
        if self._state is None:
            state = self._states[0]
        else:
            successors, weights = self._transitions[self._state.name]
            if successors:
                state = self.rng.choices(successors, weights=weights)[0]
            else:                        # absorbing state: loop in place
                state = self._state
        self._state = state
        uop = self._emit(state)
        self.emitted += 1
        return uop

    def next_block(self, max_uops: int) -> List[MicroOp]:
        """Block-yield iteration: one Markov step per µop, batched locally.

        Same draws and emission as ``max_uops`` calls of
        :meth:`next_uop` (the generator never exhausts), with the
        per-µop method dispatch hoisted out of the loop for
        functional warming.
        """
        out: List[MicroOp] = []
        append = out.append
        choices = self.rng.choices
        transitions = self._transitions
        emit = self._emit
        state = self._state
        for _ in range(max_uops):
            if state is None:
                state = self._states[0]
            else:
                successors, weights = transitions[state.name]
                if successors:
                    state = choices(successors, weights=weights)[0]
            append(emit(state))
        self._state = state
        self.emitted += len(out)
        return out

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self) -> dict:
        return {
            "rng": self.rng.getstate(),
            "wp_synth": self._wp_synth.state_dict(),
            "state": self._state.name if self._state is not None else None,
            "ring": list(self._ring),
            "next_reg": self._next_reg,
            "cursors": list(self._cursors),
            "next_stream": self._next_stream,
            "last_load_dst": self._last_load_dst,
            "branch_count": self._branch_count,
            "emitted": self.emitted,
        }

    def load_state_dict(self, state: dict) -> None:
        from repro.checkpoint.state import set_rng_state

        set_rng_state(self.rng, state["rng"])
        self._wp_synth.load_state_dict(state["wp_synth"])
        name = state["state"]
        self._state = self._by_name[name] if name is not None else None
        self._ring = list(state["ring"])
        self._next_reg = state["next_reg"]
        self._cursors = list(state["cursors"])
        self._next_stream = state["next_stream"]
        self._last_load_dst = state["last_load_dst"]
        self._branch_count = state["branch_count"]
        self.emitted = state["emitted"]

    # -- emission --------------------------------------------------------

    def _emit(self, state: MixState) -> MicroOp:
        pc = self._pcs[state.name]
        int_op, fp_op = _OPS[state.op]
        opclass = fp_op if self.spec.is_fp else int_op
        if state.op == "load":
            chase = (self._last_load_dst is not None
                     and self.rng.random() < self.spec.memory.chase_frac)
            addr_src = self._last_load_dst if chase else _ADDR_REG
            dst = self._fresh_dst()
            uop = MicroOp(seq=0, pc=pc, opclass=opclass, srcs=[addr_src],
                          dst=dst, mem_addr=self._next_addr())
            self._last_load_dst = dst
            self._produce(dst)
            return uop
        if state.op == "store":
            data_src = self._pick_src()
            return MicroOp(seq=0, pc=pc, opclass=opclass,
                           srcs=[_ADDR_REG, data_src], dst=None,
                           mem_addr=self._next_addr())
        if state.op == "branch":
            model = self.spec.branch
            pattern = self._branch_count % model.period != 0
            taken = pattern ^ (self.rng.random() < model.noise)
            self._branch_count += 1
            return MicroOp(seq=0, pc=pc, opclass=opclass,
                           srcs=[self._pick_src()], dst=None, taken=taken,
                           target=_PC_BASE if taken else pc + 1)
        if state.op == "nop":
            return MicroOp(seq=0, pc=pc, opclass=opclass)
        # alu / mul / div: value producers off the dependency ring.
        srcs = [self._pick_src() for _ in range(self.spec.deps.srcs)]
        dst = self._fresh_dst()
        uop = MicroOp(seq=0, pc=pc, opclass=opclass, srcs=srcs, dst=dst)
        self._produce(dst)
        return uop
