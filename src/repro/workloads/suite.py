"""The 36-workload suite — our Table 2.

Each entry is a synthetic analogue of one SPEC CPU2000/2006 benchmark the
paper evaluates, parameterized to land in the same behavioural class the
paper describes or implies:

* *high L1 miss rate*: art, equake, mcf, milc, gromacs, soplex,
  libquantum, omnetpp, xalancbmk (Section 4.3);
* *high IPC / low miss*: swim, mgrid, namd, hmmer, GemsFDTD (Section 4.3);
* *bank-conflict-sensitive*: swim, crafty, gamess, gromacs, leslie3d,
  hmmer, GemsFDTD, h264ref (Section 4.3, ">5% performance lost to bank
  conflicts");
* *high IPC + high miss* (the interesting replay case): xalancbmk
  (IPC 1.98, 46% L1 miss rate).

Working-set sizing against the Table-1 hierarchy (L1 512 lines, L2 16K
lines): ``L1_FIT`` stays resident, ``NEAR_L1`` thrashes the L1 lightly,
``MIX`` produces ~40-60% L1 misses, ``L2_FIT`` misses the L1 but hits the
L2, ``HUGE`` reaches DRAM.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.spec import KernelSpec, WorkloadSpec

# Working-set sizes in cache lines.
L1_FIT = 256
NEAR_L1 = 768
MIX = 1152
L2_FIT = 8192
HUGE = 1 << 17


def _stream(w: float = 1.0, fp: bool = False, ws: int = L1_FIT,
            stride: int = 8, unroll: int = 4, serial: bool = False,
            streams: int = 1) -> KernelSpec:
    return KernelSpec("stream", w, fp, dict(
        ws_lines=ws, stride=stride, unroll=unroll, serial_acc=serial,
        streams=streams))


def _chase(w: float = 1.0, ws: int = HUGE, work: int = 2) -> KernelSpec:
    return KernelSpec("chase", w, False, dict(ws_lines=ws, work=work))


def _rand(w: float = 1.0, fp: bool = False, ws: int = L2_FIT,
          loads: int = 4, work: int = 1, indirect: bool = True) -> KernelSpec:
    # Working sets beyond the L1 get phase behaviour (miss clustering),
    # the temporal structure the global hit/miss counter exploits.
    phase_blocks = 32 if ws >= MIX else 0
    return KernelSpec("random", w, fp, dict(
        ws_lines=ws, loads=loads, work_per_load=work, indirect=indirect,
        phase_blocks=phase_blocks))


def _comp(w: float = 1.0, fp: bool = False, chains: int = 3,
          length: int = 4, mul: int = 0) -> KernelSpec:
    return KernelSpec("compute", w, fp, dict(
        chains=chains, chain_len=length, mul_every=mul))


def _bank(w: float = 1.0, fp: bool = False, streams: int = 2,
          ws: int = 128, unroll: int = 2, same: bool = True) -> KernelSpec:
    return KernelSpec("bank", w, fp, dict(
        streams=streams, ws_lines=ws, unroll=unroll, same_bank=same))


def _br(w: float = 1.0, branches: int = 2, period: int = 8,
        noise: float = 0.05, filler: int = 2) -> KernelSpec:
    return KernelSpec("branch", w, False, dict(
        branches=branches, period=period, noise=noise, filler=filler))


def _sl(w: float = 1.0, buffer_lines: int = 16, pairs: int = 2,
        alias: float = 0.7, chain: int = 2) -> KernelSpec:
    return KernelSpec("storeload", w, False, dict(
        buffer_lines=buffer_lines, pairs=pairs, alias_prob=alias,
        chain=chain))


def _wl(name: str, *kernels: KernelSpec, seed: int, fp: bool,
        desc: str) -> WorkloadSpec:
    return WorkloadSpec(name=name, kernels=tuple(kernels), seed=seed,
                        description=desc, is_fp=fp)


_ENTRIES: List[WorkloadSpec] = [
    # ---------------- CPU2000 ----------------
    _wl("gzip", _chase(2.0, ws=320, work=3), _comp(1.0, chains=2, length=4),
        _br(0.8, noise=0.03), _sl(0.5),
        seed=164, fp=False, desc="moderate INT mix, light misses"),
    _wl("wupwise", _comp(2.0, fp=True, chains=3, length=4, mul=4),
        _stream(1.0, fp=True, ws=L1_FIT, unroll=4),
        _rand(0.6, fp=True, ws=L1_FIT, loads=2),
        seed=168, fp=True, desc="FP compute + resident streams"),
    _wl("swim", _bank(2.0, fp=True, streams=2, ws=96, unroll=3),
        _stream(1.5, fp=True, ws=128, unroll=6, streams=2),
        _rand(0.8, fp=True, ws=64, loads=2),
        seed=171, fp=True, desc="high-IPC FP streams, bank-conflict heavy"),
    _wl("mgrid", _stream(2.0, fp=True, ws=192, unroll=6, streams=3),
        _comp(1.5, fp=True, chains=4, length=4),
        _bank(0.7, fp=True, streams=2, ws=64),
        _rand(0.7, fp=True, ws=64, loads=2),
        seed=172, fp=True, desc="high-IPC stencil-like streams"),
    _wl("applu", _stream(2.0, fp=True, ws=NEAR_L1, unroll=4, streams=2),
        _comp(1.5, fp=True, chains=3, length=4, mul=5),
        _rand(0.8, fp=True, ws=NEAR_L1, loads=2),
        seed=173, fp=True, desc="FP solver mix"),
    _wl("vpr", _br(2.0, branches=3, period=12, noise=0.10),
        _chase(1.5, ws=NEAR_L1, work=2), _rand(0.8, ws=NEAR_L1, loads=2),
        seed=175, fp=False, desc="hard branches, placement-like"),
    _wl("mesa", _comp(2.0, fp=True, chains=3, length=4, mul=6),
        _rand(1.0, fp=True, ws=L1_FIT, loads=2), _br(0.7, noise=0.02),
        seed=177, fp=True, desc="rendering-like FP mix"),
    _wl("art", _rand(2.5, fp=True, ws=HUGE, loads=3, work=1),
        _stream(1.0, fp=True, ws=L2_FIT, stride=64, serial=True),
        seed=179, fp=True, desc="neural-net scan: very high miss rate"),
    _wl("equake", _chase(1.5, ws=L2_FIT, work=3),
        _rand(1.0, fp=True, ws=L2_FIT, loads=2),
        _comp(0.8, fp=True, chains=2, length=3),
        seed=183, fp=True, desc="sparse-matrix-like, high miss"),
    _wl("crafty", _bank(1.5, streams=2, ws=160, unroll=2),
        _comp(1.0, chains=3, length=3), _br(1.0, noise=0.06, period=6),
        _chase(1.4, ws=320, work=2),
        seed=186, fp=False, desc="bitboard INT, banky, branchy"),
    _wl("ammp", _comp(1.5, fp=True, chains=3, length=5, mul=5),
        _rand(1.0, fp=True, ws=MIX, loads=2), _sl(0.5),
        seed=188, fp=True, desc="molecular dynamics mix"),
    _wl("parser", _br(1.2, branches=2, period=10, noise=0.07),
        _rand(0.8, ws=NEAR_L1, loads=2), _sl(0.8, alias=0.6),
        _chase(1.6, ws=320, work=2),
        seed=197, fp=False, desc="dictionary walking, branchy"),
    _wl("vortex", _comp(1.6, chains=4, length=3),
        _rand(1.2, ws=L1_FIT, loads=3), _chase(1.0, ws=320, work=3),
        _sl(0.6, alias=0.8),
        seed=255, fp=False, desc="OO-database-like, high IPC INT"),
    _wl("twolf", _br(1.6, branches=3, period=16, noise=0.12),
        _rand(1.0, ws=MIX, loads=2), _chase(1.2, ws=NEAR_L1, work=1),
        seed=300, fp=False, desc="place&route: hard branches + misses"),
    # ---------------- CPU2006 ----------------
    _wl("perlbench", _br(1.2, branches=2, period=8, noise=0.04),
        _chase(1.5, ws=320, work=2), _rand(0.8, ws=NEAR_L1, loads=2),
        _sl(0.6),
        seed=400, fp=False, desc="interpreter-like mix"),
    _wl("bzip2", _rand(1.4, ws=NEAR_L1, loads=3), _comp(1.0, chains=2, length=4),
        _br(1.0, noise=0.05, period=6), _chase(1.2, ws=320, work=2),
        seed=401, fp=False, desc="compression mix"),
    _wl("gcc", _br(1.2, branches=3, period=10, noise=0.05),
        _rand(1.2, ws=MIX, loads=2), _chase(1.2, ws=NEAR_L1, work=2),
        _sl(0.5),
        seed=403, fp=False, desc="compiler-like pointer/branch mix"),
    _wl("gamess", _comp(2.5, fp=True, chains=4, length=4, mul=6),
        _bank(1.5, fp=True, streams=2, ws=128, unroll=2),
        _rand(0.7, fp=True, ws=L1_FIT, loads=2),
        seed=416, fp=True, desc="quantum chemistry: high IPC, banky"),
    _wl("mcf", _chase(3.0, ws=HUGE, work=1), _rand(0.5, ws=HUGE, loads=2),
        seed=429, fp=False, desc="pointer chasing to DRAM: IPC ~0.1"),
    _wl("milc", _stream(2.0, fp=True, ws=HUGE, stride=64, serial=True),
        _rand(1.0, fp=True, ws=L2_FIT, loads=2),
        _comp(0.8, fp=True, chains=2, length=3),
        seed=433, fp=True, desc="lattice QCD: streaming misses"),
    _wl("gromacs", _rand(1.5, fp=True, ws=L2_FIT, loads=3),
        _bank(1.5, fp=True, streams=2, ws=160, unroll=2),
        _comp(1.0, fp=True, chains=3, length=3, mul=4),
        seed=435, fp=True, desc="MD: misses *and* bank conflicts"),
    _wl("leslie3d", _stream(2.0, fp=True, ws=256, unroll=6, streams=3),
        _bank(1.2, fp=True, streams=2, ws=96, unroll=2),
        _rand(0.8, fp=True, ws=64, loads=2),
        seed=437, fp=True, desc="CFD: high-IPC streams, banky"),
    _wl("namd", _comp(3.0, fp=True, chains=5, length=5, mul=7),
        _stream(1.0, fp=True, ws=L1_FIT, unroll=4),
        _rand(0.5, fp=True, ws=L1_FIT, loads=2),
        seed=444, fp=True, desc="MD kernels: very high IPC, low miss"),
    _wl("gobmk", _br(2.2, branches=3, period=20, noise=0.13),
        _rand(1.0, ws=NEAR_L1, loads=2), _chase(1.0, ws=NEAR_L1, work=2),
        seed=445, fp=False, desc="Go engine: very hard branches"),
    _wl("soplex", _rand(2.0, fp=True, ws=HUGE, loads=2, work=1),
        _chase(1.0, ws=L2_FIT, work=2), _comp(0.5, fp=True, chains=2, length=3),
        seed=450, fp=True, desc="LP solver: sparse misses everywhere"),
    _wl("povray", _comp(2.0, fp=True, chains=3, length=4, mul=5),
        _br(1.2, noise=0.04, period=6), _rand(0.8, fp=True, ws=L1_FIT, loads=2),
        seed=453, fp=True, desc="ray tracing: FP + branches"),
    _wl("hmmer", _comp(3.0, chains=5, length=4),
        _bank(1.5, streams=2, ws=192, unroll=3),
        _rand(0.8, ws=L1_FIT, loads=3),
        seed=456, fp=False, desc="profile HMM: very high IPC INT, banky"),
    _wl("sjeng", _br(1.5, branches=3, period=12, noise=0.08),
        _comp(1.0, chains=3, length=3), _rand(0.8, ws=NEAR_L1, loads=2),
        _chase(1.2, ws=320, work=2),
        seed=458, fp=False, desc="chess engine"),
    _wl("GemsFDTD", _stream(2.5, fp=True, ws=160, unroll=6, streams=3),
        _bank(1.2, fp=True, streams=2, ws=96, unroll=2),
        _rand(0.7, fp=True, ws=64, loads=2),
        seed=459, fp=True, desc="FDTD stencils: high IPC, banky"),
    _wl("libquantum", _stream(3.0, ws=HUGE, stride=64, serial=True, unroll=4),
        seed=462, fp=False, desc="streaming over 8MB: ~every load misses L1"),
    _wl("h264ref", _rand(1.4, ws=NEAR_L1, loads=3),
        _bank(1.2, streams=2, ws=128, unroll=2),
        _chase(0.9, ws=320, work=2), _br(0.8, noise=0.04),
        seed=464, fp=False, desc="video encoder: banky INT mix"),
    _wl("lbm", _stream(2.5, fp=True, ws=HUGE, stride=64, serial=False,
                       unroll=4, streams=2),
        _comp(1.0, fp=True, chains=3, length=3),
        seed=470, fp=True, desc="lattice Boltzmann: streaming misses"),
    _wl("omnetpp", _chase(2.0, ws=L2_FIT, work=2),
        _br(1.0, branches=2, period=14, noise=0.09),
        _chase(1.0, ws=384, work=1),
        seed=471, fp=False, desc="discrete event sim: chasing + branches"),
    _wl("astar", _rand(1.2, ws=MIX, loads=2), _br(1.0, noise=0.06, period=8),
        _comp(0.8, chains=2, length=3), _chase(1.4, ws=NEAR_L1, work=2),
        seed=473, fp=False, desc="pathfinding mix"),
    _wl("sphinx3", _rand(1.5, fp=True, ws=MIX, loads=3),
        _comp(1.2, fp=True, chains=3, length=3, mul=5),
        _br(0.8, noise=0.05),
        seed=482, fp=True, desc="speech recognition mix"),
    _wl("xalancbmk", _rand(3.0, ws=HUGE, loads=4, work=2, indirect=False),
        _comp(1.0, chains=3, length=3), _br(0.6, noise=0.03),
        _chase(0.4, ws=384, work=1),
        seed=483, fp=False, desc="XSLT: high IPC *and* ~46% L1 misses"),
]

SUITE: Dict[str, WorkloadSpec] = {spec.name: spec for spec in _ENTRIES}

#: Diverse 12-workload subset used by the quick benchmark runs.
DEFAULT_SUBSET: Tuple[str, ...] = (
    "gzip", "swim", "crafty", "art", "mcf", "gromacs", "hmmer",
    "libquantum", "xalancbmk", "namd", "leslie3d", "omnetpp",
)

