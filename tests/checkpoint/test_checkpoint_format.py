"""Checkpoint file-format tests: header, digest, tamper resistance."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.format import (
    CHECKPOINT_SCHEMA,
    CONTAINER,
    CheckpointError,
    FORMAT_VERSION,
    _dumps,
    load_checkpoint,
    read_info,
    save_checkpoint,
    verify_checkpoint,
)
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload


@pytest.fixture(scope="module")
def warm_sim():
    workload = resolve_workload("gzip")
    sim = Simulator(make_config("SpecSched_4_Combined"),
                    workload.build_trace(1))
    sim.fast_forward(5_000)
    sim.run(max_uops=2_000)
    return workload, sim


def test_info_fields(tmp_path, warm_sim):
    workload, sim = warm_sim
    path = tmp_path / "a.ckpt"
    info = save_checkpoint(sim, path, workload=workload, seed=1,
                           provenance={"mode": "detailed"})
    assert info.version == FORMAT_VERSION
    assert info.config_name == "SpecSched_4_Combined"
    assert info.workload_name == "gzip"
    assert info.seed == 1
    assert info.uops_committed == sim.stats.committed_uops
    assert info.cycles == sim.stats.cycles
    assert info.provenance["mode"] == "detailed"
    assert len(info.digest) == 64
    assert info.file_bytes == path.stat().st_size
    assert info.raw_bytes > info.file_bytes  # zlib actually compressed
    assert read_info(path).digest == info.digest


def test_digest_is_content_addressed(tmp_path, warm_sim):
    """Same state → same digest, independent of path."""
    workload, sim = warm_sim
    a = save_checkpoint(sim, tmp_path / "a.ckpt", workload=workload, seed=1)
    b = save_checkpoint(sim, tmp_path / "b.ckpt", workload=workload, seed=1)
    assert a.digest == b.digest
    # ... and a different state digests differently.
    sim.run(max_uops=sim.stats.committed_uops + 500)
    c = save_checkpoint(sim, tmp_path / "d.ckpt", workload=workload, seed=1)
    assert c.digest != a.digest


# Header faults and truncation: tests/common/test_container.py


def test_corrupt_payload_rejected(tmp_path, warm_sim):
    workload, sim = warm_sim
    path = tmp_path / "c.ckpt"
    save_checkpoint(sim, path, workload=workload, seed=1)
    data = bytearray(path.read_bytes())
    data[-20] ^= 0xFF                    # flip a payload byte
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _hand_made(path, payload) -> None:
    """A checkpoint file of ``payload`` pickled as is, bypassing the
    canonical encoder and its state shape."""
    import pickle

    CONTAINER.write(path, {"schema": CHECKPOINT_SCHEMA},
                    (pickle.dumps(payload, protocol=4),), level=1)


def test_code_bearing_payload_rejected(tmp_path):
    """A payload referencing any global (class/function) must not load."""
    import math

    path = tmp_path / "evil.ckpt"
    _hand_made(path, {"evil": math.sqrt})
    with pytest.raises(CheckpointError, match="plain data"):
        load_checkpoint(path)


@pytest.mark.parametrize("payload", [
    [1, 2, 3],
    {"config": {}, "workload": None, "seed": 1},
    {"config": [], "workload": None, "seed": 1, "sim": {}},
    {"config": {}, "workload": None, "seed": 1, "sim": 7},
], ids=["list", "no-sim", "config-not-dict", "sim-not-dict"])
def test_non_state_payload_rejected(tmp_path, payload):
    """A payload whose digest checks out but that is not a checkpoint
    state is refused on load, before anything uses it."""
    path = tmp_path / "odd.ckpt"
    _hand_made(path, payload)
    assert verify_checkpoint(path).digest == read_info(path).digest
    with pytest.raises(CheckpointError, match="not a checkpoint state"):
        load_checkpoint(path)


def test_restore_without_workload_needs_trace(tmp_path, warm_sim):
    _workload, sim = warm_sim
    path = tmp_path / "n.ckpt"
    save_checkpoint(sim, path, workload=None, seed=None)
    loaded = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="no workload"):
        loaded.restore()
    # ... but an explicit equivalent trace works.
    workload = resolve_workload("gzip")
    restored = loaded.restore(trace=workload.build_trace(1))
    assert restored.stats.to_dict() == sim.stats.to_dict()


def test_verify_checkpoint_checks_digest_without_decoding(
        tmp_path, warm_sim, monkeypatch):
    from repro.checkpoint import format as checkpoint_format

    workload, sim = warm_sim
    path = tmp_path / "v.ckpt"
    saved = save_checkpoint(sim, path, workload=workload, seed=1)

    def refuse(raw):
        raise AssertionError("verify_checkpoint must not unpickle")

    monkeypatch.setattr(checkpoint_format, "_loads", refuse)
    assert verify_checkpoint(path) == saved
    data = bytearray(path.read_bytes())
    data[-20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="corrupt|digest"):
        verify_checkpoint(path)


# ---------------------------------------------------------------------------
# Payload bytes: the digest is a cache-key ingredient, so it is pinned


def _rebuilt_canonical_state(obj):
    """Canonicalisation that rebuilds every container — the reference
    the payload encoder must stay byte-equal to."""
    if isinstance(obj, dict):
        try:
            items = sorted(obj.items())
        except TypeError:
            items = list(obj.items())
        return {key: _rebuilt_canonical_state(value) for key, value in items}
    if isinstance(obj, list):
        return [_rebuilt_canonical_state(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(_rebuilt_canonical_state(value) for value in obj)
    return obj


def _reference_dumps(state):
    import io
    import pickle

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(_rebuilt_canonical_state(state))
    return buffer.getvalue()


#: Dicts inside lists and tuples, tuples inside lists, unorderable keys
#: (insertion order kept), and int, bool, str and None leaves.
PINNED_STATE = {
    "zeta": [3, (1, [2, {"y": False, "x": "leaf"}]), [(4, 5), (6,)]],
    "alpha": ({"k": [None, -7], "b": (True, 0)}, [{"n": 1}], ()),
    "mixed": {2: "int key", "s": "str key", 1: [1, 2]},
    "table": list(range(-3, 13)),
    "flags": (True, False, 0, 1),
    "empty": {"list": [], "dict": {}, "text": ""},
}


def test_payload_digest_is_pinned():
    raw = _dumps(PINNED_STATE)
    assert raw == _reference_dumps(PINNED_STATE)
    assert hashlib.sha256(raw).hexdigest() == (
        "21bce33f06ee0f2e06e15f9e279bbd1555f0dc6987bac54d97c6c103dbc0473f")


_leaves = st.one_of(st.integers(min_value=-2**40, max_value=2**40),
                    st.booleans(), st.text(max_size=3), st.none())
_states = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2),
                                  st.integers(min_value=-3, max_value=3)),
                        children, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(state=_states)
def test_payload_bytes_match_full_rebuild(state):
    assert _dumps(state) == _reference_dumps(state)
