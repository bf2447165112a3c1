"""Stable serialization helpers for configs, specs and cache keys.

The persistent result cache (:mod:`repro.experiments.engine`) keys entries
by a content hash of everything that can influence a simulation's outcome.
That only works if serialization is *canonical*: the same object always
produces the same bytes, across processes and Python versions. Hence:

* :func:`canonical_json` — sorted keys, no whitespace, no NaN;
* :func:`stable_hash` — sha256 over the canonical JSON;
* :func:`dataclass_from_dict` — the inverse of :func:`dataclasses.asdict`
  for the (nested, frozen) dataclasses used in this codebase;
* :func:`load_structured_file` — the TOML/JSON loader for sweep files;
* :class:`AtomicFile` — write a file so that readers (and concurrent
  writers) only ever see a complete one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from pathlib import Path
from typing import Any, Dict, Type, TypeVar

T = TypeVar("T")

_UNION_TYPES = (typing.Union, getattr(types, "UnionType", typing.Union))
#: ``get_type_hints`` re-evaluates string annotations per call; configs are rebuilt per cell.
_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def stable_hash(obj: Any) -> str:
    """Hex sha256 of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class AtomicFile:
    """A file that appears at ``path`` whole or not at all.

    Bytes go to :attr:`handle`, a temp file beside ``path``, which
    :meth:`commit` renames into place (atomically: the last of
    concurrent writers wins) and :meth:`discard` removes. As a context
    manager it yields the handle and commits unless the block raises.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._tmp = self.path.with_name(
            f"{self.path.name}.{os.urandom(4).hex()}.tmp")
        self.handle = self._tmp.open("xb")

    def commit(self) -> None:
        try:
            self.handle.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self) -> None:
        with contextlib.suppress(OSError):   # a flush fails as writes did
            self.handle.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self.handle

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def load_structured_file(path) -> Dict[str, Any]:
    """Load a ``.toml`` or ``.json`` file into a plain dict.

    Sweep files accept either syntax; dispatch is by file suffix so
    error messages stay precise.
    """
    path = Path(path)
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ImportError:          # Python < 3.11
            try:
                import tomli as tomllib    # type: ignore[no-redef]
            except ImportError:
                raise RuntimeError(
                    f"TOML files need Python 3.11+ (tomllib) or the tomli "
                    f"package; rewrite {path.name} as .json")
        data = tomllib.loads(text)
    elif suffix == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"unsupported file type {path.suffix!r} for {path.name} "
            f"(expected .toml or .json)")
    if not isinstance(data, dict):
        raise ValueError(f"{path.name}: top level must be a table/object")
    return data


def _build(field_type: Any, value: Any) -> Any:
    """Recursively rebuild ``value`` according to ``field_type``."""
    origin = typing.get_origin(field_type)
    if origin in _UNION_TYPES:           # Optional[X] and friends
        args = [a for a in typing.get_args(field_type) if a is not type(None)]
        if value is None:
            return None
        if len(args) == 1:
            return _build(args[0], value)
        return value
    if origin in (tuple, list):
        args = typing.get_args(field_type)
        if args and args[-1] is Ellipsis:        # Tuple[X, ...]
            elem = args[0]
            items = [_build(elem, v) for v in value]
        elif args:
            items = [_build(t, v) for t, v in zip(args, value)]
        else:
            items = list(value)
        return tuple(items) if origin is tuple else items
    if dataclasses.is_dataclass(field_type) and isinstance(value, dict):
        return dataclass_from_dict(field_type, value)
    return value


def dataclass_from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
    """Rebuild a (possibly nested) dataclass from ``dataclasses.asdict``
    output.

    Bare ``tuple`` annotations (e.g. ``WorkloadSpec.kernels``) cannot name
    their element type, so callers needing typed elements should override
    ``from_dict`` on that class (as :class:`WorkloadSpec` does).
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    hints = _type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue                     # fall back to the field default
        kwargs[field.name] = _build(hints[field.name], data[field.name])
    return cls(**kwargs)
