"""Guard against public code that only tests reach.

Every public top-level class and function, and every public method,
under ``src/repro`` must be referenced by name from the program itself: the library, the benchmark,
the examples, the tools or the scripts. A name that only tests call is a
second path the simulator never runs, and a test of it can pass while
the path the simulator does run regresses.

A reference is an identifier or attribute of that name, or a string
constant equal to it (``getattr``-style lookups, the benchmark's method
wrappers). Import lines and ``__all__`` lists do not count: re-exporting
a name is not using it. Private names, dunders and methods overriding a
method of a base class from outside the package (which that base calls,
e.g. ``pickle.Unpickler.find_class``) are not checked.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parents[2]
LIBRARY = ROOT / "src" / "repro"
CALLERS = ("src", "perfbench", "examples", "tools", "scripts")

#: Public names with no caller in the program, kept on purpose.
ALLOWED = frozenset({
    # Read-only measurement accessors, for interactive study.
    "miss_rate", "accuracy", "row_hit_rate", "silenced_fraction",
    "free_slots", "free_counts", "resident_lines", "entry_count",
    "branch_mpki",
    # Reference oracles the tests compare the production paths against.
    "functional_stream", "sample_payloads",
    # repro.perf, kept whole until the benchmark stops importing it.
    "as_dict", "merge",
})


def _python_files(top: Path) -> Iterator[Path]:
    if top.is_dir():
        yield from sorted(top.rglob("*.py"))


def _overrides_external(module: str, cls: str, name: str) -> bool:
    """True when ``module.cls`` inherits ``name`` from a non-repro base."""
    klass = getattr(importlib.import_module(module), cls)
    return any(name in vars(base) for base in klass.__mro__[1:]
               if not base.__module__.startswith("repro"))


def _definitions() -> Dict[str, List[str]]:
    """Public class/function/method name -> the places defining it."""
    found: Dict[str, List[str]] = {}

    def public(node: ast.AST) -> bool:
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_"))

    for path in _python_files(LIBRARY):
        where = str(path.relative_to(ROOT))
        module = ".".join(path.relative_to(LIBRARY.parent)
                          .with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            if public(node) or (is_class and not node.name.startswith("_")):
                found.setdefault(node.name, []).append(f"{where}:{node.name}")
            if not is_class:
                continue
            for member in node.body:
                if public(member) and not _overrides_external(
                        module, node.name, member.name):
                    found.setdefault(member.name, []).append(
                        f"{where}:{node.name}.{member.name}")
    return found


def _skipped_strings(tree: ast.AST) -> Set[int]:
    """ids of string constants inside ``__all__`` assignments."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def _references(paths) -> Set[str]:
    names: Set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        skipped = _skipped_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()
                  and id(node) not in skipped):
                names.add(node.value)
    return names


def unreferenced() -> List[str]:
    """Where each public name that only tests reach is defined."""
    references = _references(path for top in CALLERS
                             for path in _python_files(ROOT / top))
    return sorted(where for name, places in _definitions().items()
                  if name not in references and name not in ALLOWED
                  for where in places)


def test_every_public_function_has_a_caller_outside_the_tests():
    orphans = unreferenced()
    assert not orphans, (
        "public names only tests reach (delete them, or call the "
        "production path from the tests instead):\n" + "\n".join(orphans))


def test_allowlist_names_still_exist():
    defined = _definitions()
    assert sorted(ALLOWED - defined.keys()) == []


def _config_fields(cls, prefix: str) -> Iterator[tuple]:
    """``(field name, dotted path)`` of every field of a config
    dataclass and of the config dataclasses nested in it."""
    defaults = cls()
    for field in dataclasses.fields(cls):
        yield field.name, f"{prefix}.{field.name}"
        value = getattr(defaults, field.name)
        if dataclasses.is_dataclass(value):
            yield from _config_fields(type(value), f"{prefix}.{field.name}")


def test_every_config_field_is_read_by_the_simulator():
    """A config field nothing outside its definition reads is a knob
    that does nothing when set."""
    from repro.common.config import SimConfig

    config_module = LIBRARY / "common" / "config.py"
    references = _references(path for path in _python_files(LIBRARY)
                             if path != config_module)
    unread = sorted(where for name, where in
                    _config_fields(SimConfig, "SimConfig")
                    if name not in references)
    assert not unread, "config fields nothing reads:\n" + "\n".join(unread)
