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

A second guard holds the machine to live state: every attribute a class
under ``src/repro`` assigns on ``self`` must be read by the program, and
every ``MicroOp`` slot must be read outside the class and the checkpoint
codec. A counter nothing reports costs a hot-path write and a checkpoint
field and measures nothing; ``SimStats`` is where the machine counts.
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
    "accuracy", "silenced_fraction",
    "free_slots", "free_counts", "resident_lines", "entry_count",
    "branch_mpki",
    # Reference oracles the tests compare the production paths against.
    "sample_payloads",
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


def _uncalled() -> Set[str]:
    """Public names nothing in the program references."""
    references = _references(path for top in CALLERS
                             for path in _python_files(ROOT / top))
    return {name for name in _definitions() if name not in references}


def unreferenced() -> List[str]:
    """Where each public name that only tests reach is defined."""
    uncalled = _uncalled() - ALLOWED
    return sorted(where for name, places in _definitions().items()
                  if name in uncalled for where in places)


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


#: Methods whose reads keep no state alive: a checkpoint saves and
#: restores every field, whether the program uses it or not.
CHECKPOINT_METHODS = frozenset({"state_dict", "load_state_dict"})

#: Files that touch every ``MicroOp`` slot by construction: the class
#: itself and the checkpoint codec.
UOP_PLUMBING = (LIBRARY / "isa" / "uop.py",
                LIBRARY / "checkpoint" / "state.py")


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _receiver_attr(node: ast.AST, receiver: str):
    """``x`` when ``node`` is ``receiver.x`` or ``receiver.x[...]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == receiver):
        return node.attr
    return None


class _StateScan(ast.NodeVisitor):
    """One file's attribute traffic.

    ``writes``/``self_reads`` map a class name to the attributes its
    methods assign/read on their receiver; ``other_reads`` holds the
    attributes the file reads on any other object (and identifier
    strings, for ``getattr``); ``imports`` the modules it imports from.
    Reads inside :data:`CHECKPOINT_METHODS` and inside the functions in
    ``skipped`` (which nothing in the program calls) are not reads. A
    subscript store ``obj.x[i] = v`` writes ``x``. A read that only
    feeds a write of the same attribute (``self.x = self.x + 1``,
    ``if v > self.peak: self.peak = v``) is part of that write.
    """

    def __init__(self, skipped: Set[str]) -> None:
        self.skipped = skipped | CHECKPOINT_METHODS
        self.bases: Dict[str, Set[str]] = {}
        self.writes: Dict[str, Set[str]] = {}
        self.self_reads: Dict[str, Set[str]] = {}
        self.other_reads: Set[str] = set()
        self.imports: Set[str] = set()
        self._cls = None
        self._me = None
        self._in_method = False
        self._not_reads: Set[int] = set()

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.update(alias.name for alias in node.names)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            self.imports.add(node.module)
            self.imports.update(f"{node.module}.{alias.name}"
                                for alias in node.names)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases[node.name] = {
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))}
        outer = (self._cls, self._me, self._in_method)
        self._cls, self._me, self._in_method = node.name, None, False
        self.generic_visit(node)
        self._cls, self._me, self._in_method = outer

    def visit_FunctionDef(self, node) -> None:
        if node.name in self.skipped:
            return
        outer = (self._me, self._in_method)
        if self._cls is not None and not self._in_method:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            args = node.args.posonlyargs + node.args.args
            self._me = args[0].arg if args and not static else None
            self._in_method = True
        self.generic_visit(node)
        self._me, self._in_method = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _store(self, targets) -> Set[str]:
        """Record the attribute writes among ``targets``; returns the
        receiver attributes written."""
        written: Set[str] = set()
        todo = list(targets)
        while todo:
            target = todo.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                todo.extend(target.elts)
            elif isinstance(target, ast.Starred):
                todo.append(target.value)
            else:
                attr = self._me and _receiver_attr(target, self._me)
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    self._not_reads.add(id(target))
                if attr:
                    written.add(attr)
        if written:
            self.writes.setdefault(self._cls, set()).update(written)
        return written

    def _feeds(self, node: ast.AST, written: Set[str]) -> None:
        """Reads of ``written`` receiver attributes inside ``node`` are
        part of the write they feed."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and self._me \
                    and _receiver_attr(sub, self._me) in written:
                self._not_reads.add(id(sub))

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id in ("__slots__", "__all__")
               for t in node.targets):
            return                      # declarations, not reads
        self._feeds(node.value, self._store(node.targets))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        written = self._store([node.target])
        if node.value is not None:
            self._feeds(node.value, written)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store([node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._store(node.targets)
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        if self._me and not node.orelse and all(
                isinstance(s, (ast.Assign, ast.AugAssign)) for s in node.body):
            written = {_receiver_attr(t, self._me) for s in node.body
                       for t in (s.targets if isinstance(s, ast.Assign)
                                 else [s.target])}
            if None not in written:     # the branch only keeps these up
                self._feeds(node.test, written)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._not_reads:
            if (self._me and isinstance(node.value, ast.Name)
                    and node.value.id == self._me):
                self.self_reads.setdefault(self._cls, set()).add(node.attr)
            else:
                self.other_reads.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.other_reads.add(node.value)


def _scans() -> Dict[Path, _StateScan]:
    uncalled = _uncalled()
    scans = {}
    for top in CALLERS:
        for path in _python_files(ROOT / top):
            scan = _StateScan(uncalled)
            scan.visit(ast.parse(path.read_text()))
            scans[path] = scan
    return scans


def _lineages(scans) -> Dict[str, Set[str]]:
    """Class name -> the class, its ancestors and its descendants (an
    attribute a base assigns, a subclass may read, and back; siblings
    share nothing)."""
    bases: Dict[str, Set[str]] = {}
    for scan in scans.values():
        for name, named in scan.bases.items():
            bases.setdefault(name, set()).update(named)

    def ancestors(name: str) -> Set[str]:
        found: Set[str] = set()
        todo = [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    lineage = {name: {name} | ancestors(name) for name in bases}
    for name in bases:
        for ancestor in lineage[name] - {name}:
            lineage.setdefault(ancestor, {ancestor}).add(name)
    return lineage


def write_only_state() -> List[str]:
    """``path:Class.attr`` of every attribute a library class assigns
    on ``self`` that the program never reads.

    A read on ``self`` counts for the reading class's lineage. A read on
    any other object counts by attribute name; when several library
    classes assign that name, it counts for those whose module the
    reading file imports (or all of them, when it imports none).
    """
    scans = _scans()
    lineage = _lineages(scans)
    owners: Dict[str, Set[tuple]] = {}
    for path, scan in scans.items():
        if LIBRARY in path.parents:
            for cls, attrs in scan.writes.items():
                for attr in attrs:
                    owners.setdefault(attr, set()).add(
                        (_module_name(path), cls))

    def sees(scan: _StateScan, module: str) -> bool:
        return any(module == name or module.startswith(name + ".")
                   for name in scan.imports)

    live: Set[tuple] = set()           # (class, attr) pairs read
    for scan in scans.values():
        for cls, attrs in scan.self_reads.items():
            live.update((member, attr) for member in lineage.get(cls, {cls})
                        for attr in attrs)
        for attr in scan.other_reads & owners.keys():
            seen = {(module, cls) for module, cls in owners[attr]
                    if sees(scan, module)} or owners[attr]
            live.update((member, attr) for _, cls in seen
                        for member in lineage.get(cls, {cls}))
    return sorted(f"{path.relative_to(ROOT)}:{cls}.{attr}"
                  for path, scan in scans.items() if LIBRARY in path.parents
                  for cls, attrs in scan.writes.items()
                  for attr in attrs if (cls, attr) not in live)


def test_every_attribute_assigned_on_self_is_read():
    unread = write_only_state()
    assert not unread, (
        "state the program only writes (delete it; count in SimStats "
        "what should be reported):\n" + "\n".join(unread))


def test_every_uop_slot_is_read_outside_its_plumbing():
    from repro.isa.uop import MicroOp

    reads: Set[str] = set()
    for path, scan in _scans().items():
        if path not in UOP_PLUMBING:
            reads |= scan.other_reads
    unread = sorted(set(MicroOp.__slots__) - reads)
    assert not unread, ("MicroOp slots nothing reads:\n"
                        + "\n".join(unread))
