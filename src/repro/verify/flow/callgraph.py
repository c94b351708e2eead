"""Project index and call resolution for the flow analyzer.

The analyzer is *scoped*: it parses a fixed set of modules — the
parallel ER engine, its queues, and the striped cache store —
and treats every call that leaves the set as an opaque identity (no lock
effects, no shared writes).  That boundary is what makes the analysis
precise enough to be a gate: the serial searcher, the stats sinks, and
the telemetry buses are single-owner or internally synchronized by
design and are checked by their own tests; walking into them would
drown the lock-discipline signal in single-owner writes.

Resolution is deliberately simple and over-approximate:

* a ``Name`` call resolves to a module-level function of an analyzed
  module (same module first, then a globally unique name);
* an ``Attribute`` call is only resolved when the receiver expression
  is known to be shared (see :mod:`.lockset`), which keeps worker-local
  helpers like ``SearchStats`` out of the walk.  When the analyzer can
  name the receiver's class — ``self`` is the enclosing class, and
  ``self.x`` (or ``self.x[i]``) the class ``x`` is constructed from or
  annotated with in its class — the call resolves through that class
  and its analyzed bases; a class defined outside the analyzed modules
  is opaque.  Only a receiver of unknown class falls back to matching
  *by method name* every class method of that name across the analyzed
  modules.

Constructors are never entry points and ``__init__``/``__post_init__``
are exempt: shared objects are built single-threaded before any worker
generator runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

#: Modules (repo-relative, posix) whose bodies are interpreted.  Calls
#: into any other module are opaque.
ANALYZED_MODULES: tuple[str, ...] = (
    "src/repro/core/er_parallel.py",
    "src/repro/core/er_queues.py",
    "src/repro/cache/striped.py",
)

#: Functions/methods the interpreter never enters and never checks.
#: Each is a documented exemption from the lock contracts (see the
#: functions' own docstrings):
#: ``expand_positions`` (pop-time node ownership), the telemetry and
#: trace reporters, the relaxed contention counter, the WorkSignal
#: broadcast, and constructors (single-threaded setup).
EXEMPT_CALLS: frozenset[str] = frozenset(
    {
        "expand_positions",
        "_note",
        "_emit",
        "_note_contention",
        "notify_all",
        "__init__",
        "__post_init__",
    }
)

#: Simulator-op constructor names (``yield Acquire(lock)`` etc.).
OP_CONSTRUCTORS: frozenset[str] = frozenset(
    {"Acquire", "Release", "Compute", "WaitWork"}
)

#: Default entry points: the per-processor worker generators.
DEFAULT_ENTRY_NAMES: tuple[str, ...] = ("_worker",)


@dataclass
class FunctionInfo:
    """One function or method of an analyzed module."""

    name: str
    qualname: str
    path: str
    node: ast.FunctionDef
    cls: Optional[str] = None
    is_generator: bool = False
    params: tuple[str, ...] = ()
    #: ``(attr, param)`` when the body is exactly a keyed counter bump
    #: (``self.<attr>[<param>] += ...``): call sites record one write
    #: location per literal key instead of entering the body.
    keyed_counter: Optional[tuple[str, str]] = None

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _param_names(node: ast.FunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


def _is_generator(node: ast.FunctionDef) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _keyed_counter(node: ast.FunctionDef, params: tuple[str, ...]) -> Optional[tuple[str, str]]:
    """Detect the keyed-counter-writer shape (``self.counters[key] += n``)."""
    if not params:
        return None
    for sub in ast.walk(node):
        if not isinstance(sub, ast.AugAssign):
            continue
        target = sub.target
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == params[0]
            and isinstance(target.slice, ast.Name)
            and target.slice.id in params
        ):
            continue
        return target.value.attr, target.slice.id
    return None


#: Container constructors whose element class an attribute's type names
#: (``tuple(C(...) for ...)``, ``list[C]``).
_CONTAINERS = frozenset({"tuple", "list", "Tuple", "List", "Sequence"})

#: An attribute's class: ``(class name, is_container)``.
AttrType = tuple[str, bool]


def _class_name(expr: ast.expr) -> Optional[str]:
    """``C`` for ``C`` or ``mod.C``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _annotation_type(ann: ast.expr) -> Optional[AttrType]:
    """The class an annotation names: ``C``, ``Optional[C]``, ``tuple[C, ...]``."""
    if isinstance(ann, ast.Subscript):
        outer = _class_name(ann.value)
        inner = ann.slice.elts[0] if isinstance(ann.slice, ast.Tuple) else ann.slice
        name = _class_name(inner)
        if name is None:
            return None
        if outer == "Optional":
            return name, False
        return (name, True) if outer in _CONTAINERS else None
    name = _class_name(ann)
    return (name, False) if name is not None else None


def _value_type(value: ast.expr) -> Optional[AttrType]:
    """The class a value is constructed from: ``C(...)``, or a container
    of ``C(...)`` built by a comprehension."""
    if isinstance(value, ast.Call):
        name = _class_name(value.func)
        if name in _CONTAINERS and len(value.args) == 1:
            inner = _value_type(value.args[0])
            return inner if inner is not None and inner[1] else None
        return (name, False) if name is not None else None
    if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
        inner = _value_type(value.elt)
        return (inner[0], True) if inner is not None and not inner[1] else None
    return None


def _untyped_empty(value: ast.expr) -> bool:
    """``None``, ``[]`` or ``()``: compatible with any declared type."""
    return (isinstance(value, ast.Constant) and value.value is None) or (
        isinstance(value, (ast.List, ast.Tuple)) and not value.elts
    )


def _self_name(node: ast.FunctionDef) -> Optional[str]:
    """A method's receiver parameter, or ``None`` for a static method."""
    if any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list):
        return None
    params = _param_names(node)
    return params[0] if params else None


def _attribute_types(cls: ast.ClassDef) -> dict[str, AttrType]:
    """Attributes whose class every binding in ``cls`` agrees on."""
    seen: dict[str, set[Optional[AttrType]]] = {}
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            seen.setdefault(item.target.id, set()).add(_annotation_type(item.annotation))
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        receiver = _self_name(method)
        for node in ast.walk(method):
            targets: list[ast.expr]
            if isinstance(node, ast.AnnAssign):
                targets, typed = [node.target], _annotation_type(node.annotation)
            elif isinstance(node, ast.Assign) and not _untyped_empty(node.value):
                targets, typed = node.targets, _value_type(node.value)
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == receiver
                ):
                    seen.setdefault(target.attr, set()).add(typed)
    return {
        attr: typed
        for attr, kinds in seen.items()
        if len(kinds) == 1
        for typed in kinds
        if typed is not None
    }


@dataclass
class ClassInfo:
    """One class of an analyzed module."""

    name: str
    bases: tuple[str, ...]
    methods: dict[str, FunctionInfo]
    attributes: dict[str, AttrType]


@dataclass
class Project:
    """Parsed analyzed modules plus the function/method indexes."""

    #: repo-relative path -> source text
    sources: dict[str, str]
    trees: dict[str, ast.Module] = field(default_factory=dict)
    #: module path -> {name -> FunctionInfo} for module-level functions
    module_functions: dict[str, dict[str, FunctionInfo]] = field(default_factory=dict)
    #: method name -> every class method of that name, project-wide
    methods: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    #: class names that look like queues (push/pop need a heap lock)
    queue_classes: frozenset[str] = frozenset()
    #: class name -> the class, for every class of the analyzed modules
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        queue_classes: set[str] = set()
        for path, source in self.sources.items():
            tree = ast.parse(source, filename=path)
            self.trees[path] = tree
            functions: dict[str, FunctionInfo] = {}
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    functions[node.name] = self._info(node, path, cls=None)
                elif isinstance(node, ast.ClassDef):
                    if node.name.endswith("Queue"):
                        queue_classes.add(node.name)
                    methods: dict[str, FunctionInfo] = {}
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            info = self._info(item, path, cls=node.name)
                            self.methods.setdefault(item.name, []).append(info)
                            methods[item.name] = info
                    bases = tuple(
                        name for name in map(_class_name, node.bases) if name is not None
                    )
                    self.classes[node.name] = ClassInfo(
                        node.name, bases, methods, _attribute_types(node)
                    )
            self.module_functions[path] = functions
        self.queue_classes = frozenset(queue_classes)

    def _info(self, node: ast.FunctionDef, path: str, cls: Optional[str]) -> FunctionInfo:
        params = _param_names(node)
        qualname = node.name if cls is None else f"{cls}.{node.name}"
        return FunctionInfo(
            name=node.name,
            qualname=qualname,
            path=path,
            node=node,
            cls=cls,
            is_generator=_is_generator(node),
            params=params,
            keyed_counter=_keyed_counter(node, params) if cls is not None else None,
        )

    # -- resolution --------------------------------------------------------

    def resolve_name(self, name: str, from_path: str) -> Optional[FunctionInfo]:
        """A ``Name`` call: same module first, then a globally unique hit."""
        local = self.module_functions.get(from_path, {})
        if name in local:
            return local[name]
        hits = [
            funcs[name]
            for funcs in self.module_functions.values()
            if name in funcs
        ]
        return hits[0] if len(hits) == 1 else None

    def _in_class(self, cls: str, attr: str, what: str) -> Optional[object]:
        """``cls``'s own method or attribute type ``attr``, else its
        analyzed bases'; ``None`` when no analyzed class defines it."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            name = stack.pop(0)
            info = self.classes.get(name)
            if info is None or name in seen:
                continue
            seen.add(name)
            found = getattr(info, what).get(attr)
            if found is not None:
                return found
            stack.extend(info.bases)
        return None

    def receiver_class(self, receiver: ast.expr, caller: FunctionInfo) -> Optional[str]:
        """The class of a call's receiver, when the analyzer can name it.

        ``self`` is the caller's class; ``self.x`` and ``self.x[i]`` are
        the class ``x`` is constructed from or annotated with (a
        container's element class for the subscript).  ``None`` means
        unknown.
        """
        if caller.cls is None:
            return None
        receiver_name = _self_name(caller.node)
        if isinstance(receiver, ast.Name):
            return caller.cls if receiver.id == receiver_name else None
        container = isinstance(receiver, ast.Subscript)
        target = receiver.value if isinstance(receiver, ast.Subscript) else receiver
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == receiver_name
        ):
            return None
        typed = self._in_class(caller.cls, target.attr, "attributes")
        if isinstance(typed, tuple) and typed[1] == container:
            return str(typed[0])
        return None

    def resolve_method(
        self, attr: str, from_path: Optional[str] = None, cls: Optional[str] = None
    ) -> list[FunctionInfo]:
        """An ``Attribute`` call on a shared receiver.

        With the receiver's class known (``cls``), the call resolves
        through that class and its analyzed bases; a class outside the
        analyzed modules, or one that does not define ``attr``, yields
        no candidate (an opaque call).

        With the class unknown, the call matches by name.  Candidates
        from the caller's own module win outright when any exist —
        subsystems (the queues, the cache stripes) are internally
        recursive but never call into each other's same-named methods,
        and cross-module name collisions would otherwise weave their
        lock families into phantom order cycles.
        """
        if cls is not None:
            method = self._in_class(cls, attr, "methods")
            return [method] if isinstance(method, FunctionInfo) else []
        candidates = self.methods.get(attr, [])
        if from_path is not None:
            local = [c for c in candidates if c.path == from_path]
            if local:
                return local
        return candidates

    def entry_points(
        self, entry_names: Iterable[str] = DEFAULT_ENTRY_NAMES
    ) -> list[FunctionInfo]:
        wanted = set(entry_names)
        entries = [
            info
            for functions in self.module_functions.values()
            for name, info in functions.items()
            if name in wanted and info.is_generator
        ]
        return sorted(entries, key=lambda f: f.key)


def load_project(
    root: Path, modules: Iterable[str] = ANALYZED_MODULES
) -> Project:
    """Parse the analyzed modules under repo root ``root``."""
    sources: dict[str, str] = {}
    for rel in modules:
        path = root / rel
        if path.exists():
            sources[rel] = path.read_text()
    return Project(sources=sources)


def project_from_sources(sources: dict[str, str]) -> Project:
    """A project over in-memory sources (fixtures, mutation self-tests)."""
    return Project(sources=dict(sources))
