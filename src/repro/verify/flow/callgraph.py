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
* an ``Attribute`` call resolves *by method name* to every class method
  of that name across the analyzed modules — but only when the receiver
  expression is known to be shared (see :mod:`.lockset`), which keeps
  worker-local helpers like ``SearchStats`` out of the walk.

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
#: staticcheck module docstring and the functions' own docstrings):
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
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            info = self._info(item, path, cls=node.name)
                            self.methods.setdefault(item.name, []).append(info)
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

    def resolve_method(self, attr: str, from_path: Optional[str] = None) -> list[FunctionInfo]:
        """An ``Attribute`` call on a shared receiver: match by name.

        Candidates from the caller's own module win outright when any
        exist — subsystems (the queues, the cache stripes) are
        internally recursive but never call into each other's same-named
        methods, and cross-module name collisions would otherwise weave
        their lock families into phantom order cycles.
        """
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
