"""AST lint enforcing the repo's concurrency and determinism invariants.

Six rules — VER001 to VER004, VER007 and VER008 — each an invariant
the rest of the codebase argues from.  The numbers VER005, VER006 and
VER009 are retired: they kept hand-written op and event tables in sync,
and those tables are gone.  Each op class now declares its metric and
loss class (:mod:`repro.sim.ops`) and each event type its metric
(:data:`repro.obs.events.EVENT_TYPES`); a missing declaration fails at
import or at emit.

* **VER001 — lock discipline in the parallel ER workers.**  Every
  module-level worker generator in ``core/er_parallel.py`` is walked
  path-sensitively, tracking the set of locks held across
  ``yield Acquire(...)`` / ``yield Release(...)``.  Tree-mutating
  ``ctx`` methods must be called with the tree lock held, heap
  operations with a heap lock held, counter bumps with *some* lock
  held, and direct attribute stores (``node.value = ...``) with a lock
  held; generators must delegate (``yield from``), wait, and return
  with no locks held, and branches/loops must agree on what they hold.
  ``_Context.expand_positions`` is the one documented exemption (the
  popping worker owns the node; see its docstring).
* **VER002 — engine accounting coverage.**  Every ``Op`` subclass in
  ``sim/ops.py`` must be a frozen dataclass and must have an
  ``isinstance`` arm in ``Engine._handle`` — an op the engine silently
  drops would corrupt the simulated clock.
* **VER003 — determinism.**  No wall-clock reads (``time.*``,
  ``datetime.*``) and no unseeded randomness (``random.*`` other than
  ``random.Random(seed)``) anywhere in ``sim/``, ``core/``, or
  ``cache/``: identical
  runs must produce identical reports, which the determinism tests and
  the race-detector clean-trace gates both rely on.
* **VER004 — picklable multiproc boundary.**  In the modules of
  :data:`PICKLE_BOUNDARY` (``parallel/multiproc.py`` and its task
  channel ``parallel/channel.py``), every task submitted to an
  executor, every ``target=`` of a process and every worker
  ``initializer=`` must be a module-level function referenced by name,
  never a closure, lambda, or bound method — the spawn start method
  would fail at runtime, and only on platforms that spawn.  A call on
  ``self`` is a class's own method, not a submission.
* **VER007 — eval-parity coverage.**  Every class in ``games/`` that
  implements ``batch_eval`` must be named in
  ``tests/test_eval_differential.py`` — a vectorized evaluator the
  differential battery never exercises could silently diverge from its
  scalar twin, and every search result computed through the batching
  seam would be wrong with all parity gates still green.  ``Protocol``
  classes are declarations, not implementations, and are skipped.
* **VER008 — clock/RNG seams.**  In the sim-deterministic packages
  (``sim/``, ``core/``, ``obs/``) any ``time.*``/``datetime.*``/
  ``random.*`` attribute reference — call or bare — must go through a
  sanctioned seam (``_CLOCK_SEAMS``): the event bus's injectable clock,
  the span ring's wall clock, and the ledger's record timestamp.
  Stricter than VER003 because a bare ``time.perf_counter`` stored as
  a default is nondeterminism deferred, not avoided.

The multiproc coordinator itself is exempt from VER001 by design: it is
single-threaded, and worker processes share nothing (DESIGN.md
"Verification").  A finding can be suppressed by appending
``# verify: ok`` to the offending line, which is meant for accesses that
are safe for reasons the lint cannot see; every use should carry a
comment explaining why.

Run as ``python -m repro.verify.staticcheck [root]``, via
``repro-gametree verify``, or through ``tests/test_verify_staticcheck.py``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: ``ctx``/``self`` methods that read or write shared tree state and must
#: run under the tree lock.
TREE_METHODS = frozenset(
    {
        "combine",
        "make_child",
        "maybe_push_spec",
        "select_e_child",
        "start_refutation",
        "_convert_to_r",
        "_check_e_node",
        "_dispatch_at",
        "window",
        "is_cut_off",
        "has_finished_ancestor",
        "_best_candidate",
        "_active_e_children",
        "screen",
        "expand_children",
        "speculative_step",
        "refute_plan",
        "finish",
        "_mark_refuted_if_cut",
    }
)

#: ``ctx`` methods that operate on the problem heap queues.
HEAP_METHODS = frozenset({"pop_work", "publish"})

#: Substrings identifying a queue object whose push/pop needs a heap lock.
_QUEUE_HINTS = ("primary", "speculative", "local_queues", "queues")

#: Documented exemptions from the lock contracts (see module docstring).
EXEMPT_METHODS = frozenset({"expand_positions", "_note", "notify_all"})


@dataclass(frozen=True)
class LintFinding:
    """One invariant violation found by the static checker."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _suppressed_lines(source: str) -> frozenset[int]:
    return frozenset(
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if "# verify: ok" in text
    )


def _lock_category(lock_text: str) -> str:
    return "tree" if "tree" in lock_text else "heap"


def _holds(held: frozenset[str], category: str) -> bool:
    return any(_lock_category(text) == category for text in held)


class _WorkerAnalyzer:
    """Path-sensitive held-lock analysis of one worker generator (VER001)."""

    def __init__(self, path: str, func: ast.FunctionDef) -> None:
        self.path = path
        self.func = func
        self.findings: list[LintFinding] = []
        self._loop_entry: list[frozenset[str]] = []

    def run(self) -> list[LintFinding]:
        held, terminated = self._block(self.func.body, frozenset())
        if not terminated and held:
            self._report(
                self.func.lineno,
                f"generator {self.func.name!r} can finish still holding {sorted(held)}",
            )
        return self.findings

    # -- reporting ---------------------------------------------------------

    def _report(self, line: int, message: str) -> None:
        self.findings.append(LintFinding("VER001", self.path, line, message))

    # -- statement walk ----------------------------------------------------

    def _block(
        self, stmts: Sequence[ast.stmt], held: frozenset[str]
    ) -> tuple[frozenset[str], bool]:
        terminated = False
        for stmt in stmts:
            if terminated:
                break  # unreachable code; stop analyzing
            held, terminated = self._stmt(stmt, held)
        return held, terminated

    def _stmt(self, stmt: ast.stmt, held: frozenset[str]) -> tuple[frozenset[str], bool]:
        if isinstance(stmt, ast.Expr):
            held = self._value_effects(stmt.value, held)
            self._check_calls(stmt, held)
            return held, False
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = stmt.value
            if value is not None:
                held = self._value_effects(value, held)
            self._check_attribute_stores(stmt, held)
            self._check_calls(stmt, held)
            return held, False
        if isinstance(stmt, ast.Return):
            self._check_calls(stmt, held)
            if held:
                self._report(
                    stmt.lineno, f"returns while still holding {sorted(held)}"
                )
            return held, True
        if isinstance(stmt, ast.Raise):
            return held, True
        if isinstance(stmt, (ast.Continue, ast.Break)):
            if self._loop_entry and held != self._loop_entry[-1]:
                self._report(
                    stmt.lineno,
                    f"{'continue' if isinstance(stmt, ast.Continue) else 'break'} "
                    f"with held locks {sorted(held)} != loop entry "
                    f"{sorted(self._loop_entry[-1])}",
                )
            return held, True
        if isinstance(stmt, ast.If):
            self._check_calls(stmt.test, held)
            body_held, body_term = self._block(stmt.body, held)
            else_held, else_term = self._block(stmt.orelse, held)
            if body_term and else_term:
                return held, True
            if body_term:
                return else_held, False
            if else_term:
                return body_held, False
            if body_held != else_held:
                self._report(
                    stmt.lineno,
                    f"branches disagree on held locks: {sorted(body_held)} "
                    f"vs {sorted(else_held)}",
                )
            return body_held & else_held, False
        if isinstance(stmt, (ast.While, ast.For)):
            probe = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            self._check_calls(probe, held)
            self._loop_entry.append(held)
            body_held, body_term = self._block(stmt.body, held)
            self._loop_entry.pop()
            if not body_term and body_held != held:
                self._report(
                    stmt.lineno,
                    f"loop body is lock-unbalanced: enters with {sorted(held)}, "
                    f"ends with {sorted(body_held)}",
                )
            self._block(stmt.orelse, held)
            return held, False
        if isinstance(stmt, ast.Assert):
            self._check_calls(stmt, held)
            return held, False
        # with/try/match never appear in the worker generators; analyze
        # their bodies conservatively without balance guarantees.
        for field_stmts in ast.iter_child_nodes(stmt):
            if isinstance(field_stmts, ast.stmt):
                held, _ = self._stmt(field_stmts, held)
        return held, False

    # -- lock effects ------------------------------------------------------

    def _value_effects(self, value: ast.expr, held: frozenset[str]) -> frozenset[str]:
        """Apply the held-set effects of yielded simulator ops."""
        if isinstance(value, ast.YieldFrom):
            if held:
                target = ast.unparse(value.value)
                self._report(
                    value.lineno,
                    f"delegates to {target} while holding {sorted(held)}; "
                    "sub-generators manage their own locks",
                )
            return held
        if not isinstance(value, ast.Yield) or value.value is None:
            return held
        op = value.value
        if not (isinstance(op, ast.Call) and isinstance(op.func, ast.Name)):
            return held
        if op.func.id == "Acquire" and op.args:
            text = ast.unparse(op.args[0])
            if text in held:
                self._report(op.lineno, f"re-acquires {text} (non-reentrant)")
            return held | {text}
        if op.func.id == "Release" and op.args:
            text = ast.unparse(op.args[0])
            if text not in held:
                self._report(op.lineno, f"releases {text} without acquiring it")
            return held - {text}
        if op.func.id == "WaitWork" and held:
            self._report(
                op.lineno, f"waits for work while holding {sorted(held)} (deadlock)"
            )
        return held

    # -- contracts ---------------------------------------------------------

    def _check_attribute_stores(self, stmt: ast.stmt, held: frozenset[str]) -> None:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        else:
            targets = [stmt.target]  # type: ignore[list-item]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    if not held:
                        self._report(
                            node.lineno,
                            f"stores shared attribute "
                            f"{ast.unparse(node)!r} with no lock held",
                        )

    def _check_calls(self, root: ast.AST, held: frozenset[str]) -> None:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            attr = func.attr
            base = ast.unparse(func.value)
            if attr in EXEMPT_METHODS:
                continue
            if attr in TREE_METHODS and base in ("ctx", "self"):
                if not _holds(held, "tree"):
                    self._report(
                        node.lineno,
                        f"ctx.{attr}() called without the tree lock "
                        f"(held: {sorted(held)})",
                    )
            elif attr in HEAP_METHODS and base in ("ctx", "self"):
                if not _holds(held, "heap"):
                    self._report(
                        node.lineno,
                        f"ctx.{attr}() called without a heap lock "
                        f"(held: {sorted(held)})",
                    )
            elif attr in ("push", "pop") and any(h in base for h in _QUEUE_HINTS):
                if not _holds(held, "heap"):
                    self._report(
                        node.lineno,
                        f"{base}.{attr}() called without a heap lock "
                        f"(held: {sorted(held)})",
                    )
            elif attr == "_bump" and not held:
                self._report(
                    node.lineno,
                    "counter bump with no lock held (lost-update window)",
                )


def _is_worker_generator(func: ast.FunctionDef) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(func))


def check_lock_discipline(path: str, source: str) -> list[LintFinding]:
    """VER001 over every module-level worker generator in ``source``."""
    tree = ast.parse(source, filename=path)
    findings: list[LintFinding] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _is_worker_generator(node):
            findings.extend(_WorkerAnalyzer(path, node).run())
    return findings


def check_op_coverage(
    ops_path: str, ops_source: str, engine_path: str, engine_source: str
) -> list[LintFinding]:
    """VER002: every Op subclass is frozen and handled by the engine."""
    findings: list[LintFinding] = []
    ops_tree = ast.parse(ops_source, filename=ops_path)
    op_classes: dict[str, ast.ClassDef] = {}
    for node in ops_tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "Op" for base in node.bases
        ):
            op_classes[node.name] = node

    for name, cls in op_classes.items():
        frozen = any(
            isinstance(dec, ast.Call)
            and isinstance(dec.func, ast.Name)
            and dec.func.id == "dataclass"
            and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            for dec in cls.decorator_list
        )
        if not frozen:
            findings.append(
                LintFinding(
                    "VER002",
                    ops_path,
                    cls.lineno,
                    f"op {name} is not a frozen dataclass (workers could "
                    "mutate an op after yielding it)",
                )
            )

    handled: set[str] = set()
    handle_fn: Optional[ast.FunctionDef] = None
    engine_tree = ast.parse(engine_source, filename=engine_path)
    for node in ast.walk(engine_tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_handle":
            handle_fn = node
            break
    if handle_fn is None:
        findings.append(
            LintFinding("VER002", engine_path, 1, "Engine._handle not found")
        )
        return findings
    for node in ast.walk(handle_fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
        ):
            handled.add(node.args[1].id)
    for name, cls in sorted(op_classes.items()):
        if name not in handled:
            findings.append(
                LintFinding(
                    "VER002",
                    engine_path,
                    handle_fn.lineno,
                    f"Engine._handle has no isinstance arm for op {name}; "
                    "its time would never be accounted",
                )
            )
    return findings


def _op_class_names(ops_source: str, ops_path: str) -> set[str]:
    """Names of the ``Op`` subclasses defined at module level."""
    tree = ast.parse(ops_source, filename=ops_path)
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "Op" for base in node.bases)
    }


def _batch_eval_classes(source: str, path: str) -> list[tuple[str, int]]:
    """(name, line) of classes in ``source`` defining ``batch_eval``.

    ``Protocol`` classes (structural interfaces such as ``Game``) declare
    the method without implementing it and are skipped.
    """
    tree = ast.parse(source, filename=path)
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(
            (isinstance(base, ast.Name) and base.id == "Protocol")
            or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
            for base in node.bases
        ):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "batch_eval"
            ):
                found.append((node.name, node.lineno))
                break
    return found


def check_eval_parity_coverage(
    game_sources: Iterable[tuple[str, str]], battery_source: str
) -> list[LintFinding]:
    """VER007: the differential battery names every ``batch_eval`` class.

    ``game_sources`` is ``(path, source)`` per module under ``games/``;
    ``battery_source`` is the text of ``tests/test_eval_differential.py``.
    Name presence is textual on purpose: the battery constructs games
    through factories and adapters, so requiring the class name anywhere
    in the file is the strongest check that survives refactors.
    """
    findings: list[LintFinding] = []
    for path, source in game_sources:
        for name, lineno in _batch_eval_classes(source, path):
            if name not in battery_source:
                findings.append(
                    LintFinding(
                        "VER007",
                        path,
                        lineno,
                        f"class {name} implements batch_eval but is never "
                        "named in tests/test_eval_differential.py; its "
                        "vectorized evaluator could diverge from the scalar "
                        "one with every parity gate still green",
                    )
                )
    return findings


def check_determinism(path: str, source: str) -> list[LintFinding]:
    """VER003: no wall clock, no unseeded randomness."""
    findings: list[LintFinding] = []
    tree = ast.parse(source, filename=path)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        base = func.value
        if not isinstance(base, ast.Name):
            continue
        if base.id in ("time", "datetime"):
            findings.append(
                LintFinding(
                    "VER003",
                    path,
                    node.lineno,
                    f"wall-clock call {base.id}.{func.attr}() in deterministic "
                    "code; simulated time is the only clock here",
                )
            )
        elif base.id == "random":
            if func.attr == "Random" and (node.args or node.keywords):
                continue  # seeded generator instance: allowed
            findings.append(
                LintFinding(
                    "VER003",
                    path,
                    node.lineno,
                    f"unseeded randomness random.{func.attr}() in deterministic "
                    "code; use a seeded random.Random instance",
                )
            )
    return findings


#: Sanctioned wall-clock/randomness seams for VER008: (file name,
#: enclosing function, dotted reference).  Each is the single injection
#: point where a real clock may enter — everything downstream takes the
#: value through a parameter or the bus clock and stays replayable.
_CLOCK_SEAMS: frozenset[tuple[str, str, str]] = frozenset(
    {
        ("events.py", "__init__", "time.perf_counter"),
        ("events.py", "use_clock", "time.perf_counter"),
        ("ledger.py", "make_record", "time.time"),
        # The span ring's single wall-clock entry point: every live-trace
        # timestamp flows through it or through an injected clock.
        ("live.py", "wall_clock", "time.perf_counter"),
    }
)


def check_clock_seams(path: str, source: str) -> list[LintFinding]:
    """VER008: wall clock/randomness only through sanctioned seams.

    Stricter than VER003: *any* ``time.*``/``datetime.*``/``random.*``
    attribute reference — not just a call — is flagged, because a bare
    ``time.perf_counter`` stored as a default clock smuggles
    nondeterminism just as surely as calling it.  Seeded
    ``random.Random`` stays allowed (VER003's rule), and the named
    seams in ``_CLOCK_SEAMS`` are the documented injection points.
    """
    findings: list[LintFinding] = []
    tree = ast.parse(source, filename=path)
    name = Path(path).name
    owner: dict[int, str] = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(func):
                owner.setdefault(id(sub), func.name)
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("time", "datetime", "random")
        ):
            continue
        dotted = f"{node.value.id}.{node.attr}"
        if dotted == "random.Random":
            continue  # seeding discipline is VER003's concern
        function = owner.get(id(node), "<module>")
        if (name, function, dotted) in _CLOCK_SEAMS:
            continue
        findings.append(
            LintFinding(
                "VER008",
                path,
                node.lineno,
                f"{dotted} referenced in sim-deterministic code "
                f"({function}); route it through a sanctioned clock/RNG "
                "seam or inject it as a parameter",
            )
        )
    return findings


#: Modules under ``parallel/`` whose calls ship functions to worker processes.
PICKLE_BOUNDARY = ("multiproc.py", "channel.py")


def check_pickle_boundary(path: str, source: str) -> list[LintFinding]:
    """VER004: what crosses into a worker process must be a module-level function.

    That is the task of an executor submission, a process ``target=``,
    and a worker ``initializer=``.
    """
    findings: list[LintFinding] = []
    tree = ast.parse(source, filename=path)
    module_funcs = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        shipped: list[tuple[str, ast.expr]] = [
            (f"{keyword.arg}=", keyword.value)
            for keyword in node.keywords
            if keyword.arg in ("target", "initializer")
        ]
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "apply_async", "map")
            and node.args
            # ``self.submit(...)`` is the class's own method, not an executor.
            and ast.unparse(node.func.value) != "self"
        ):
            shipped.append(("task", node.args[0]))
        for role, fn in shipped:
            if isinstance(fn, ast.Name) and fn.id in module_funcs:
                continue
            findings.append(
                LintFinding(
                    "VER004",
                    path,
                    node.lineno,
                    f"{role} {ast.unparse(fn)!r} shipped to a worker process is not "
                    "a module-level function; it cannot pickle under spawn",
                )
            )
    return findings


def _filter_suppressed(
    findings: Iterable[LintFinding], source: str
) -> list[LintFinding]:
    suppressed = _suppressed_lines(source)
    return [f for f in findings if f.line not in suppressed]


def check_file(
    path: str, source: Optional[str] = None, rules: Optional[set[str]] = None
) -> list[LintFinding]:
    """Run the applicable rules on one file.

    ``rules`` selects rule ids explicitly (e.g. ``{"VER003"}``); when
    omitted they are inferred from the file name the way
    :func:`check_repo` would (VER002 is repo-level only — it needs both
    ``ops.py`` and ``engine.py`` — so it never runs here by inference).
    """
    if source is None:
        source = Path(path).read_text()
    name = Path(path).name
    if rules is None:
        rules = {"VER003"}
        if name == "er_parallel.py":
            rules.add("VER001")
        if "multiproc" in name or name in PICKLE_BOUNDARY:
            rules.add("VER004")
            rules.discard("VER003")  # the coordinator measures wall time
    findings: list[LintFinding] = []
    if "VER001" in rules:
        findings.extend(check_lock_discipline(path, source))
    if "VER003" in rules:
        findings.extend(check_determinism(path, source))
    if "VER004" in rules:
        findings.extend(check_pickle_boundary(path, source))
    if "VER008" in rules:
        findings.extend(check_clock_seams(path, source))
    return _filter_suppressed(findings, source)


def check_repo(root: Optional[str] = None) -> list[LintFinding]:
    """Run every rule over the repository rooted at ``root``.

    ``root`` is the repo root (the directory holding ``src/``); defaults
    to the ancestor of this file.
    """
    base = Path(root) if root is not None else Path(__file__).resolve().parents[3]
    src = base / "src" / "repro"
    if not src.is_dir():
        raise FileNotFoundError(f"not a repo root: {base} (no src/repro)")
    findings: list[LintFinding] = []

    er_parallel = src / "core" / "er_parallel.py"
    findings.extend(check_file(str(er_parallel), rules={"VER001"}))

    ops = src / "sim" / "ops.py"
    engine = src / "sim" / "engine.py"
    findings.extend(
        check_op_coverage(
            str(ops), ops.read_text(), str(engine), engine.read_text()
        )
    )

    for directory in (src / "sim", src / "core", src / "cache"):
        for path in sorted(directory.glob("*.py")):
            findings.extend(check_file(str(path), rules={"VER003"}))

    for directory in (src / "sim", src / "core", src / "obs"):
        for path in sorted(directory.glob("*.py")):
            findings.extend(check_file(str(path), rules={"VER008"}))

    for name in PICKLE_BOUNDARY:
        module = src / "parallel" / name
        if module.exists():
            findings.extend(check_file(str(module), rules={"VER004"}))

    battery = base / "tests" / "test_eval_differential.py"
    if battery.exists():
        game_sources = [
            (str(path), path.read_text())
            for path in sorted((src / "games").rglob("*.py"))
        ]
        findings.extend(
            check_eval_parity_coverage(game_sources, battery.read_text())
        )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the repo, print findings, exit 1 on any."""
    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else None
    findings = check_repo(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)")
        return 1
    print("staticcheck: all invariants hold")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
