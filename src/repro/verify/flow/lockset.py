"""Interprocedural lockset + escape abstract interpretation.

One combined walk checks the whole locking protocol:

* **Lockset (VER101/VER105)** — the set of canonical lock tokens held
  is threaded through every statement, across helper calls (summaries)
  and generator delegation (``yield from``), with intersection meets at
  joins.  Acquire/release asymmetry, branch divergence, loop drift,
  exits that do not restore the caller's lockset, delegation entered
  while holding, and waits while holding are all reported.
* **Order graph (VER103)** — every acquire (simulated ``Acquire`` ops
  and ``with <lock>:`` internal sections alike) adds edges from each
  held token to the new one; cycles in the resulting graph are the
  static twin of the runtime ``LockOrderError``.
* **Escape analysis (VER102)** — sharedness seeds from the entry
  points' ``ctx`` parameter and flows through attribute chains,
  subscripts, unpacking, and call summaries; every write to a shared
  attribute is recorded with the held lock *categories*, and whether it
  goes to a tree node, and aggregated by :mod:`.escape`.
* **Charge discipline (VER104)** — a heap-category critical section
  that performs queue work must also yield a ``Compute``: dropping the
  charge would make heap traffic free in simulated time and silently
  deflate the interference loss every experiment reports.

Lock tokens are canonical: ``ctx.``/``self.`` receivers are stripped,
subscripts collapse to ``[*]`` (any stripe/any processor), and
non-well-known tokens are class-qualified (``SimStripedTT._sim_locks[*]``
is a different lock family than ``SimStripedTT._real_locks[*]``).
Indexed families (``[*]``) are exempt from the re-acquire check — two
different stripes of one family may legitimately nest.

Categories collapse the token space for guard checking: anything
containing ``tree`` guards the shared tree, anything containing
``heap`` (including the distributed per-processor ``local_locks``)
guards the problem heap, and every other token (stripe locks, internal
real locks) is its own category.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from .callgraph import (
    DEFAULT_ENTRY_NAMES,
    EXEMPT_CALLS,
    OP_CONSTRUCTORS,
    FunctionInfo,
    Project,
)
from .cfg import BlockState, StructuredWalker
from .escape import WriteRecord, aggregate_writes
from .model import FlowFinding
from .summaries import LockSummary

#: Tokens shared by the whole run context — never class-qualified.
WELL_KNOWN_TOKENS = frozenset({"heap_lock", "tree_lock", "local_locks[*]"})

#: Upper bound on method-name resolution fan-out (defensive).
_MAX_CANDIDATES = 12

_SUBSCRIPT_RE = re.compile(r"\[[^\[\]]*\]")


def lock_category(token: str) -> str:
    """Collapse a canonical token to its guard category."""
    lowered = token.lower()
    if "tree" in lowered:
        return "tree"
    if "heap" in lowered or "local_locks" in lowered:
        return "heap"
    return token


def canonical_token(expr: ast.expr, cls: Optional[str], aliases: dict[str, str]) -> str:
    """Canonical lock token of an ``Acquire``/``Release``/``with`` operand."""
    text = ast.unparse(expr)
    if text in aliases:
        return aliases[text]
    for prefix in ("ctx.", "self."):
        if text.startswith(prefix):
            text = text[len(prefix):]
            break
    text = _SUBSCRIPT_RE.sub("[*]", text)
    if text in WELL_KNOWN_TOKENS or cls is None:
        return text
    return f"{cls}.{text}"


def _lock_aliases(func: ast.FunctionDef, cls: Optional[str]) -> dict[str, str]:
    """Per-function ``name = <lock expr>`` aliases, pre-canonicalized."""
    aliases: dict[str, str] = {}
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        if "lock" in ast.unparse(node.value).lower():
            aliases[node.targets[0].id] = canonical_token(node.value, cls, {})
    return aliases


class Analysis:
    """Whole-program state: memoized summaries, findings, writes, order."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: list[FlowFinding] = []
        self._finding_keys: set[tuple[str, str, int, str]] = set()
        self.writes: list[WriteRecord] = []
        self._write_keys: set[WriteRecord] = set()
        #: (held, acquired) -> (path, line) of the first witnessing site
        self.order_edges: dict[tuple[str, str], tuple[str, int]] = {}
        self._memo: dict[tuple[str, frozenset[str], frozenset[str]], LockSummary] = {}
        self._stack: list[str] = []

    # -- reporting ---------------------------------------------------------

    def report(self, finding: FlowFinding) -> None:
        key = (finding.rule, finding.path, finding.line, finding.signature)
        if key not in self._finding_keys:
            self._finding_keys.add(key)
            self.findings.append(finding)

    def record_write(self, record: WriteRecord) -> None:
        if record not in self._write_keys:
            self._write_keys.add(record)
            self.writes.append(record)

    def record_order(self, held: str, acquired: str, path: str, line: int) -> None:
        if held != acquired:
            self.order_edges.setdefault((held, acquired), (path, line))

    # -- interprocedural driver --------------------------------------------

    def analyze(
        self,
        info: FunctionInfo,
        entry: frozenset[str],
        shared_params: frozenset[str],
        delegated: bool = True,
    ) -> Optional[LockSummary]:
        if info.name in EXEMPT_CALLS:
            return LockSummary(entry, False, False, False)
        if info.is_generator and not delegated:
            # Calling a generator function only builds the generator
            # object; the body runs when it is delegated or driven.
            return None
        key = (info.key, entry, shared_params)
        if key in self._memo:
            return self._memo[key]
        if info.key in self._stack:
            return LockSummary(entry, False, False, False)  # cycle: identity
        self._stack.append(info.key)
        try:
            interp = _FunctionInterp(self, info, entry, shared_params)
            summary = interp.run()
        finally:
            self._stack.pop()
        self._memo[key] = summary
        return summary

    def run(self, entry_names: tuple[str, ...] = DEFAULT_ENTRY_NAMES) -> list[FlowFinding]:
        """Analyze every entry point, then aggregate writes and order."""
        for entry in self.project.entry_points(entry_names):
            shared = frozenset(p for p in entry.params if p == "ctx")
            self.analyze(entry, frozenset(), shared, delegated=True)
        for finding in aggregate_writes(self.writes):
            self.report(finding)
        for finding in self._order_cycles():
            self.report(finding)
        return self.findings

    def _order_cycles(self) -> list[FlowFinding]:
        """Tarjan SCCs of the acquisition-order graph -> VER103."""
        graph: dict[str, set[str]] = {}
        for held, acquired in self.order_edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[list[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph[node]):
                if succ not in index:
                    strongconnect(succ)
                    low[node] = min(low[node], low[succ])
                elif succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)

        findings: list[FlowFinding] = []
        for component in sorted(sccs):
            witnesses = sorted(
                (edge, site)
                for edge, site in self.order_edges.items()
                if edge[0] in component and edge[1] in component
            )
            (held, acquired), (path, line) = witnesses[0]
            findings.append(
                FlowFinding(
                    rule="VER103",
                    path=path,
                    line=line,
                    function="<interprocedural>",
                    message=(
                        "lock-acquisition-order cycle: "
                        f"{' <-> '.join(component)} are acquired in both "
                        f"nesting orders (e.g. {held} -> {acquired} here); "
                        "two workers interleaving these paths deadlock"
                    ),
                    signature=f"order-cycle:{'->'.join(component)}",
                )
            )
        return findings


class _FunctionInterp(StructuredWalker):
    """Abstract interpretation of one function under one calling context."""

    def __init__(
        self,
        analysis: Analysis,
        info: FunctionInfo,
        entry: frozenset[str],
        shared_params: frozenset[str],
    ) -> None:
        super().__init__()
        self.analysis = analysis
        self.info = info
        self.entry = entry
        self.shared: set[str] = set(shared_params)
        self.aliases = _lock_aliases(info.node, info.cls)
        self.fn_queue_ops = False
        self.fn_computes = False
        self.returns_shared = False
        self.exit_sets: list[frozenset[str]] = []
        self._call_shared: dict[int, bool] = {}

    # -- driving -----------------------------------------------------------

    def run(self) -> LockSummary:
        self.walk(self.info.node.body, BlockState(held=self.entry))
        exits = set(self.exit_sets) or {self.entry}
        exit_tokens = exits.pop() if len(exits) == 1 else self.entry
        return LockSummary(
            exit_tokens=exit_tokens,
            queue_ops=self.fn_queue_ops,
            computes=self.fn_computes,
            returns_shared=self.returns_shared,
        )

    def _report(self, rule: str, line: int, message: str, signature: str) -> None:
        self.analysis.report(
            FlowFinding(
                rule=rule,
                path=self.info.path,
                line=line,
                function=self.info.qualname,
                message=message,
                signature=signature,
            )
        )

    # -- sharedness --------------------------------------------------------

    def is_shared(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.shared
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self.is_shared(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self.is_shared(e) for e in expr.elts)
        if isinstance(expr, ast.IfExp):
            return self.is_shared(expr.body) or self.is_shared(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            return any(self.is_shared(v) for v in expr.values)
        if isinstance(expr, ast.BinOp):
            return self.is_shared(expr.left) or self.is_shared(expr.right)
        if isinstance(expr, ast.NamedExpr):
            return self.is_shared(expr.value)
        if isinstance(expr, (ast.Yield, ast.YieldFrom, ast.Await)):
            return expr.value is not None and self.is_shared(expr.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return any(self.is_shared(gen.iter) for gen in expr.generators)
        if isinstance(expr, ast.Call):
            if id(expr) in self._call_shared:
                return self._call_shared[id(expr)]
            receiver_shared = isinstance(expr.func, ast.Attribute) and self.is_shared(
                expr.func.value
            )
            return receiver_shared or any(self.is_shared(a) for a in expr.args)
        return False

    def _bind_shared(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.shared.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_shared(elt)
        elif isinstance(target, ast.Starred):
            self._bind_shared(target.value)

    # -- expression / call effects -----------------------------------------

    def effect_value(self, value: ast.expr, state: BlockState) -> BlockState:
        if isinstance(value, ast.Yield):
            return self._yield_op(value, state)
        if isinstance(value, ast.YieldFrom):
            return self._delegate(value, state)
        return self._apply_nested_calls(value, state)

    def _apply_nested_calls(
        self, expr: ast.expr, state: BlockState, skip: Optional[ast.expr] = None
    ) -> BlockState:
        # Innermost-first so argument sharedness is known at the caller.
        for node in reversed(list(ast.walk(expr))):
            if isinstance(node, ast.Call) and node is not skip:
                state = self._apply_call(node, state, delegated=False)
        return state

    def _yield_op(self, value: ast.Yield, state: BlockState) -> BlockState:
        op = value.value
        if op is None:
            return state
        if not (
            isinstance(op, ast.Call)
            and isinstance(op.func, ast.Name)
            and op.func.id in OP_CONSTRUCTORS
        ):
            return self._apply_nested_calls(op, state)
        state = self._apply_nested_calls(op, state, skip=op)
        kind = op.func.id
        if kind == "Acquire" and op.args:
            token = canonical_token(op.args[0], self.info.cls, self.aliases)
            if token in state.held and "[*]" not in token:
                self._report(
                    "VER101",
                    op.lineno,
                    f"re-acquires {token} (non-reentrant)",
                    f"reacquire:{token}",
                )
            for held in sorted(state.held):
                self.analysis.record_order(held, token, self.info.path, op.lineno)
            state.held = state.held | {token}
            state.sections[token] = [False, False]
        elif kind == "Release" and op.args:
            token = canonical_token(op.args[0], self.info.cls, self.aliases)
            if token not in state.held:
                self._report(
                    "VER101",
                    op.lineno,
                    f"releases {token} without acquiring it",
                    f"release-unheld:{token}",
                )
            else:
                self._close_section(token, op.lineno, state)
                state.held = state.held - {token}
        elif kind == "Compute":
            self.fn_computes = True
            for flags in state.sections.values():
                flags[1] = True
        elif kind == "WaitWork" and state.held:
            self._report(
                "VER105",
                op.lineno,
                f"waits for work while holding {sorted(state.held)}; the "
                "waker needs those locks (deadlock)",
                f"wait-holding:{'+'.join(sorted(state.held))}",
            )
        return state

    def _close_section(self, token: str, line: int, state: BlockState) -> None:
        flags = state.sections.pop(token, None)
        if (
            flags is not None
            and flags[0]
            and not flags[1]
            and lock_category(token) == "heap"
        ):
            self._report(
                "VER104",
                line,
                f"heap critical section on {token} performs queue work "
                "but never yields a Compute; its simulated time would be "
                "free",
                f"uncharged-section:{token}",
            )

    def _delegate(self, value: ast.YieldFrom, state: BlockState) -> BlockState:
        if state.held:
            self._report(
                "VER101",
                value.lineno,
                f"delegates to {ast.unparse(value.value)} while holding "
                f"{sorted(state.held)}; sub-generators manage their own "
                "locks",
                f"delegate-holding:{'+'.join(sorted(state.held))}",
            )
        call = value.value
        if not isinstance(call, ast.Call):
            return self._apply_nested_calls(call, state)
        state = self._apply_nested_calls(call, state, skip=call)
        return self._apply_call(call, state, delegated=True)

    def _mark_queue(self, state: BlockState) -> None:
        self.fn_queue_ops = True
        for flags in state.sections.values():
            flags[0] = True

    def _mark_compute(self, state: BlockState) -> None:
        self.fn_computes = True
        for flags in state.sections.values():
            flags[1] = True

    def _apply_call(
        self, call: ast.Call, state: BlockState, delegated: bool
    ) -> BlockState:
        func = call.func
        project = self.analysis.project
        if isinstance(func, ast.Name):
            if func.id in OP_CONSTRUCTORS:
                self._call_shared[id(call)] = False
                return state
            info = project.resolve_name(func.id, self.info.path)
            if info is None or info.name in EXEMPT_CALLS:
                self._call_shared[id(call)] = any(
                    self.is_shared(a) for a in call.args
                )
                return state
            return self._apply_candidates(call, [info], state, delegated, False)
        if not isinstance(func, ast.Attribute):
            self._call_shared[id(call)] = False
            return state
        if func.attr in EXEMPT_CALLS:
            self._call_shared[id(call)] = False
            return state
        if not self.is_shared(func.value):
            self._call_shared[id(call)] = False
            return state
        candidates = project.resolve_method(
            func.attr, self.info.path, project.receiver_class(func.value, self.info)
        )
        if not candidates:
            # Opaque method on a shared object (dict/list/bus surface).
            self._call_shared[id(call)] = True
            return state
        keyed = [c for c in candidates if c.keyed_counter is not None]
        if keyed:
            self._record_keyed(keyed[0], call, state)
            self._call_shared[id(call)] = False
            return state
        return self._apply_candidates(
            call, candidates[:_MAX_CANDIDATES], state, delegated, True
        )

    def _apply_candidates(
        self,
        call: ast.Call,
        candidates: list[FunctionInfo],
        state: BlockState,
        delegated: bool,
        is_method: bool,
    ) -> BlockState:
        shared_result = False
        exit_tokens: Optional[frozenset[str]] = None
        applied = False
        for cand in candidates:
            summary = self.analysis.analyze(
                cand,
                entry=state.held,
                shared_params=self._bind_params(cand, call, is_method),
                delegated=delegated,
            )
            if summary is None:
                continue
            applied = True
            if summary.queue_ops:
                self._mark_queue(state)
            if summary.computes:
                self._mark_compute(state)
            shared_result = shared_result or summary.returns_shared
            if (
                cand.cls is not None
                and cand.cls in self.analysis.project.queue_classes
                and cand.name in ("push", "pop")
            ):
                self._mark_queue(state)
            if exit_tokens is None:
                exit_tokens = summary.exit_tokens
            elif exit_tokens != summary.exit_tokens:
                exit_tokens = state.held  # candidates disagree: identity
        if not applied:
            # Every candidate was a non-delegated generator: only the
            # generator object was built; treat it as a shared handle.
            self._call_shared[id(call)] = is_method
            return state
        self._call_shared[id(call)] = shared_result
        if exit_tokens is not None and exit_tokens != state.held:
            for token in state.held - exit_tokens:
                state.sections.pop(token, None)
            for token in exit_tokens - state.held:
                state.sections[token] = [False, False]
            state.held = exit_tokens
        return state

    def _bind_params(
        self, cand: FunctionInfo, call: ast.Call, is_method: bool
    ) -> frozenset[str]:
        shared: set[str] = set()
        params = list(cand.params)
        if is_method and params:
            shared.add(params[0])  # receiver is shared by construction
            params = params[1:]
        for param, arg in zip(params, call.args):
            if self.is_shared(arg):
                shared.add(param)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in cand.params and self.is_shared(kw.value):
                shared.add(kw.arg)
        return frozenset(shared)

    def _record_keyed(
        self, writer: FunctionInfo, call: ast.Call, state: BlockState
    ) -> None:
        """A keyed-counter bump: one write location per literal key."""
        assert writer.keyed_counter is not None
        attr, key_param = writer.keyed_counter
        arg_index = writer.params.index(key_param) - 1  # receiver is bound
        key_expr: Optional[ast.expr] = None
        if 0 <= arg_index < len(call.args):
            key_expr = call.args[arg_index]
        for kw in call.keywords:
            if kw.arg == key_param:
                key_expr = kw.value
        keys: list[str] = []
        if isinstance(key_expr, ast.Constant) and isinstance(key_expr.value, str):
            keys = [key_expr.value]
        elif isinstance(key_expr, ast.IfExp):
            for side in (key_expr.body, key_expr.orelse):
                if isinstance(side, ast.Constant) and isinstance(side.value, str):
                    keys.append(side.value)
        if not keys:
            keys = ["<dynamic>"]
        prefix = f"{writer.cls}." if writer.cls else ""
        categories = frozenset(lock_category(t) for t in state.held)
        for key in keys:
            self.analysis.record_write(
                WriteRecord(
                    location=f"{prefix}{attr}[{key}]",
                    path=self.info.path,
                    line=call.lineno,
                    function=self.info.qualname,
                    categories=categories,
                )
            )

    # -- assignments (escape analysis) -------------------------------------

    def effect_assign(self, stmt: ast.stmt, state: BlockState) -> None:
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        else:
            targets = [stmt.target]  # type: ignore[attr-defined]
        value_shared = stmt.value is not None and self.is_shared(
            stmt.value  # type: ignore[attr-defined, arg-type]
        )
        for target in targets:
            self._record_target(target, state, value_shared)

    def _record_target(
        self, target: ast.expr, state: BlockState, value_shared: bool
    ) -> None:
        if isinstance(target, ast.Name):
            if value_shared:
                self.shared.add(target.id)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, state, value_shared)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, state, value_shared)
            return
        attribute: Optional[ast.Attribute] = None
        if isinstance(target, ast.Attribute):
            attribute = target
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attribute = target.value  # obj.attr[i] = x writes into obj.attr
        if attribute is None or not self.is_shared(attribute.value):
            return
        base = attribute.value
        # Through the first parameter (a method's receiver, a helper's
        # run context) the write is to the owner's own state; through
        # anything else it is to a tree node.
        own = (
            isinstance(base, ast.Name)
            and bool(self.info.params)
            and base.id == self.info.params[0]
        )
        if own and self.info.cls is not None:
            location = f"{self.info.cls}.{attribute.attr}"
        else:
            location = attribute.attr
        self.analysis.record_write(
            WriteRecord(
                location=location,
                path=self.info.path,
                line=target.lineno,
                function=self.info.qualname,
                categories=frozenset(lock_category(t) for t in state.held),
                node=not own,
            )
        )

    # -- control-flow hooks -------------------------------------------------

    def _stmt(self, stmt: ast.stmt, state: BlockState) -> tuple[BlockState, bool]:
        if isinstance(stmt, ast.For) and self.is_shared(stmt.iter):
            self._bind_shared(stmt.target)
        result = super()._stmt(stmt, state)
        if (
            isinstance(stmt, ast.Return)
            and stmt.value is not None
            and self.is_shared(stmt.value)  # after effect_value ran on it
        ):
            self.returns_shared = True
        return result

    def effect_with_enter(
        self, item: ast.withitem, state: BlockState
    ) -> tuple[BlockState, Optional[str]]:
        if "lock" not in ast.unparse(item.context_expr).lower():
            return state, None
        token = canonical_token(item.context_expr, self.info.cls, self.aliases)
        if token in state.held and "[*]" not in token:
            self._report(
                "VER101",
                item.context_expr.lineno,
                f"re-enters {token} (non-reentrant)",
                f"reacquire:{token}",
            )
        for held in sorted(state.held):
            self.analysis.record_order(
                held, token, self.info.path, item.context_expr.lineno
            )
        if token in state.held:
            # Another stripe of an indexed family already held (anything
            # else was reported above): the outer hold outlives this
            # block, so leaving it must not drop the token.
            return state, None
        state.held = state.held | {token}
        state.sections[token] = [False, False]
        return state, token

    def effect_with_exit(
        self, token: str, line: int, state: BlockState
    ) -> BlockState:
        self._close_section(token, line, state)
        state.held = state.held - {token}
        return state

    def report_divergence(
        self, line: int, a: frozenset[str], b: frozenset[str]
    ) -> None:
        self._report(
            "VER101",
            line,
            f"paths disagree on held locks: {sorted(a)} vs {sorted(b)}",
            f"divergence:{'+'.join(sorted(a))}|{'+'.join(sorted(b))}",
        )

    def report_loop_imbalance(
        self, line: int, entry: frozenset[str], exit_: frozenset[str]
    ) -> None:
        self._report(
            "VER101",
            line,
            f"loop body is lock-unbalanced: enters with {sorted(entry)}, "
            f"ends with {sorted(exit_)}",
            f"loop-imbalance:{'+'.join(sorted(entry))}|{'+'.join(sorted(exit_))}",
        )

    def report_exit(self, line: int, state: BlockState) -> None:
        self.exit_sets.append(state.held)
        if state.held != self.entry:
            extra = sorted(state.held - self.entry)
            dropped = sorted(self.entry - state.held)
            parts = []
            if extra:
                parts.append(f"still holds {extra}")
            if dropped:
                parts.append(f"released the caller's {dropped}")
            self._report(
                "VER101",
                line,
                f"{self.info.qualname} exits lock-unbalanced: "
                f"{' and '.join(parts)}",
                f"exit-imbalance:{'+'.join(sorted(state.held))}",
            )


def analyze_project(
    project: Project, entry_names: tuple[str, ...] = DEFAULT_ENTRY_NAMES
) -> list[FlowFinding]:
    """Lockset + escape + order analysis over ``project``'s entry points."""
    return Analysis(project).run(entry_names)
