"""Mandatory Work First — Akl, Barnard & Doran (paper Section 4.2).

MWF first searches, in parallel, the minimal tree of alpha-beta *without
deep cutoffs* (1-nodes and 2-nodes, Section 2.2's second rule set); only
then does it perform speculative work, and only in a restricted order:
the subtree under the i-th right child of a 2-node ``P`` may start only
after ``P``'s immediate left sibling is resolved and all earlier right
children of ``P`` are resolved, and it is then searched by *serial*
alpha-beta.

The claim this baseline reproduces (from Akl's simulations): speedup
rises quickly for the first few processors and plateaus near six — extra
processors only starve, because the speculative phases are chains.

Implementation: the critical skeleton is materialized up front (its
shape does not depend on values), phase-1 tasks are the critical leaves,
and speculative tasks unlock dynamically as the dependency rules allow.
Runs on the shared list scheduler with the common cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..games.base import NEG_INF, POS_INF, Path, Position, SearchProblem, subproblem
from ..search.alphabeta import alphabeta
from ..search.stats import SearchStats
from .base import ParallelResult
from .schedule import ScheduledTask, list_schedule


@dataclass
class _MNode:
    """A node of the critical skeleton (types 1 and 2 only)."""

    position: Position
    path: Path
    ply: int
    ntype: int  # 1 or 2
    parent: Optional["_MNode"]
    index: int  # child index within the parent
    children_positions: list[Position] = field(default_factory=list)
    critical_children: list["_MNode"] = field(default_factory=list)
    value: float = NEG_INF
    resolved_children: int = 0  # children with final/refuted status
    resolved: bool = False  # exact value known, or refuted
    refuted: bool = False
    is_leaf: bool = False
    next_speculative: int = 0  # next right-child index to search (2-nodes)
    speculative_pending: bool = False


class _MWFRun:
    """Single-use task source driving one MWF search."""

    def __init__(self, problem: SearchProblem, cost_model: CostModel):
        self.problem = problem
        self.cost_model = cost_model
        self.stats = SearchStats()
        self.skeleton_cost = 0.0
        self.speculative_tasks = 0
        self.cancelled_tasks = 0
        self.root = self._build(problem.game.root(), (), 0, 1, None, 0)

    # -- skeleton construction (shape only; no values needed) --------------

    def _build(
        self,
        position: Position,
        path: Path,
        ply: int,
        ntype: int,
        parent: Optional[_MNode],
        index: int,
    ) -> _MNode:
        node = _MNode(position, path, ply, ntype, parent, index)
        children = (
            [] if self.problem.is_horizon(ply) else list(self.problem.game.children(position))
        )
        if not children:
            node.is_leaf = True
            return node
        self.skeleton_cost += self.stats.on_expand(position, len(children), self.cost_model)
        if self.problem.should_sort(ply):
            self.skeleton_cost += self.stats.on_ordering(len(children), self.cost_model)
            static = [self.problem.game.evaluate(c) for c in children]
            order = sorted(range(len(children)), key=static.__getitem__)
            children = [children[i] for i in order]
        node.children_positions = children
        if ntype == 1:
            node.critical_children.append(
                self._build(children[0], path + (0,), ply + 1, 1, node, 0)
            )
            for i in range(1, len(children)):
                node.critical_children.append(
                    self._build(children[i], path + (i,), ply + 1, 2, node, i)
                )
        else:  # type 2: only the first child is critical (a 1-node)
            node.critical_children.append(
                self._build(children[0], path + (0,), ply + 1, 1, node, 0)
            )
        return node

    # -- task construction --------------------------------------------------

    def initial_tasks(self) -> list[ScheduledTask]:
        tasks: list[ScheduledTask] = []
        self._collect_leaf_tasks(self.root, tasks)
        return tasks

    def _collect_leaf_tasks(self, node: _MNode, out: list[ScheduledTask]) -> None:
        if node.is_leaf:
            out.append(self._leaf_task(node))
            return
        for child in node.critical_children:
            self._collect_leaf_tasks(child, out)

    def _leaf_task(self, node: _MNode) -> ScheduledTask:
        def cost_fn() -> tuple[float, Any]:
            charge = self.stats.on_leaf(node.position, self.cost_model)
            return charge, self.problem.game.evaluate(node.position)

        # Phase 1 (mandatory) work runs ahead of speculative work.
        return ScheduledTask(key=("leaf", node.path), cost_fn=cost_fn, priority=(0, node.ply))

    def _speculative_task(self, parent: _MNode, index: int) -> ScheduledTask:
        position = parent.children_positions[index]

        def cost_fn() -> tuple[float, Any]:
            if parent.refuted or parent.resolved:
                return 0.0, None  # invalidated before start
            alpha, beta = self._child_window(parent)
            sub = subproblem(self.problem, position, parent.ply + 1)
            local = SearchStats()
            result = alphabeta(sub, alpha, beta, cost_model=self.cost_model, stats=local)
            self.stats.merge(local)
            return local.cost, result.value

        self.speculative_tasks += 1
        return ScheduledTask(
            key=("spec", parent.path, index), cost_fn=cost_fn, priority=(1, parent.ply, index)
        )

    def _child_window(self, parent: _MNode) -> tuple[float, float]:
        """Window for searching one more child of 2-node ``parent``.

        MWF is defined for alpha-beta *without deep cutoffs*, so a child
        inherits only the bound derived from its parent's current value:
        the child's search may stop once it proves a value at or above
        ``-parent.value`` (which refutes it as a candidate best child).
        """
        floor = parent.value
        beta = -floor if floor != NEG_INF else POS_INF
        return (NEG_INF, beta)

    # -- completion handling -------------------------------------------------

    def on_complete(self, task: ScheduledTask, payload: Any, now: float) -> list[ScheduledTask]:
        kind = task.key[0]
        new_tasks: list[ScheduledTask] = []
        if kind == "leaf":
            path = task.key[1]
            node = self._find(path)
            node.value = payload
            node.resolved = True
            self._propagate(node, new_tasks)
        elif kind == "spec":
            _, parent_path, index = task.key
            parent = self._find(parent_path)
            if payload is None:  # invalidated before it started
                self.cancelled_tasks += 1
                return new_tasks
            if -payload > parent.value:
                parent.value = -payload
            parent.speculative_pending = False
            parent.next_speculative = index + 1
            self._advance_two_node(parent, new_tasks)
        return new_tasks

    def _find(self, path: Path) -> _MNode:
        node = self.root
        for index in path:
            for child in node.critical_children:
                if child.index == index:
                    node = child
                    break
            else:
                raise SearchError(f"no skeleton node at {path!r}")
        return node

    def _refutation_bound(self, node: _MNode) -> float:
        """``node`` is refuted once its value reaches this bound."""
        if node.parent is None or node.parent.value == NEG_INF:
            return POS_INF
        return -node.parent.value

    def _propagate(self, node: _MNode, new_tasks: list[ScheduledTask]) -> None:
        """A node became resolved: update ancestors, unlock work."""
        parent = node.parent
        if parent is None:
            return
        parent.resolved_children += 1
        if node.index == 0 or parent.ntype == 1:
            # Critical child: fold its exact (or refuted) value in.
            if not node.refuted and -node.value > parent.value:
                parent.value = -node.value
        if parent.ntype == 2:
            self._advance_two_node(parent, new_tasks)
        else:
            self._advance_one_node(parent, new_tasks)

    def _advance_one_node(self, parent: _MNode, new_tasks: list[ScheduledTask]) -> None:
        """1-nodes resolve when every (critical) child has resolved."""
        if parent.resolved and not parent.refuted:
            return
        if parent.resolved_children == len(parent.critical_children):
            parent.resolved = True
            self._propagate(parent, new_tasks)
        else:
            # A tightening bound may refute pending 2-node children and
            # unlock their right siblings' readiness conditions.
            for child in parent.critical_children:
                if child.ntype == 2 and not child.resolved:
                    self._advance_two_node(child, new_tasks)

    def _advance_two_node(self, node: _MNode, new_tasks: list[ScheduledTask]) -> None:
        """Refute or extend a 2-node per the MWF ordering rules."""
        if node.resolved or node.is_leaf or node.speculative_pending:
            return
        if not node.critical_children or not node.critical_children[0].resolved:
            return  # phase 1 below this node is not finished yet
        if node.next_speculative == 0:
            node.next_speculative = 1
        if node.value >= self._refutation_bound(node):
            node.refuted = True
            node.resolved = True
            self._propagate(node, new_tasks)
            return
        if node.next_speculative >= len(node.children_positions):
            node.resolved = True  # refutation failed: value is exact
            self._propagate(node, new_tasks)
            return
        # Readiness: the left sibling must be resolved first.  Per the
        # paper's Figure 4 (nodes D and E start their speculative phases
        # simultaneously) "P's left sibling" is the *leftmost* sibling —
        # the type-1 first child whose exact value makes refutation
        # meaningful — not the immediately preceding one.
        if not self._left_sibling_resolved(node):
            return
        node.speculative_pending = True
        new_tasks.append(self._speculative_task(node, node.next_speculative))

    def _left_sibling_resolved(self, node: _MNode) -> bool:
        parent = node.parent
        if parent is None or node.index == 0:
            return True
        for sibling in parent.critical_children:
            if sibling.index == 0:
                return sibling.resolved
        return True


def mwf(
    problem: SearchProblem,
    n_processors: int,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelResult:
    """Simulate Mandatory Work First on ``n_processors``.

    The returned value equals negmax's (checked by tests): MWF is exact
    because every non-critical subtree is either searched or legitimately
    refuted.
    """
    if n_processors < 1:
        raise SearchError("need at least one processor")
    run = _MWFRun(problem, cost_model)
    report = list_schedule(n_processors, run)
    if not run.root.resolved:
        raise SearchError("MWF terminated without resolving the root")
    return ParallelResult(
        value=run.root.value,
        n_processors=n_processors,
        report=report,
        stats=run.stats,
        algorithm="mwf",
        extras={
            "speculative_tasks": run.speculative_tasks,
            "cancelled_tasks": run.cancelled_tasks,
        },
    )
