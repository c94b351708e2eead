"""Fishburn's tree-splitting algorithm on a processor tree (Section 4.3).

Processors form a tree: interior processors are *masters* that hand the
children of their assigned game-tree node to their *slave* groups and
narrow the alpha-beta window as results return; leaf processors run
serial alpha-beta.  On a best-first-ordered game tree the algorithm's
efficiency is O(1/sqrt(k)) — the claim the baseline benchmark reproduces.

The simulation is a recursive fork/join schedule: a child's cost is
computed (by actually running the serial search) with the window that was
current when the child was *assigned*; when a master achieves a cutoff,
outstanding slave work is aborted and charged pro rata.  Window updates
reach a slave only between assignments, not mid-search — a conservative
but standard simplification (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..games.base import NEG_INF, POS_INF, Position, SearchProblem, subproblem
from ..search.alphabeta import alphabeta
from ..search.stats import SearchStats
from ..sim.metrics import ProcessorMetrics, SimReport
from .base import ParallelResult


@dataclass
class _Outcome:
    """Result of simulating one subtree evaluation by a processor group."""

    value: float
    end: float
    busy: float


def processor_tree_height(n_processors: int, branching: int) -> int:
    """Height of the complete ``branching``-ary tree of ``n_processors``.

    Partial bottom levels count: 4 processors with branching 2 have
    height 2 (a root master, two slaves, one grandslave).
    """
    if n_processors < 1:
        raise SearchError("need at least one processor")
    if branching < 2:
        raise SearchError("processor tree branching must be >= 2")
    height = 0
    filled = 1
    level = 1
    while filled < n_processors:
        level *= branching
        filled += level
        height += 1
    return height


def _group_sizes(k: int, branching: int) -> list[int]:
    """Split ``k - 1`` slave processors into at most ``branching`` groups."""
    slaves = k - 1
    n_groups = min(branching, slaves)
    base, extra = divmod(slaves, n_groups)
    return [base + (1 if i < extra else 0) for i in range(n_groups)]


class _Splitter:
    """Single-use recursive simulator for one tree-splitting run."""

    def __init__(self, problem: SearchProblem, branching: int, cost_model: CostModel):
        self.problem = problem
        self.branching = branching
        self.cost_model = cost_model
        self.stats = SearchStats()
        self.aborted_slave_runs = 0
        self.scout_researches = 0

    def _serial_leaf(self, position: Position, ply: int, alpha: float, beta: float, start: float) -> _Outcome:
        """A leaf processor: serial alpha-beta over the whole subtree."""
        sub = subproblem(self.problem, position, ply)
        local = SearchStats()
        result = alphabeta(sub, alpha, beta, cost_model=self.cost_model, stats=local)
        self.stats.merge(local)
        return _Outcome(value=result.value, end=start + local.cost, busy=local.cost)

    def evaluate(
        self, position: Position, ply: int, k: int, alpha: float, beta: float, start: float
    ) -> _Outcome:
        """Evaluate the subtree at ``position`` with a group of ``k`` processors."""
        children = (
            []
            if self.problem.is_horizon(ply)
            else list(self.problem.game.children(position))
        )
        if k <= 1 or not children:
            return self._serial_leaf(position, ply, alpha, beta, start)
        expand = self.stats.on_expand(position, len(children), self.cost_model)
        distributed = self.distribute(
            children, ply + 1, k, alpha, beta, NEG_INF, start + expand
        )
        return _Outcome(distributed.value, distributed.end, distributed.busy + expand)

    def distribute(
        self,
        children: Sequence[Position],
        child_ply: int,
        k: int,
        alpha: float,
        beta: float,
        initial: float,
        start: float,
        minimal_window: bool = False,
    ) -> _Outcome:
        """Master loop: hand children to slave groups, narrowing the window.

        ``initial`` seeds the master's best value (pv-splitting passes the
        principal variation's value; plain tree-splitting passes -inf).

        With ``minimal_window`` (the Marsland & Popowich enhancement the
        paper's footnote 3 describes), every child is first verified with
        a zero-width scout window; only a child that unexpectedly fails
        high is re-searched with a real window.
        """
        sizes = _group_sizes(k, self.branching)
        free_at = [start] * len(sizes)
        # Queue entries: (child position, full_window?).
        queue: list[tuple[Position, bool]] = [
            (child, not minimal_window) for child in children
        ]
        # In-flight: (finish, group, start, outcome, child, full_window?)
        inflight: list[tuple[float, int, float, _Outcome, Position, bool]] = []
        best = initial
        busy = 0.0
        end = start

        def assign() -> None:
            while queue and len(inflight) < len(sizes):
                taken = {g for _, g, _, _, _, _ in inflight}
                group = min(
                    (g for g in range(len(sizes)) if g not in taken),
                    key=lambda g: free_at[g],
                )
                child, full = queue.pop(0)
                t0 = max(free_at[group], start)
                floor = max(alpha, best)
                ceiling = beta if full else min(beta, floor + 1.0)
                outcome = self.evaluate(
                    child, child_ply, sizes[group], -ceiling, -floor, t0
                )
                inflight.append((outcome.end, group, t0, outcome, child, full))

        assign()
        while inflight:
            inflight.sort(key=lambda item: item[0])
            finish, group, t0, outcome, child, full = inflight.pop(0)
            free_at[group] = finish
            end = max(end, finish)
            busy += outcome.busy
            value = -outcome.value
            if not full and max(alpha, best) < value < beta:
                # Scout probe failed high: this child matters after all —
                # verify it with the true window (front of the queue).
                self.scout_researches += 1
                queue.insert(0, (child, True))
            elif value > best:
                best = value
            if best >= beta:
                self.stats.on_cutoff()
                # Abort outstanding slaves; charge only elapsed work.
                for ofinish, ogroup, ot0, ooutcome, _, _ in inflight:
                    span = max(ofinish - ot0, 1e-12)
                    fraction = max(0.0, min(1.0, (finish - ot0) / span))
                    busy += ooutcome.busy * fraction
                    self.aborted_slave_runs += 1
                return _Outcome(best, finish, busy)
            assign()
        return _Outcome(best, end, busy)


def tree_splitting(
    problem: SearchProblem,
    n_processors: int,
    *,
    branching: int = 2,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelResult:
    """Simulate tree-splitting with ``n_processors`` in a processor tree.

    Returns the root value (equal to negmax's — checked by the tests)
    plus the simulated schedule.
    """
    if n_processors < 1:
        raise SearchError("need at least one processor")
    splitter = _Splitter(problem, branching, cost_model)
    outcome = splitter.evaluate(
        problem.game.root(), 0, n_processors, NEG_INF, POS_INF, 0.0
    )
    report = _report_from_outcome(outcome, n_processors)
    return ParallelResult(
        value=outcome.value,
        n_processors=n_processors,
        report=report,
        stats=splitter.stats,
        algorithm="tree-split",
        extras={
            "branching": branching,
            "aborted_slave_runs": splitter.aborted_slave_runs,
            "tree_height": processor_tree_height(n_processors, branching),
        },
    )


def _report_from_outcome(outcome: _Outcome, n_processors: int) -> SimReport:
    """Spread aggregate busy time over the processor pool for reporting."""
    per_proc = outcome.busy / max(1, n_processors)
    processors = [
        ProcessorMetrics(busy=per_proc, finish_time=outcome.end)
        for _ in range(n_processors)
    ]
    return SimReport(makespan=outcome.end, processors=processors)
