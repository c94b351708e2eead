"""Marsland's principal-variation splitting (paper Section 4.4).

For strongly ordered trees: follow the candidate principal variation (the
leftmost branch) down until the remaining game-tree depth equals the
processor-tree height, evaluate that node with tree-splitting, then back
the value up — at each level the remaining siblings are distributed over
the processor tree *with the PV value already in hand*, so almost every
sibling search runs with a cutting bound.

The paper's observation, reproduced by the baseline benchmark: speculative
loss is small (with 4 processors only ~5% extra nodes) but efficiency
decays quickly with the processor count because the PV descent is serial
and sibling refutations rarely have enough parallelism to go around.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..games.base import NEG_INF, POS_INF, Position, SearchProblem
from .base import ParallelResult
from .tree_splitting import (
    _report_from_outcome,
    _Outcome,
    _Splitter,
    processor_tree_height,
)


class _PVSplitter(_Splitter):
    """Adds the PV descent on top of the tree-splitting machinery."""

    def __init__(
        self,
        problem: SearchProblem,
        branching: int,
        cost_model: CostModel,
        split_height: int,
        minimal_window: bool = False,
    ):
        super().__init__(problem, branching, cost_model)
        self.split_height = split_height
        self.minimal_window = minimal_window

    def pv_evaluate(
        self, position: Position, ply: int, k: int, alpha: float, beta: float, start: float
    ) -> _Outcome:
        remaining = self.problem.depth - ply
        if remaining <= self.split_height or k <= 1:
            return self.evaluate(position, ply, k, alpha, beta, start)
        game = self.problem.game
        children = [] if self.problem.is_horizon(ply) else list(game.children(position))
        if not children:
            return self._serial_leaf(position, ply, alpha, beta, start)
        expand = self.stats.on_expand(position, len(children), self.cost_model)
        now = start + expand
        if self.problem.should_sort(ply):
            expand_order = self.stats.on_ordering(len(children), self.cost_model)
            static = [game.evaluate(child) for child in children]
            order = sorted(range(len(children)), key=static.__getitem__)
            children = [children[i] for i in order]
            now += expand_order
        # Serial PV descent: the whole processor group follows child 0.
        first = self.pv_evaluate(children[0], ply + 1, k, -beta, -max(alpha, NEG_INF), now)
        best = -first.value
        busy = expand + first.busy
        now = first.end
        if best >= beta:
            self.stats.on_cutoff()
            return _Outcome(best, now, busy)
        # Remaining siblings distributed over the processor tree, all with
        # the PV bound in hand (optionally as minimal-window scout probes —
        # the Marsland & Popowich enhancement of the paper's footnote 3).
        rest = self.distribute(
            children[1:], ply + 1, k, alpha, beta, best, now,
            minimal_window=self.minimal_window,
        )
        return _Outcome(rest.value, rest.end, busy + rest.busy)


def pv_splitting(
    problem: SearchProblem,
    n_processors: int,
    *,
    branching: int = 2,
    split_height: Optional[int] = None,
    minimal_window: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelResult:
    """Simulate pv-splitting.

    Args:
        split_height: remaining depth at which the PV descent hands over
            to tree-splitting; defaults to the processor-tree height as in
            the paper.
        minimal_window: verify non-PV siblings with zero-width scout
            windows and re-search only fail-highs (Marsland & Popowich's
            enhanced variant, the paper's footnote 3).
    """
    if n_processors < 1:
        raise SearchError("need at least one processor")
    if split_height is None:
        split_height = max(1, processor_tree_height(n_processors, branching))
    splitter = _PVSplitter(problem, branching, cost_model, split_height, minimal_window)
    outcome = splitter.pv_evaluate(
        problem.game.root(), 0, n_processors, NEG_INF, POS_INF, 0.0
    )
    report = _report_from_outcome(outcome, n_processors)
    return ParallelResult(
        value=outcome.value,
        n_processors=n_processors,
        report=report,
        stats=splitter.stats,
        algorithm="pv-split",
        extras={
            "branching": branching,
            "split_height": split_height,
            "aborted_slave_runs": splitter.aborted_slave_runs,
            "minimal_window": minimal_window,
            "scout_researches": splitter.scout_researches,
        },
    )
