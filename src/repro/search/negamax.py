"""The negmax procedure of Knuth & Moore (paper Section 2, Figure 1).

Exhaustive depth-first labelling of the game tree: every node's value is
the maximum of the negated values of its children.  Used as ground truth
for every other algorithm's correctness tests, and as the no-pruning
baseline in work comparisons.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..games.base import Position, SearchProblem
from .stats import SearchResult, SearchStats


def negamax(
    problem: SearchProblem,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Exhaustively evaluate the root of ``problem``.

    Returns:
        The root's negmax value, the principal variation, and work stats.
    """
    if stats is None:
        stats = SearchStats()
    value, pv = _negamax(problem, problem.game.root(), 0, cost_model, stats)
    return SearchResult(value=value, stats=stats, pv=tuple(pv))


def _negamax(
    problem: SearchProblem,
    position: Position,
    ply: int,
    cost_model: CostModel,
    stats: SearchStats,
) -> tuple[float, list[int]]:
    children = () if problem.is_horizon(ply) else problem.game.children(position)
    if not children:
        stats.on_leaf(position, cost_model)
        return problem.game.evaluate(position), []
    stats.on_expand(position, len(children), cost_model)
    best = float("-inf")
    best_line: list[int] = []
    for index, child in enumerate(children):
        child_value, child_line = _negamax(problem, child, ply + 1, cost_model, stats)
        if -child_value > best:
            best = -child_value
            best_line = [index, *child_line]
    return best, best_line
