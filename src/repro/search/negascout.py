"""NegaScout / principal-variation search (minimal-window verification).

The paper's footnote 3 notes that Marsland & Popowich's enhanced
pv-splitting verifies the non-PV children with *parallel minimal window
search* rather than tree-splitting.  This module supplies the serial
form of that idea: after the first child establishes a value, each
remaining child is first searched with a zero-width ("scout") window —
the cheapest possible refutation test — and only re-searched with a real
window if it unexpectedly fails high.

On well-ordered trees almost every scout probe refutes immediately, so
NegaScout approaches the minimal tree; on badly ordered trees the
re-searches cost extra.  Both regimes are pinned by tests, and the
enhanced pv-splitting variant (``repro.parallel.pv_splitting`` with
``minimal_window=True``) reuses this logic on the schedule simulator.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..games.base import NEG_INF, POS_INF, Position, SearchProblem
from .stats import SearchResult, SearchStats


def negascout(
    problem: SearchProblem,
    alpha: float = NEG_INF,
    beta: float = POS_INF,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Evaluate the root with NegaScout (exact for open windows)."""
    if stats is None:
        stats = SearchStats()
    if not alpha < beta:
        raise ValueError("negascout window requires alpha < beta")
    value = _negascout(problem, problem.game.root(), 0, alpha, beta, cost_model, stats)
    return SearchResult(value=value, stats=stats)


def _next_after(value: float) -> float:
    """The smallest usable minimal-window ceiling above ``value``.

    Evaluators in this package are integral-valued, so ``value + 1`` is a
    sound null-window step (documented library assumption; the tests
    include fractional-valued trees via scaling to confirm the fallback
    re-search keeps results exact regardless).
    """
    return value + 1.0


def _negascout(
    problem: SearchProblem,
    position: Position,
    ply: int,
    alpha: float,
    beta: float,
    cost_model: CostModel,
    stats: SearchStats,
) -> float:
    game = problem.game
    children = () if problem.is_horizon(ply) else game.children(position)
    if not children:
        stats.on_leaf(position, cost_model)
        return game.evaluate(position)

    stats.on_expand(position, len(children), cost_model)
    order = list(range(len(children)))
    if problem.should_sort(ply):
        stats.on_ordering(len(children), cost_model)
        static = [game.evaluate(child) for child in children]
        order.sort(key=static.__getitem__)

    best = NEG_INF
    first = True
    for index in order:
        child = children[index]
        floor = max(alpha, best)
        if first:
            value = -_negascout(problem, child, ply + 1, -beta, -floor, cost_model, stats)
            first = False
        else:
            # Scout probe: can this child even beat the current best?
            ceiling = _next_after(floor)
            value = -_negascout(problem, child, ply + 1, -ceiling, -floor, cost_model, stats)
            if floor < value < beta:
                # Unexpected fail-high: re-search with the true window.
                value = -_negascout(problem, child, ply + 1, -beta, -value, cost_model, stats)
        if value > best:
            best = value
        if best >= beta:
            stats.on_cutoff()
            return best
    return best
