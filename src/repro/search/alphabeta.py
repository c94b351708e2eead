"""Alpha-beta search, with and without deep cutoffs (paper Sections 2.1–2.2).

Two variants share one implementation:

* ``deep_cutoffs=True`` — the full Knuth–Moore procedure: the child window
  is ``(-beta, -max(alpha, m))``, so bounds established arbitrarily far up
  the tree propagate down (Figure 2(b) of the paper).
* ``deep_cutoffs=False`` — Baudet's branch-and-bound form used to define
  the MWF minimal tree (Section 2.2): a child inherits only the bound
  derived from its parent's current value, so only shallow cutoffs occur.

Both are fail-soft: the returned value may be more informative than the
window.  Children may be pre-ordered by static value (charged to stats),
reproducing the sorting overhead the paper discusses for tree O1.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..games.base import NEG_INF, POS_INF, Position, SearchProblem
from .stats import SearchResult, SearchStats


def alphabeta(
    problem: SearchProblem,
    alpha: float = NEG_INF,
    beta: float = POS_INF,
    *,
    deep_cutoffs: bool = True,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Evaluate the root of ``problem`` within the window ``(alpha, beta)``.

    With the open window the result equals negmax's exactly; with a
    narrower (aspiration) window the value is only guaranteed when it
    falls strictly inside the window.

    Args:
        deep_cutoffs: pass ancestor bounds through (Knuth–Moore) or not
            (Baudet's shallow-only variant).
    """
    if stats is None:
        stats = SearchStats()
    if not alpha < beta:
        raise ValueError("alpha-beta window requires alpha < beta")
    value, pv = _alphabeta(
        problem,
        problem.game.root(),
        0,
        alpha,
        beta,
        deep_cutoffs,
        cost_model,
        stats,
    )
    return SearchResult(value=value, stats=stats, pv=tuple(pv))


def _alphabeta(
    problem: SearchProblem,
    position: Position,
    ply: int,
    alpha: float,
    beta: float,
    deep: bool,
    cost_model: CostModel,
    stats: SearchStats,
) -> tuple[float, list[int]]:
    game = problem.game
    children = () if problem.is_horizon(ply) else game.children(position)
    if not children:
        stats.on_leaf(position, cost_model)
        return game.evaluate(position), []

    stats.on_expand(position, len(children), cost_model)
    if problem.should_sort(ply):
        stats.on_ordering(len(children), cost_model)
        static_values = [game.evaluate(child) for child in children]
        order = sorted(range(len(children)), key=static_values.__getitem__)
    else:
        order = list(range(len(children)))

    best = NEG_INF
    best_line: list[int] = []
    for index in order:
        floor = max(alpha, best)
        child_alpha = -beta if deep else NEG_INF
        child_value, child_line = _alphabeta(
            problem,
            children[index],
            ply + 1,
            child_alpha,
            -floor,
            deep,
            cost_model,
            stats,
        )
        if -child_value > best:
            best = -child_value
            best_line = [index, *child_line]
        if best >= beta:
            stats.on_cutoff()
            return best, best_line
    return best, best_line
