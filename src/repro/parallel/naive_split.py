"""Naive root splitting — the straw-man partitioning of Section 1.

The root's children are handed to the processor pool, each searched by
serial alpha-beta with the *full* window and no information sharing.
This is the algorithm the paper's introduction dismisses: it "will search
a much greater portion of the tree than serial alpha-beta, resulting in
low efficiency" — the benchmark uses it as the speculative-loss ceiling.
"""

from __future__ import annotations

from typing import Any

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..games.base import NEG_INF, POS_INF, SearchProblem, subproblem
from ..search.alphabeta import alphabeta
from ..search.stats import SearchStats
from .base import ParallelResult
from .schedule import ScheduledTask, list_schedule


class _NaiveRun:
    def __init__(self, problem: SearchProblem, cost_model: CostModel):
        self.problem = problem
        self.cost_model = cost_model
        self.stats = SearchStats()
        self.best = NEG_INF
        self.outstanding = 0
        self.root_is_leaf = False

    def initial_tasks(self) -> list[ScheduledTask]:
        game = self.problem.game
        root = game.root()
        children = [] if self.problem.is_horizon(0) else list(game.children(root))
        if not children:
            self.root_is_leaf = True

            def leaf_cost() -> tuple[float, Any]:
                charge = self.stats.on_leaf(root, self.cost_model)
                return charge, game.evaluate(root)

            return [ScheduledTask(key=("root",), cost_fn=leaf_cost)]
        self.stats.on_expand(root, len(children), self.cost_model)
        tasks = []
        for index, child in enumerate(children):

            def cost_fn(child=child, index=index) -> tuple[float, Any]:
                sub = subproblem(self.problem, child, 1)
                local = SearchStats()
                result = alphabeta(
                    sub, NEG_INF, POS_INF, cost_model=self.cost_model, stats=local
                )
                self.stats.merge(local)
                return local.cost, result.value

            tasks.append(ScheduledTask(key=("child", index), cost_fn=cost_fn))
        self.outstanding = len(tasks)
        return tasks

    def on_complete(self, task: ScheduledTask, payload: Any, now: float) -> list[ScheduledTask]:
        if self.root_is_leaf:
            self.best = payload
            return []
        if -payload > self.best:
            self.best = -payload
        self.outstanding -= 1
        return []


def naive_split(
    problem: SearchProblem,
    n_processors: int,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ParallelResult:
    """Simulate naive root partitioning on ``n_processors``."""
    if n_processors < 1:
        raise SearchError("need at least one processor")
    run = _NaiveRun(problem, cost_model)
    report = list_schedule(n_processors, run)
    return ParallelResult(
        value=run.best,
        n_processors=n_processors,
        report=report,
        stats=run.stats,
        algorithm="naive-split",
    )
