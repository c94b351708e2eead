"""Serial ER — the Evaluate/Refute algorithm of Figure 8 of the paper.

Game-tree search is viewed as *evaluating* one child of each node (the
e-child) and *refuting* the rest (Section 5).  Instead of committing to an
e-child up front as alpha-beta implicitly does, ER first evaluates the
*elder grandchildren* — the first child of each child — then picks the
child with the best resulting bound as the e-child, finishes evaluating
it, and refutes the remaining children in ascending order of their
tentative values.

Three deliberate deviations from the paper's literal pseudocode, which is
sloppy in ways that break correctness (documented here because tests pin
them down):

1. ``Refute_rest`` does *not* reset the node's value to alpha: the bound
   established by ``Eval_first`` (the fully evaluated first child) is a
   sound lower bound and discarding it can overstate the parent's value.
2. ``Eval_first`` records a leaf's static value in the node record (the
   paper's version returns it but leaves ``value`` stale, which would
   corrupt the tentative-value sort).
3. Children of e-nodes are never statically pre-sorted — the tentative
   values from elder-grandchild evaluation order them for free — while
   children generated inside ``Eval_first``/``Refute_rest`` are pre-sorted
   according to the problem's ordering policy.  This matches Section 7
   ("successors of e-nodes were also not sorted") and is what lets serial
   ER beat alpha-beta on tree O1 despite examining more nodes.

Transposition table (``table=`` parameter): when given a table view, the
search probes at every ``ER``/``Eval_first``/``Refute_rest`` entry and
stores at every *completed* exit.  Soundness rests on two rules pinned by
the differential battery:

* A probe only substitutes an entry proven at at least the needed
  remaining depth whose bound answers the current window (EXACT, or
  LOWER with value >= beta, or UPPER with value <= alpha).
* A store classifies the finished value against the window the node
  actually ran with and *clamps bound values to the window edge*: the
  fail-hard recursion here guarantees ``true >= beta`` on a fail-high
  and ``true <= alpha`` on a fail-low, but not ``true >= v`` for an
  overshooting ``v`` — storing the edge is airtight, storing ``v`` is
  not.  Incomplete ``Eval_first`` bounds (``done`` still false) are
  never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..eval.evaluator import Evaluator
from ..games.base import NEG_INF, POS_INF, Path, Position, SearchProblem, hash_key
from ..search.stats import SearchResult, SearchStats
from ..search.transposition import Bound, TTEntry, TTView, usable_value


@dataclass(slots=True)
class ERRecord:
    """Per-node state of Figure 8: tentative value, done flag, children.

    ``path`` (successor indices from the search root) is filled in only
    when the stats keep a node trace, the one reader of it; otherwise it
    stays empty and no per-node path tuple is built.
    """

    position: Position
    path: Path
    ply: int
    value: float = NEG_INF
    done: bool = False
    children: Optional[list["ERRecord"]] = None
    is_leaf: bool = False
    key: Optional[int] = None  # lazily computed transposition key
    #: Static value prefetched by a horizon-frontier batch (cost already
    #: charged as a batch share); consumed by ``_leaf_value``.
    prefetched: Optional[float] = None


class _SerialER:
    """One serial ER search; instances are single-use."""

    def __init__(
        self,
        problem: SearchProblem,
        cost_model: CostModel,
        stats: SearchStats,
        table: Optional[TTView] = None,
        evaluator: Optional[Evaluator] = None,
    ):
        self.problem = problem
        self.cost_model = cost_model
        self.stats = stats
        self.table = table
        self.evaluator = evaluator

    # -- transposition table ---------------------------------------------

    def _key(self, record: ERRecord) -> int:
        if record.key is None:
            record.key = hash_key(self.problem.game, record.position)
        return record.key

    def _tt_probe(self, record: ERRecord, alpha: float, beta: float) -> Optional[float]:
        """Answer ``record`` from the table if a usable entry exists.

        A usable entry finishes the record (``done`` set, value adopted);
        the caller returns the value as if the subtree had been searched.
        """
        if self.table is None:
            return None
        self.stats.on_tt_probe(self.cost_model)
        entry = self.table.probe(self._key(record))
        value = usable_value(entry, self.problem.depth - record.ply, alpha, beta)
        if value is None:
            return None
        record.value = value
        record.done = True
        return value

    def _tt_store(self, record: ERRecord, value: float, alpha: float, beta: float) -> None:
        """Store a *finished* result, classified against its window.

        Bound values clamp to the window edge (module docstring); stores
        whose edge is infinite carry no information and are skipped.  ER
        has no hash-move concept (children are ordered by tentative
        values, not table hints), so ``best_move`` is never recorded.
        """
        if self.table is None:
            return
        remaining = self.problem.depth - record.ply
        if value >= beta:
            if beta == POS_INF:
                return
            entry = TTEntry(beta, remaining, Bound.LOWER, None)
        elif value <= alpha:
            if alpha == NEG_INF:
                return
            entry = TTEntry(alpha, remaining, Bound.UPPER, None)
        else:
            entry = TTEntry(value, remaining, Bound.EXACT, None)
        self.stats.on_tt_store(self.cost_model)
        self.table.store(self._key(record), entry)

    def _tt_store_leaf(self, record: ERRecord) -> None:
        """A static leaf value is exact for its remaining depth."""
        if self.table is None:
            return
        remaining = self.problem.depth - record.ply
        self.stats.on_tt_store(self.cost_model)
        self.table.store(self._key(record), TTEntry(record.value, remaining, Bound.EXACT, None))

    # -- tree plumbing ---------------------------------------------------

    def _expand(self, record: ERRecord, sort: bool) -> list[ERRecord]:
        """Generate (once) and cache the children of ``record``."""
        if record.children is not None:
            return record.children
        game = self.problem.game
        successors = (
            () if self.problem.is_horizon(record.ply) else game.children(record.position)
        )
        if not successors:
            record.is_leaf = True
            record.children = []
            return record.children
        self.stats.on_expand(record.path, len(successors), self.cost_model)
        order = list(range(len(successors)))
        batched: Optional[list[float]] = None
        if sort and self.problem.should_sort(record.ply):
            if self.evaluator is not None:
                self.stats.note_ordering(len(successors))
                batched, _ = self.evaluator.frontier_values(successors, self.stats)
                static = batched
            else:
                self.stats.on_ordering(len(successors), self.cost_model)
                static = [game.evaluate(child) for child in successors]
            order.sort(key=static.__getitem__)
        traced = self.stats.trace is not None
        record.children = [
            ERRecord(successors[index], record.path + (index,) if traced else (), record.ply + 1)
            for index in order
        ]
        # Horizon-frontier prefetch: when every child sits on the horizon,
        # evaluate them as one batch now and stash the values (reusing the
        # ordering batch when one was just computed).  Children skipped by
        # a later cutoff were evaluated speculatively — that is the
        # batching trade (amortized cost for possible over-eval); the
        # values themselves are pinned to the scalar evaluator, so the
        # root value cannot change.
        if self.evaluator is not None and self.problem.is_horizon(record.ply + 1):
            if batched is None:
                batched, _ = self.evaluator.frontier_values(successors, self.stats)
            for child, index in zip(record.children, order):
                child.prefetched = batched[index]
        return record.children

    def _leaf_value(self, record: ERRecord) -> float:
        if record.prefetched is not None:
            self.stats.note_leaf(record.path)
            return record.prefetched
        if self.evaluator is not None:
            # A leaf outside any prefetched frontier (game-terminal above
            # the horizon, or the subtree root itself): a batch of one,
            # through the cache if attached.
            self.stats.note_leaf(record.path)
            return self.evaluator.single_value(record.position, self.stats)
        self.stats.on_leaf(record.path, self.cost_model)
        return self.problem.game.evaluate(record.position)

    # -- Figure 8, function ER -------------------------------------------

    def evaluate(self, record: ERRecord, alpha: float, beta: float) -> float:
        """Fully evaluate ``record`` (the paper's function ``ER``)."""
        hit = self._tt_probe(record, alpha, beta)
        if hit is not None:
            return hit
        children = self._expand(record, sort=False)
        if record.is_leaf:
            record.value = self._leaf_value(record)
            record.done = True
            self._tt_store_leaf(record)
            return record.value
        record.value = alpha
        # Phase 1: evaluate the elder grandchild below every child.
        for child in children:
            t = -self.eval_first(child, -beta, -record.value)
            if child.done:
                if t > record.value:
                    record.value = t
                if record.value >= beta:
                    self.stats.on_cutoff()
                    self._tt_store(record, record.value, alpha, beta)
                    return record.value
        # Phase 2: the child with the lowest tentative value becomes the
        # e-child (first in this order); the rest are refuted in turn.
        for child in sorted(children, key=lambda c: c.value):
            if child.done:
                continue
            t = -self.refute_rest(child, -beta, -record.value)
            if t > record.value:
                record.value = t
            if record.value >= beta:
                self.stats.on_cutoff()
                self._tt_store(record, record.value, alpha, beta)
                return record.value
        self._tt_store(record, record.value, alpha, beta)
        return record.value

    # -- Figure 8, function Eval_first -----------------------------------

    def eval_first(self, record: ERRecord, alpha: float, beta: float) -> float:
        """Evaluate only the first child of ``record``, setting a bound."""
        hit = self._tt_probe(record, alpha, beta)
        if hit is not None:
            return hit
        children = self._expand(record, sort=True)
        if record.is_leaf:
            record.value = self._leaf_value(record)
            record.done = True
            self._tt_store_leaf(record)
            return record.value
        record.value = alpha
        t = -self.evaluate(children[0], -beta, -record.value)
        if t > record.value:
            record.value = t
        record.done = record.value >= beta or len(children) == 1
        if record.value >= beta:
            self.stats.on_cutoff()
        if record.done:
            # A cutoff or a single child makes this a *finished* result;
            # the usual incomplete Eval_first bound is never stored.
            self._tt_store(record, record.value, alpha, beta)
        return record.value

    # -- Figure 8, function Refute_rest -----------------------------------

    def refute_rest(self, record: ERRecord, alpha: float, beta: float) -> float:
        """Examine the remaining children of ``record`` (first already done).

        ``record.value`` already holds the bound from ``Eval_first``; it is
        kept (deviation 1 in the module docstring) and only raised.
        """
        hit = self._tt_probe(record, alpha, beta)
        if hit is not None:
            return hit
        if alpha > record.value:
            record.value = alpha
        assert record.children is not None, "Refute_rest requires Eval_first"
        for child in record.children[1:]:
            t = -self.eval_first(child, -beta, -record.value)
            if not child.done:
                t = -self.refute_rest(child, -beta, -record.value)
            if t > record.value:
                record.value = t
            if record.value >= beta:
                self.stats.on_cutoff()
                record.done = True
                self._tt_store(record, record.value, alpha, beta)
                return record.value
        record.done = True
        self._tt_store(record, record.value, alpha, beta)
        return record.value


def er_search(
    problem: SearchProblem,
    alpha: float = NEG_INF,
    beta: float = POS_INF,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
    table: Optional[TTView] = None,
    evaluator: Optional[Evaluator] = None,
) -> SearchResult:
    """Evaluate the root of ``problem`` with serial ER.

    With the open window the result equals negmax's value exactly (the
    test suite cross-checks this against negmax and alpha-beta on random,
    synthetic, and real game trees).  ``table``, when given, caches and
    reuses finished results across transpositions — and, when shared,
    across searches (module docstring explains the probe/store rules).
    ``evaluator``, when given, batches horizon-frontier leaf evaluations
    (and routes them through its eval cache, if attached) — the values
    are pinned to the scalar evaluator, so the result is unchanged and
    only the cost accounting moves.
    """
    if stats is None:
        stats = SearchStats()
    if not alpha < beta:
        raise ValueError("ER window requires alpha < beta")
    searcher = _SerialER(problem, cost_model, stats, table, evaluator)
    root = ERRecord(problem.game.root(), (), 0)
    value = searcher.evaluate(root, alpha, beta)
    return SearchResult(value=value, stats=stats)
