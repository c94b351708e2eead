"""Work accounting shared by every search algorithm.

Figures 12–13 of the paper compare algorithms by *nodes generated*, and
all speedup numbers rest on a common notion of work.  Every search in this
package — serial or simulated-parallel — reports a :class:`SearchStats`
charged through the same :class:`~repro.costmodel.CostModel`, so "time"
means the same thing everywhere (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

from ..costmodel import CostModel
from ..games.base import Game, Position, hash_key


class KeyTrace(list[tuple[int, float]]):
    """A search's examination log: ``(hash_key, cost charged)`` per
    examined position of ``game``."""

    def __init__(self, game: Game) -> None:
        super().__init__()
        self.game = game


#: The additive work counters of :class:`SearchStats`, in field order:
#: what :meth:`~SearchStats.merge` sums and a multiproc task ships back.
COUNTERS = (
    "interior_visits", "leaf_evals", "ordering_evals", "nodes_generated", "cutoffs",
    "tt_probes", "tt_stores", "static_evals", "batch_calls", "batch_leaves",
    "eval_probes", "eval_hits", "eval_stores", "cost",
)
_counters = attrgetter(*COUNTERS)


@dataclass
class SearchStats:
    """Mutable accumulator of search work.

    Attributes:
        interior_visits: interior nodes whose children were generated.
        leaf_evals: static evaluations of horizon/terminal nodes.
        ordering_evals: static evaluations spent pre-sorting children
            (the overhead that makes serial ER beat alpha-beta on tree O1).
        nodes_generated: total successor positions created.
        cutoffs: number of beta cutoffs taken.
        tt_probes: transposition-table lookups issued.
        tt_stores: transposition-table entries written.
        static_evals: evaluations charged at the full ``static_eval``
            rate.  ``leaf_evals``/``ordering_evals`` stay *semantic*
            counts — with batching or a cache, a leaf may be counted
            there while its cost was charged as a batch share or a cache
            probe instead, so this is the counter the cost decomposition
            (``_serial_parts``) must use.
        batch_calls: ``batch_eval`` invocations issued.
        batch_leaves: positions evaluated inside those batches.
        eval_probes: evaluation-cache lookups issued.
        eval_hits: evaluation-cache lookups that found a value.
        eval_stores: evaluation-cache entries written.
        cost: accumulated simulated time units.
        trace: if not ``None``, one ``(hash_key, cost charged)`` entry
            per examined position (an expansion or a leaf evaluation) —
            the input of the Section 3.1 loss analysis
            (:mod:`repro.analysis.losses`).
    """

    interior_visits: int = 0
    leaf_evals: int = 0
    ordering_evals: int = 0
    nodes_generated: int = 0
    cutoffs: int = 0
    tt_probes: int = 0
    tt_stores: int = 0
    static_evals: int = 0
    batch_calls: int = 0
    batch_leaves: int = 0
    eval_probes: int = 0
    eval_hits: int = 0
    eval_stores: int = 0
    cost: float = 0.0
    trace: Optional[KeyTrace] = None

    @classmethod
    def with_trace(cls, game: Game) -> "SearchStats":
        """A stats object that also logs every examined position of ``game``."""
        return cls(trace=KeyTrace(game))

    # -- charging hooks -------------------------------------------------

    def on_expand(self, position: Position, n_children: int, cost_model: CostModel) -> float:
        """Record generating ``n_children`` successors of ``position``.

        Returns the cost charged, so simulated workers can also advance
        their local clocks by it.
        """
        self.interior_visits += 1
        self.nodes_generated += n_children
        charged = cost_model.expansion(n_children)
        self.cost += charged
        if self.trace is not None:
            self.trace.append((hash_key(self.trace.game, position), charged))
        return charged

    def on_leaf(self, position: Position, cost_model: CostModel) -> float:
        """Record statically evaluating the leaf ``position``."""
        self.leaf_evals += 1
        self.static_evals += 1
        charged = cost_model.static_eval
        self.cost += charged
        if self.trace is not None:
            self.trace.append((hash_key(self.trace.game, position), charged))
        return charged

    def note_leaf(self, position: Position) -> float:
        """Count a leaf evaluation whose cost was charged elsewhere
        (a batched frontier prefetch or an eval-cache hit)."""
        self.leaf_evals += 1
        if self.trace is not None:
            self.trace.append((hash_key(self.trace.game, position), 0.0))
        return 0.0

    def on_ordering(self, n_children: int, cost_model: CostModel) -> float:
        """Record the static evaluations used to sort ``n_children``."""
        self.ordering_evals += n_children
        self.static_evals += n_children
        charged = cost_model.ordering(n_children)
        self.cost += charged
        return charged

    def note_ordering(self, n_children: int) -> float:
        """Count ordering evaluations whose cost was charged elsewhere
        (a batched evaluator call instead of full-price scalar evals)."""
        self.ordering_evals += n_children
        return 0.0

    def on_batch_eval(self, n_leaves: int, cost_model: CostModel) -> float:
        """Record one batched static evaluation of ``n_leaves`` positions."""
        self.batch_calls += 1
        self.batch_leaves += n_leaves
        charged = cost_model.batch_eval(n_leaves)
        self.cost += charged
        return charged

    def on_eval_probe(self, cost_model: CostModel, *, hit: bool) -> float:
        """Record one evaluation-cache lookup."""
        self.eval_probes += 1
        if hit:
            self.eval_hits += 1
        charged = cost_model.eval_cache_probe
        self.cost += charged
        return charged

    def on_eval_store(self, cost_model: CostModel) -> float:
        """Record one evaluation-cache write."""
        self.eval_stores += 1
        charged = cost_model.eval_cache_store
        self.cost += charged
        return charged

    def on_cutoff(self) -> None:
        self.cutoffs += 1

    def on_tt_probe(self, cost_model: CostModel) -> float:
        """Record one transposition-table lookup."""
        self.tt_probes += 1
        charged = cost_model.tt_probe
        self.cost += charged
        return charged

    def on_tt_store(self, cost_model: CostModel) -> float:
        """Record one transposition-table write."""
        self.tt_stores += 1
        charged = cost_model.tt_store
        self.cost += charged
        return charged

    # -- derived quantities ---------------------------------------------

    @property
    def nodes_examined(self) -> int:
        """Nodes visited (interior expansions plus leaf evaluations)."""
        return self.interior_visits + self.leaf_evals

    def merge(self, other: "SearchStats") -> None:
        """Fold another accumulator into this one (for parallel workers)."""
        for name, value in zip(COUNTERS, _counters(other)):
            setattr(self, name, getattr(self, name) + value)
        if self.trace is not None and other.trace is not None:
            self.trace.extend(other.trace)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: the root negmax value plus its accounting."""

    value: float
    stats: SearchStats
    pv: tuple[int, ...] = ()

    @property
    def cost(self) -> float:
        return self.stats.cost


@dataclass
class OrderingPolicy:
    """How children are pre-ordered before search.

    ``argsort`` returns child indices sorted ascending by static value
    (lowest child value = best for the parent under negmax), charging the
    evaluator applications to ``stats``.
    """

    cost_model: CostModel
    stats: SearchStats

    def argsort(self, game: "Game", children: Sequence["Position"]) -> list[int]:
        self.stats.on_ordering(len(children), self.cost_model)
        values = [game.evaluate(child) for child in children]
        return sorted(range(len(children)), key=values.__getitem__)


def argsort_by_static_value(game: "Game", children: Sequence["Position"]) -> list[int]:
    """Uncharged ascending argsort by static value (for tests/utilities)."""
    values = [game.evaluate(child) for child in children]
    return sorted(range(len(children)), key=values.__getitem__)
