"""Batched static evaluation with an optional Zobrist-keyed value cache.

:class:`Evaluator` is the direct-call (serial) form of the batched-eval
subsystem: serial ER and the parallel drivers' serial subtrees call it
synchronously, charging costs through :class:`~repro.search.stats.SearchStats`
hooks so simulated accounting stays exact — ``batch_eval_base`` +
``batch_eval_per_leaf`` per batched miss instead of a full
``static_eval`` per leaf, plus ``eval_cache_probe``/``eval_cache_store``
when a cache view is attached.  The parallel leaf path uses the op
generators of the eval-kind stores directly (:mod:`repro.cache`); this
class never yields simulator ops.

Value identity is load-bearing: ``batch_eval`` is pinned element-wise
to the scalar evaluator by ``tests/test_eval_differential.py``, so
switching batching (or the cache) on cannot change any root value —
only the cost accounting and the schedule.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cache.striped import static_entry
from ..costmodel import CostModel
from ..games.base import Game, Position, batch_eval, hash_key
from ..obs import events as _obs
from ..obs import probe as _probe
from ..search.stats import SearchStats
from ..search.transposition import TTView

#: Cost-part labels carried on Compute ops and whatif primitives.
PART_BATCH = "batch_eval"
PART_CACHE = "eval_cache"


class Evaluator:
    """Batched, optionally cached static evaluation for one game.

    Args:
        game: the evaluation substrate; its ``batch_eval`` seam (or the
            generic scalar-loop fallback) produces the values.
        cost_model: source of the batch and cache charge rates.
        cache: optional eval-kind store or view; when given, every
            position is probed first and only misses are batch-evaluated
            and stored (as :func:`~repro.cache.static_entry` records).
    """

    def __init__(
        self,
        game: Game,
        cost_model: CostModel,
        cache: Optional[TTView] = None,
    ):
        self.game = game
        self.cost_model = cost_model
        self.cache = cache

    def rebind(self, game: Game) -> "Evaluator":
        """The same evaluator against another game view (same cache).

        Serial subtrees search a :class:`~repro.games.base.RootedGame`
        wrapper; since it forwards ``hash_key`` and ``batch_eval`` to the
        base game, rebinding preserves key and value identity.
        """
        return Evaluator(game, self.cost_model, self.cache)

    def frontier_values(
        self, positions: Sequence[Position], stats: SearchStats
    ) -> tuple[list[float], tuple[tuple[str, float], ...]]:
        """Evaluate a batch of frontier positions, charging ``stats``.

        Returns ``(values, parts)`` where ``values`` matches the scalar
        evaluator element-wise and ``parts`` splits the charged cost into
        its primitives (``eval_cache``, ``batch_eval``) for critical-path
        attribution; the part weights sum to exactly what was charged.
        """
        n = len(positions)
        if n == 0:
            return [], ()
        values: list[Optional[float]] = [None] * n
        keys: list[int] = []
        cache_cost = 0.0
        if self.cache is not None:
            miss_rows: list[int] = []
            for row, position in enumerate(positions):
                key = hash_key(self.game, position)
                keys.append(key)
                hit = self.cache.probe(key)
                cache_cost += stats.on_eval_probe(self.cost_model, hit=hit is not None)
                if hit is None:
                    miss_rows.append(row)
                else:
                    values[row] = hit.value
        else:
            miss_rows = list(range(n))
        batch_cost = 0.0
        if miss_rows:
            missed = batch_eval(self.game, [positions[row] for row in miss_rows])
            batch_cost = stats.on_batch_eval(len(miss_rows), self.cost_model)
            p = _probe.CURRENT
            if p is not None:
                p.emit(_obs.EV_EVAL_BATCH, n=len(miss_rows))
            for row, value in zip(miss_rows, missed):
                values[row] = value
                if self.cache is not None:
                    self.cache.store(keys[row], static_entry(value))
                    cache_cost += stats.on_eval_store(self.cost_model)
        parts = tuple(
            (name, weight)
            for name, weight in ((PART_CACHE, cache_cost), (PART_BATCH, batch_cost))
            if weight > 0
        )
        # Every slot was either a cache hit or filled from the batch.
        return [value for value in values if value is not None], parts

    def single_value(self, position: Position, stats: SearchStats) -> float:
        """Evaluate one position (a batch of one; cache applies as usual)."""
        values, _ = self.frontier_values([position], stats)
        return values[0]
