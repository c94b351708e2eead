"""The service's deepening engine over the warm worker pool.

:class:`PoolEngine` is the service's
:class:`~repro.serve.scheduler.DeepeningEngine`: one deepening
iteration evaluates every root move's subtree full-window in a worker
process of an :class:`~repro.parallel.multiproc.EnginePool` and decides
with :func:`repro.engine.root_decision`, the rule
:meth:`repro.engine.GameEngine.choose` uses too, which is what the
cross-request parity battery pins against the serial alpha-beta oracle.
Before paying a task round-trip it probes the pool's warm shared TT
coordinator-side for an EXACT entry deep enough to answer the subtree
outright, so repeated and overlapping requests collapse to table hits.
Before a request's first iteration, :meth:`PoolEngine.answer_from_table`
asks the table for the whole reply at the request's full depth; when
every root child is there, no iteration runs at all.

The engine never resolves a request itself.  The service resolves each
request once, at admission, into a :class:`ResolvedPosition` (position,
root children and their table keys); the scheduler's ticket carries it,
and every deepening iteration reads it.

:class:`~repro.parallel.multiproc.EnginePool` itself lives with the
worker initializer and task format in :mod:`repro.parallel.multiproc`;
it is re-exported here and from :mod:`repro.serve`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Optional

from ..engine import root_decision
from ..games.base import Game, Position, RootedGame, SearchProblem
from ..obs import live as _live
from ..obs import reqtrace as _reqtrace
from ..parallel.multiproc import EnginePool, TaskOutcome
from .api import SearchRequest
from .scheduler import IterationResult

__all__ = ["EnginePool", "PoolEngine", "ResolvedPosition"]


@dataclass(frozen=True)
class ResolvedPosition:
    """A request's position, resolved against its workload's game.

    ``keys[i]`` is ``hash_key(game, children[i])``: the table key each
    iteration probes for root move ``i``, computed once per request.
    """

    game: Game
    position: Position
    children: tuple[Position, ...]
    sort_below_root: int
    keys: tuple[int, ...]


class PoolEngine:
    """Per-iteration deepening engine over an :class:`EnginePool`.

    Args:
        pool: the warm pool to fan out on.
        span_ring: optional :class:`~repro.obs.live.SpanRing` receiving
            one ``serve`` span per iteration, named
            ``iteration@<request_id>/<span_id>.d<depth>`` so the
            service ring is request-addressable too.
    """

    def __init__(
        self,
        pool: EnginePool,
        *,
        span_ring: Optional[_live.SpanRing] = None,
    ) -> None:
        self._pool = pool
        self._ring = span_ring

    def answer_from_table(
        self, request: SearchRequest, depth: int, resolved: ResolvedPosition
    ) -> Optional[IterationResult]:
        """``run_iteration(request, depth, resolved)``'s result, from the table alone.

        Probes every root child at ``depth - 1`` through the gate each
        iteration applies and stops at the first miss (``None``).  When
        every child is answered, the iteration that would have run is
        one made of table hits, so its decision is the same; nothing is
        submitted.  Only an answer counts: ``table_answers`` +1 and one
        ``tt_short_circuits`` per child, while a miss partway adds
        nothing.
        """
        t0 = time.perf_counter()
        values: list[float] = []
        for key in resolved.keys:
            value = self._pool.probe_exact(key, depth - 1)
            if value is None:
                return None
            values.append(value)
        counters = self._pool.counters
        counters["table_answers"] += 1
        counters["tt_short_circuits"] += len(values)
        return self._decide(values, self._tag(request, depth), t0)

    async def run_iteration(
        self, request: SearchRequest, depth: int, resolved: ResolvedPosition
    ) -> IterationResult:
        """Evaluate every root move of ``resolved`` to ``depth - 1``.

        Mirrors one iteration of :meth:`repro.engine.GameEngine.choose`
        exactly: each child subtree is searched full-window as its own
        :class:`~repro.games.base.SearchProblem` rooted at the child,
        and :func:`~repro.engine.root_decision` picks the move.
        """
        t0 = time.perf_counter()
        tag = self._tag(request, depth)
        # The tag only rides to the workers when they record spans at
        # all, keeping the ``off`` payload byte-identical to the
        # multiproc driver's.
        task_tag = None if self._pool.trace_mode == _live.TRACE_OFF else tag
        loop = asyncio.get_running_loop()
        pending: list[tuple[int, float, "asyncio.Future[TaskOutcome]"]] = []
        values: list[Optional[float]] = [None] * len(resolved.children)
        for index, child in enumerate(resolved.children):
            hit = self._pool.probe_exact(resolved.keys[index], depth - 1)
            if hit is not None:
                self._pool.counters["tt_short_circuits"] += 1
                values[index] = hit
                continue
            problem = SearchProblem(
                game=RootedGame(resolved.game, child),
                depth=depth - 1,
                sort_below_root=resolved.sort_below_root,
            )
            submitted_at = _live.wall_clock()
            future = self._pool.submit_eval(problem, tag=task_tag)
            pending.append((index, submitted_at, asyncio.wrap_future(future, loop=loop)))
        for index, submitted_at, wrapped in pending:
            outcome = await wrapped
            values[index] = self._pool.note_outcome(outcome, submitted_at=submitted_at)
        child_values = [v for v in values if v is not None]
        assert len(child_values) == len(values), "every child resolved to a value"
        return self._decide(child_values, tag, t0)

    @staticmethod
    def _tag(request: SearchRequest, depth: int) -> str:
        """The trace tag of one deepening iteration: a child span per depth."""
        return _reqtrace.TraceContext(
            request.request_id, request.span_id or "root"
        ).child(f"d{depth}").tag

    def _decide(self, child_values: list[float], tag: str, t0: float) -> IterationResult:
        """The root decision over ``child_values``, with its iteration span."""
        best_index, per_move = root_decision(child_values)
        if self._ring is not None:
            name = _live.tag_span_name("iteration", tag)
            self._ring.record("serve", name, t0, time.perf_counter())
        return IterationResult(
            move_index=best_index,
            value=per_move[best_index],
            per_move_values=per_move,
        )
