"""True-parallel multiprocess execution of the ER problem heap.

The simulator (:mod:`repro.core.er_parallel`) answers the paper's
*algorithmic* questions and the threaded driver answers the
*protocol-correctness* ones; this module answers the remaining question —
"is it actually faster on real hardware?" — by running ER on a pool of
worker **processes**, which bypasses CPython's GIL.

Division of labour (mirroring the paper's Sequent implementation, where
the shared problem heap was cheap and the static evaluator dominated):

* The **coordinator** process (:class:`Coordinator`) hosts the problem
  heap — the very same :class:`~repro.core.er_queues.PrimaryQueue` and
  :class:`~repro.core.er_queues.SpeculativeQueue`, inside the very same
  :class:`~repro.core.er_parallel._Context` the simulator uses — and
  takes each Table 1 decision with the simulator's own step methods:
  the pop-time stale/cutoff ``screen``, ``expand_children``,
  ``speculative_step``, ``refute_plan``, and ``finish``, which runs
  Table 2's combine.  The simulator wraps each step in
  ``Acquire``/``Compute``/``Release`` ops; the coordinator calls them
  directly, because a single process serves the heap and needs no
  locks.  It plays the role a ``multiprocessing.Manager`` would, without
  paying one IPC round-trip per queue operation.
* **Worker processes** execute the expensive part: whole serial-ER
  subtree searches below ``config.serial_depth`` (Table 3's "Serial
  Depth" cutover), exactly as the simulator's ``_serial_evaluate`` /
  ``_serial_refute_remaining`` do.  Tasks and results cross the process
  boundary by pickling :class:`~repro.games.base.SearchProblem` slices,
  which every bundled game (random trees, explicit trees, tic-tac-toe,
  Connect-4, Othello) supports because positions are plain immutable
  dataclasses over ints and tuples.

Every search runs on an :class:`EnginePool`, the one owner of worker
processes and shared cache segments: a pool the caller keeps warm
across searches, or a short-lived one the search builds and closes.

The pool's workers are a :class:`~repro.parallel.channel.TaskChannel`,
which starts no thread in the coordinator process: the workers are up,
and through :func:`_init_worker`, before the pool's constructor
returns; the next free worker takes the next task from one shared task
pipe; and the coordinator reads results in its own thread, through
:meth:`~repro.parallel.channel.TaskChannel.wait`.  A dead worker fails
every outstanding task at once.

The heap, not the channel, picks every task.  The coordinator keeps at
most :data:`IN_FLIGHT_PER_WORKER` tasks in flight per worker (one
running, one queued); at that bound it waits for a result instead of
popping more work.  The paper's processors take a node from the heap
only when they are free, so the primary queue's depth-first order and
the speculative queue's ranking decide what runs next.  Flooding the
workers instead would hand that choice to a FIFO queue: the
coordinator would drain both queues long before any result returned,
tasks would wait a whole search's worth in line, and tasks a cutoff had
made moot would still run.  The second slot per worker hides the
submit-to-result round trip, which would otherwise idle each worker
once per task.  The channel keeps the same bound for any caller: tasks
beyond it wait in an in-process backlog, so the pipe never holds more
than the workers are about to run.

Semantics match the simulator's documented deviations: subtree searches
run against the window captured at dispatch, results of subtrees
orphaned by a cutoff are discarded on arrival (their node counts are
still merged — the work *was* performed), and a primary node takes the
simulator's steps in the simulator's order — screen, shared-table
probe, then either a serial task for a node that ships whole
(:meth:`~repro.core.er_parallel._Context.ships_whole`: it goes to its
worker unexpanded, since the worker generates its children anyway), or
expansion followed by a leaf's finish or child generation.
When the run ends, raised or not, the coordinator breaks the tree's
parent links (:meth:`~repro.core.er_parallel._Context.release`), so
each search's tree frees by refcount and the coordinator holds one tree
at a time.

Loss accounting (paper Section 3.1), from per-worker counters: over the
run's ``n_workers * wall_time`` processor-seconds,

* **busy** is worker time on subtree tasks, ``applied`` or ``wasted``
  (moot on arrival: an ancestor had finished).  Moot is not the paper's
  speculative loss, which this backend does not separate;
* **starvation loss** is worker time during which fewer tasks were in
  flight than workers (the heap had nothing at serial depth to hand
  out), integrated from the coordinator's submit/receive event log;
* **interference loss** is the remainder: pickling, pipe IPC, and
  coordinator occupancy — the multiprocess analogue of the paper's
  lock contention.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from ..cache.sharedmem import SharedMemoryTT
from ..cache.striped import EVAL, TT, CacheKind, check_cache_mode, static_entry
from ..core.er_parallel import CUT, STALE, ERConfig, PNode, _Context
from ..core.serial_er import er_search
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError, ServeError, SimulationError
from ..eval.evaluator import Evaluator
from ..games.base import (
    NEG_INF,
    POS_INF,
    Game,
    RootedGame,
    SearchProblem,
    hash_key,
    subproblem,
)
from ..obs import events as _obs
from ..obs import live as _live
from ..obs import probe as _probe
from ..search.stats import COUNTERS, SearchStats
from ..search.transposition import Bound, TranspositionTable, TTEntry, TTView, usable_value
from .channel import IN_FLIGHT_PER_WORKER, TaskChannel

__all__ = [
    "IN_FLIGHT_PER_WORKER",
    "Coordinator",
    "EnginePool",
    "MultiprocResult",
    "ScalingPoint",
    "TaskOutcome",
    "default_serial_depth",
    "multiproc_er",
    "scaling_run",
    "format_scaling_table",
    "preferred_start_method",
]


def preferred_start_method() -> str:
    """``fork`` where available (cheap workers), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def default_serial_depth(depth: int) -> int:
    """Serial-depth cutover used when the caller does not specify one.

    Subtrees of height ~3 are large enough to amortize one task's pickle
    and IPC cost while leaving enough tasks to keep the pool busy.
    """
    return max(1, depth - 3)


# ---------------------------------------------------------------------------
# Worker side: top-level functions so they pickle under any start method.
# ---------------------------------------------------------------------------


_PackedStats = tuple[float, ...]

#: A worker's stats on the wire: the counters, in field order.
_pack_stats: Callable[[SearchStats], _PackedStats] = operator.attrgetter(*COUNTERS)


def _unpack_stats(packed: _PackedStats) -> SearchStats:
    return SearchStats(*packed)  # type: ignore[arg-type]


#: Per-process transposition table set by the pool initializer below;
#: ``None`` runs the subtree searches uncached (``--tt off``).
_WORKER_TT: Optional[TTView] = None
#: Per-process evaluation cache; ``None`` means ``--eval-cache off``.
_WORKER_EVAL_CACHE: Optional[TTView] = None
#: Whether subtree searches batch frontier evaluations.
_WORKER_BATCH_EVAL: bool = False


def _init_worker(
    tt_spec: tuple[Any, ...],
    eval_spec: tuple[Any, ...],
    trace_mode: str = _live.TRACE_OFF,
) -> None:
    """Pool initializer: attach this process's caches from their specs.

    ``tt_spec`` is ``("off",)``, ``("private", capacity)``, or
    ``("shared", handle, locks)``; ``eval_spec`` is the same with a
    trailing batch-eval flag.  Lock sequences ride in as initializer
    args because ``multiprocessing`` primitives may only cross process
    boundaries by inheritance — they cannot be pickled inside
    :class:`~repro.cache.sharedmem.TTHandle`.  Pool processes persist
    across tasks, so private caches accumulate over every subtree
    search the same worker happens to receive.

    ``trace_mode`` attaches this process's span ring to the
    instrumentation probe (:func:`repro.obs.live.install_ring`); the
    shared-cache probe/store and :func:`_run_task` record into it, and
    its contents ship back on the result channel.
    """
    global _WORKER_TT, _WORKER_EVAL_CACHE, _WORKER_BATCH_EVAL
    _live.install_ring(trace_mode)
    _WORKER_TT = _worker_table(tt_spec)
    _WORKER_EVAL_CACHE = _worker_table(eval_spec)
    _WORKER_BATCH_EVAL = bool(eval_spec[-1])


def _worker_table(spec: tuple[Any, ...]) -> Optional[TTView]:
    """One cache from its spec: the mapped segment (its handle carries
    its kind), a plain private table, or ``None``."""
    if spec[0] == "shared":
        return SharedMemoryTT.attach(spec[1], spec[2])
    if spec[0] == "private":
        return TranspositionTable(capacity=spec[1])
    return None


def _worker_evaluator(game: Game) -> Optional[Evaluator]:
    """The evaluator a subtree search should use in this process."""
    if not _WORKER_BATCH_EVAL and _WORKER_EVAL_CACHE is None:
        return None
    return Evaluator(game, DEFAULT_COST_MODEL, _WORKER_EVAL_CACHE)


#: Per-result trace shipment: the worker ring's drained spans plus its
#: cumulative (dropped, self_cost_seconds) counters.  Cumulative so the
#: coordinator can max-merge shipments that arrive out of order.
_TraceBlob = tuple[tuple[_live.SpanRec, ...], int, float]

#: What :func:`_run_task` returns: ``(kind, value, packed_stats, t_start,
#: t_end, pid, children_done, trace_blob)``.
TaskOutcome = tuple[str, float, _PackedStats, float, float, int, int, Optional[_TraceBlob]]


def _drain_worker_ring() -> Optional[_TraceBlob]:
    p = _probe.CURRENT
    ring = p.ring if p is not None else None
    if ring is None:
        return None
    spans = tuple(ring.drain())
    dropped, self_cost = ring.snapshot_counters()
    return spans, dropped, self_cost


def _flush_trace() -> tuple[int, Optional[_TraceBlob]]:
    """Drain-on-exit flush task: ship whatever the ring still holds.

    Submitted (several times, best effort) after the root combines, so
    spans recorded after a worker's last task result — trailing cache
    probes, tasks orphaned by the root cutoff — still reach the
    coordinator.  Draining twice is harmless: the second drain is empty
    and the counters are cumulative.
    """
    return os.getpid(), _drain_worker_ring()


def _run_task(payload: tuple[Any, ...]) -> TaskOutcome:
    """Execute one serial subtree task; runs inside a worker process.

    Returns ``(kind, value, packed_stats, t_start, t_end, pid,
    children_done, trace_blob)`` with ``perf_counter`` timestamps, which
    on Linux are CLOCK_MONOTONIC and therefore comparable across
    processes.
    """
    kind = payload[0]
    t_start = time.perf_counter()
    stats = SearchStats()
    children_done = 0
    tag: Optional[str] = None
    if kind == "eval":
        # ``tag`` (``request_id/span_id``, or ``None``) lets this task's
        # span carry the service request it serves.
        _, problem, alpha, beta, tag = payload
        value = er_search(
            problem, alpha, beta, stats=stats, table=_WORKER_TT,
            evaluator=_worker_evaluator(problem.game),
        ).value
    else:  # "refute": remaining children, sequentially, tightening bound
        _, game, positions, child_depth, child_sort, value, beta = payload
        for position in positions:
            sub = SearchProblem(
                game=RootedGame(game, position), depth=child_depth, sort_below_root=child_sort
            )
            result = er_search(
                sub, -beta, -value, stats=stats, table=_WORKER_TT,
                evaluator=_worker_evaluator(sub.game),
            )
            children_done += 1
            if -result.value > value:
                value = -result.value
            if value >= beta:
                stats.on_cutoff()
                break
    t_end = time.perf_counter()
    p = _probe.CURRENT
    ring = p.ring if p is not None else None
    if ring is not None:
        name = kind if tag is None else _live.tag_span_name(kind, tag)
        ring.record("task", name, t_start, t_end)
    return (
        kind, value, _pack_stats(stats), t_start, t_end, os.getpid(), children_done,
        _drain_worker_ring(),
    )


# ---------------------------------------------------------------------------
# The worker pool: the one owner of worker processes and shared segments.
# ---------------------------------------------------------------------------


#: Per-worker cap on the spans :class:`EnginePool` keeps coordinator-side
#: (oldest dropped first), bounding a long-lived service's trace memory.
TRACE_SPAN_LIMIT = 8192

#: Lock stripes per shared segment.
_SEGMENT_STRIPES = 8


class WorkerLedger:
    """Per-worker accounting of task results, keyed by stable worker index.

    Indices are 0-based, in order of a worker's first result (see
    :attr:`MultiprocResult.per_worker`).  Each :attr:`per_worker` row is
    ``{"pid": pid, <split>: busy seconds, ...}``.  The trace blobs riding
    on results feed per-worker span stores and ring counters, and task
    round trips feed per-worker clock-offset estimators.

    There is one instance per accounting scope.  An :class:`EnginePool`
    keeps one for its lifetime, with span stores bounded by
    :data:`TRACE_SPAN_LIMIT`.  Each search keeps its own, with a
    ``wasted`` split for results that were moot on arrival.
    """

    def __init__(
        self, splits: tuple[str, ...] = ("applied",), span_limit: Optional[int] = None
    ) -> None:
        self._splits = splits
        self._span_limit = span_limit
        self.per_worker: dict[int, dict[str, float]] = {}
        self._pid_index: dict[int, int] = {}
        self._spans: dict[int, deque[_live.SpanRec]] = {}
        self._offsets: dict[int, _live.OffsetEstimator] = {}
        self._dropped: dict[int, int] = {}
        self._self_cost: dict[int, float] = {}

    def index(self, pid: int) -> int:
        """The stable index of the worker with OS pid ``pid``."""
        return self._pid_index.setdefault(pid, len(self._pid_index))

    def note(
        self,
        outcome: TaskOutcome,
        split: str = "applied",
        *,
        submitted_at: Optional[float] = None,
    ) -> tuple[int, float]:
        """Fold one task result in; returns ``(worker index, busy seconds)``.

        ``submitted_at`` (coordinator clock, :func:`repro.obs.live.wall_clock`)
        turns the result into one clock-offset observation: ``(submit,
        start, end, receive)`` brackets the worker-to-coordinator offset,
        so collected spans can be rebased even across clock domains.
        """
        _, _, _, t_start, t_end, pid, _, blob = outcome
        index = self.index(pid)
        busy = max(0.0, t_end - t_start)
        row = self.per_worker.get(index)
        if row is None:
            row = self.per_worker[index] = {
                "pid": float(pid), **dict.fromkeys(self._splits, 0.0)
            }
        row[split] += busy
        self.merge_blob(pid, blob)
        if submitted_at is not None:
            self._offsets.setdefault(index, _live.OffsetEstimator()).observe(
                submitted_at, t_start, t_end, _live.wall_clock()
            )
        return index, busy

    def merge_blob(self, pid: int, blob: Optional[_TraceBlob]) -> None:
        """Keep one trace shipment from the worker with OS pid ``pid``."""
        if blob is None:
            return
        index = self.index(pid)
        spans, dropped, self_cost = blob
        self._spans.setdefault(index, deque(maxlen=self._span_limit)).extend(spans)
        # Counters are cumulative per worker, and shipments can arrive out
        # of order, so keep the largest seen.
        self._dropped[index] = max(self._dropped.get(index, 0), dropped)
        self._self_cost[index] = max(self._self_cost.get(index, 0.0), self_cost)

    def pids(self) -> dict[int, int]:
        """Stable worker index -> OS pid."""
        return {index: pid for pid, index in self._pid_index.items()}

    def offsets(self) -> dict[int, float]:
        """Clock offset per worker index with at least one observation."""
        return {index: est.offset for index, est in self._offsets.items()}

    def merged_spans(self) -> tuple[_live.WorkerSpan, ...]:
        """Collected worker spans rebased onto the coordinator clock.

        A worker without an offset observation is taken to share the
        coordinator's clock (the common Linux case).
        """
        return _live.merge_spans(self._spans, self.offsets())

    def live_trace(self, mode: str, coordinator: _live.SpanRing) -> _live.LiveTrace:
        """The merged timeline of these workers plus the coordinator's ring."""
        offsets = self.offsets()
        coord_dropped, coord_cost = coordinator.snapshot_counters()
        return _live.LiveTrace(
            mode=mode,
            spans=_live.merge_spans(
                {**self._spans, _live.COORDINATOR: coordinator.drain()}, offsets
            ),
            pids={**self.pids(), _live.COORDINATOR: os.getpid()},
            dropped={**self._dropped, _live.COORDINATOR: coord_dropped},
            offsets=offsets,
            self_cost_seconds=sum(self._self_cost.values()) + coord_cost,
        )


def _segment(
    mp_ctx: Any, mode: str, capacity: int, kind: CacheKind
) -> Optional[SharedMemoryTT]:
    """The pool's shared segment for one cache, if its mode is ``shared``."""
    if mode != "shared":
        return None
    locks = [mp_ctx.Lock() for _ in range(_SEGMENT_STRIPES)]
    return SharedMemoryTT(capacity, _SEGMENT_STRIPES, locks=locks, kind=kind)


def _worker_spec(mode: str, capacity: int, table: Optional[SharedMemoryTT]) -> tuple[Any, ...]:
    """What :func:`_worker_table` rebuilds one cache from in a worker."""
    if table is not None:
        return ("shared", table.handle(), table.locks)
    return ("private", capacity) if mode == "private" else ("off",)


class EnginePool:
    """P warm worker processes plus the shared segments they map.

    Every process and segment of the multiprocess backend is built here.
    :func:`multiproc_er` runs on one: a short-lived pool it builds and
    closes itself, or a caller's long-lived pool (the search service's,
    or :class:`repro.engine.EngineConfig`'s ``pool``) whose warm caches
    then span searches and requests.

    Args:
        n_workers: worker-process count.
        tt_mode: ``off``/``private``/``shared`` — ``shared`` (default)
            is the point of the service: one warm
            :class:`~repro.cache.sharedmem.SharedMemoryTT` spanning
            requests, so repeated and overlapping queries collapse to
            table hits.
        tt_capacity: slot budget for the shared table.
        eval_cache_mode: ``off``/``private``/``shared`` static-eval
            cache for the workers.
        eval_cache_capacity: entry budget for the eval cache.
        batch_eval: batch frontier evaluations in worker subtree
            searches.
        trace_mode: span-ring mode installed in every worker.

    The workers are a :class:`~repro.parallel.channel.TaskChannel`,
    started with :func:`preferred_start_method` before the constructor
    returns, each already through :func:`_init_worker`; their stripe
    locks come from that same context, so they survive the trip through
    :func:`_init_worker` under any start method.

    The pool accumulates run-independent accounting: a
    :class:`WorkerLedger` of per-worker busy seconds and trace spans
    (same index convention as :class:`MultiprocResult.per_worker`), merged
    :class:`~repro.search.stats.SearchStats` over every result passed to
    :meth:`note_outcome`, and task, short-circuit and table-answer
    counters (the last two kept by the service's engine).  :meth:`close`
    is idempotent and tears down the task channel and both shared segments;
    the soak battery asserts nothing leaks past it.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        tt_mode: str = "shared",
        tt_capacity: int = 1 << 14,
        eval_cache_mode: str = "off",
        eval_cache_capacity: int = 1 << 14,
        batch_eval: bool = False,
        trace_mode: str = _live.TRACE_OFF,
    ) -> None:
        if n_workers < 1:
            raise ServeError("need at least one worker process")
        if trace_mode not in _live.TRACE_MODES:
            raise ServeError(
                f"unknown trace mode {trace_mode!r}; expected one of {_live.TRACE_MODES}"
            )
        check_cache_mode(TT, tt_mode)
        check_cache_mode(EVAL, eval_cache_mode)
        self._n_workers = n_workers
        self._trace_mode = trace_mode
        mp_ctx = multiprocessing.get_context(preferred_start_method())
        self._shared_tt = _segment(mp_ctx, tt_mode, tt_capacity, TT)
        self._shared_eval = _segment(mp_ctx, eval_cache_mode, eval_cache_capacity, EVAL)
        tt_spec = _worker_spec(tt_mode, tt_capacity, self._shared_tt)
        eval_spec = (
            *_worker_spec(eval_cache_mode, eval_cache_capacity, self._shared_eval), batch_eval
        )
        try:
            self._executor: Optional[TaskChannel] = TaskChannel(
                n_workers, mp_ctx, initializer=_init_worker,
                initargs=(tt_spec, eval_spec, trace_mode),
            )
        except BaseException:
            self._destroy_segments()
            raise
        self.stats = SearchStats()
        #: Fed by :meth:`note_outcome`; the service has no moot results,
        #: so there is no "wasted" split.
        self._ledger = WorkerLedger(span_limit=TRACE_SPAN_LIMIT)
        self.counters: dict[str, int] = {
            "tasks_submitted": 0,
            "tasks_completed": 0,
            "tt_short_circuits": 0,
            "table_answers": 0,
        }
        self._closed = False
        self._final_counters: dict[str, int] = {}

    @property
    def executor(self) -> TaskChannel:
        if self._executor is None:
            raise ServeError("engine pool is closed")
        return self._executor

    @property
    def shared_tt(self) -> Optional[SharedMemoryTT]:
        return self._shared_tt

    @property
    def shared_eval(self) -> Optional[SharedMemoryTT]:
        return self._shared_eval

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def trace_mode(self) -> str:
        return self._trace_mode

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def per_worker(self) -> dict[int, dict[str, float]]:
        """Stable worker index -> ``{"pid", "applied"}`` busy seconds."""
        return self._ledger.per_worker

    # -- task submission ----------------------------------------------------

    def submit_eval(
        self,
        problem: SearchProblem,
        alpha: float = float("-inf"),
        beta: float = float("inf"),
        *,
        tag: Optional[str] = None,
    ) -> "Future[TaskOutcome]":
        """Ship one full subtree search to a warm worker process.

        ``tag`` (``request_id/span_id``, see
        :func:`repro.obs.reqtrace.span_tag`) rides in the task payload
        so the worker's span for this task carries its originating
        request — the propagation leg of request-scoped tracing.
        """
        future = self.executor.submit(_run_task, ("eval", problem, alpha, beta, tag))
        self.counters["tasks_submitted"] += 1
        return future

    def note_outcome(
        self, outcome: TaskOutcome, *, submitted_at: Optional[float] = None
    ) -> float:
        """Fold one task result into the pool's accounting; returns its value.

        ``submitted_at`` is as in :meth:`WorkerLedger.note`: it lets
        collected worker spans be rebased onto the service timeline.
        """
        self.stats.merge(_unpack_stats(outcome[2]))
        self._ledger.note(outcome, submitted_at=submitted_at)
        self.counters["tasks_completed"] += 1
        return outcome[1]

    # -- collected worker traces --------------------------------------------

    def merged_spans(self) -> tuple[_live.WorkerSpan, ...]:
        """Collected worker spans rebased onto the coordinator clock."""
        return self._ledger.merged_spans()

    def request_spans(self, request_id: str) -> tuple[_live.WorkerSpan, ...]:
        """Merged worker spans tagged as belonging to ``request_id``."""
        prefix = f"{request_id}/"
        matched: list[_live.WorkerSpan] = []
        for span in self.merged_spans():
            _, tag = _live.split_span_name(span.name)
            if tag is not None and tag.startswith(prefix):
                matched.append(span)
        return tuple(matched)

    def span_pids(self) -> dict[int, int]:
        """Stable worker index -> OS pid, for labeling exported tracks."""
        return self._ledger.pids()

    def probe_exact(self, key: int, depth: int) -> Optional[float]:
        """Answer a full-window subtree from the warm table, if it can.

        ``key`` is the subtree root's :func:`~repro.games.base.hash_key`.
        The gate is :func:`~repro.search.transposition.usable_value` at
        the open window, the one :func:`~repro.core.serial_er.er_search`
        applies at the subtree's root, so a short-circuit here returns
        exactly what the worker would have.  At an open window only an
        EXACT entry (or a bound at infinity) answers.  It counts nothing:
        the caller counts, in ``tt_short_circuits``, the values it used.
        """
        table = self.shared_tt
        if table is None:
            return None
        return usable_value(table.probe(key), depth, NEG_INF, POS_INF)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> dict[str, int]:
        """Shut down workers and destroy the shared segments; idempotent.

        Returns the pool's final counters (task counts, short-circuits,
        and the shared segments' cumulative hit/store totals).
        """
        if self._closed:
            return dict(self._final_counters)
        self._closed = True
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        # Every worker has exited, so the segments can go: the pool both
        # closes its mappings and destroys them.
        final = dict(self.counters)
        final.update(self._destroy_segments())
        self._final_counters = final
        return dict(final)

    def _destroy_segments(self) -> dict[str, int]:
        """Close and unlink both shared segments; returns their counters."""
        counters: dict[str, int] = {}
        if self._shared_tt is not None:
            counters.update(self._shared_tt.counter_snapshot())
            self._shared_tt.close()
            self._shared_tt.unlink()
            self._shared_tt = None
        if self._shared_eval is not None:
            counters.update(self._shared_eval.counter_snapshot())
            self._shared_eval.close()
            self._shared_eval.unlink()
            self._shared_eval = None
        return counters

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Coordinator side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiprocResult:
    """Outcome of one multiprocess ER run, with real-time loss accounting.

    Attributes:
        value: root negmax value (equal to serial ER's; asserted by the
            cross-backend parity harness).
        n_workers: worker-process count.
        wall_time: coordinator wall-clock seconds from start to root
            combine.
        stats: merged work accounting — coordinator expansions plus every
            worker subtree search whose result arrived (applied or moot).
        extras: protocol counters (primary/speculative pops, stale and
            cutoff discards, serial searches, task counts, ...).
        busy_applied_seconds: worker seconds on tasks whose results were
            used.
        busy_wasted_seconds: worker seconds on tasks moot on arrival.
        starvation_seconds: integrated worker idleness while the heap had
            nothing to hand out.
        interference_seconds: residual processor-seconds (IPC, pickling,
            coordinator occupancy).
        per_worker: busy split keyed by **stable worker index** (0-based,
            in order of first result arrival), ``{index: {"pid": pid,
            "applied": s, "wasted": s}}`` — the attribution
            :func:`repro.obs.snapshot.snapshot_from_multiproc` turns into
            per-processor breakdown rows.  Indices, not OS pids: pids
            recycle across runs and would make ledger compares and golden
            traces needlessly noisy; the pid stays available as a field.
        trace: merged wall-clock timeline when the run was traced
            (``trace="sampled"``/``"full"``), else ``None``.
    """

    value: float
    n_workers: int
    wall_time: float
    stats: SearchStats
    extras: dict[str, Any] = field(default_factory=dict)
    busy_applied_seconds: float = 0.0
    busy_wasted_seconds: float = 0.0
    starvation_seconds: float = 0.0
    interference_seconds: float = 0.0
    per_worker: dict[int, dict[str, float]] = field(default_factory=dict)
    trace: Optional[_live.LiveTrace] = None

    @property
    def processor_seconds(self) -> float:
        return self.n_workers * self.wall_time

    def speedup(self, serial_seconds: float) -> float:
        """Fishburn's speedup against a measured serial wall time."""
        if self.wall_time <= 0:
            return float("inf")
        return serial_seconds / self.wall_time

    def efficiency(self, serial_seconds: float) -> float:
        return self.speedup(serial_seconds) / max(1, self.n_workers)

    def _fraction(self, seconds: float) -> float:
        total = self.processor_seconds
        return seconds / total if total > 0 else 0.0

    @property
    def starvation_fraction(self) -> float:
        return self._fraction(self.starvation_seconds)

    @property
    def interference_fraction(self) -> float:
        return self._fraction(self.interference_seconds)


class Coordinator:
    """The coordinator process of one multiprocess ER search.

    It applies the simulator's Table 1 steps to the heap it hosts (see
    the module docstring).  What it adds is the task channel: a live
    node at serial depth is shipped to ``executor`` as one
    :func:`_run_task` (:meth:`submit`), and its result is folded back in
    (:meth:`apply_result`, via :meth:`drain`).

    Arguments are as in :func:`multiproc_er`, except that ``executor``
    (a :class:`~repro.parallel.channel.TaskChannel`, or anything with
    its ``submit(fn, *args) -> Future`` and ``wait(futures, timeout)``)
    and the shared segments ``shared_tt``/``shared_eval`` stand in for
    the pool, and ``config.distributed_heap`` must be off.
    """

    def __init__(
        self,
        problem: SearchProblem,
        n_workers: int,
        executor: TaskChannel,
        *,
        config: ERConfig,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        timeout: float = 300.0,
        batch_eval: bool = False,
        shared_tt: Optional[SharedMemoryTT] = None,
        shared_eval: Optional[SharedMemoryTT] = None,
        trace: str = _live.TRACE_OFF,
    ) -> None:
        self.ctx = _Context(
            problem, cost_model, config, trace=False, n_processors=n_workers,
            batch_eval=batch_eval,
        )
        self.n_workers = n_workers
        self.executor = executor
        self.timeout = timeout
        self.shared_tt = shared_tt
        self.shared_eval = shared_eval
        self.trace_mode = trace
        #: Coordinator expansions plus every worker result that arrived.
        self.stats = SearchStats()
        #: In-flight task -> (its node, coordinator time of submission).
        self.pending: dict[Future[TaskOutcome], tuple[PNode, float]] = {}
        self.counters = {
            "tasks_submitted": 0,
            "tasks_applied": 0,
            "tasks_discarded": 0,
            "tasks_orphaned": 0,
            "tt_coord_hits": 0,
        }
        self.ledger = WorkerLedger(splits=("applied", "wasted"))
        # The coordinator's own ring captures its shared-table probes and
        # heap waits; :meth:`run` installs it for the run.
        self.ring = _live.ring_for_mode(trace)
        self.wall_time = 0.0
        #: Integrated worker idleness: see :meth:`_tick`.
        self.starved_seconds = 0.0
        self._start = self._last_event = time.perf_counter()

    # -- the Table 1 step ---------------------------------------------------

    def _tick(self) -> float:
        """Integrate starvation up to now, before a submit or receive.

        Since the previous submit or receive, ``max(0, workers -
        in_flight)`` workers had nothing to do; returns the time now.
        """
        now = time.perf_counter()
        idle = max(0, self.n_workers - len(self.pending))
        self.starved_seconds += idle * max(0.0, now - self._last_event)
        self._last_event = now
        return now

    def _finish(self, node: PNode, value: Optional[float] = None) -> None:
        pushes: list[tuple[str, PNode]] = []
        self.ctx.finish(node, pushes, value=value)
        self.ctx.publish(pushes)

    def _probe(self, node: PNode, window: tuple[float, float]) -> Optional[float]:
        """Answer ``node``'s subtree from the shared table, if it can."""
        if self.shared_tt is None:
            return None
        problem = self.ctx.problem
        self.stats.on_tt_probe(self.ctx.cost_model)
        entry = self.shared_tt.probe(hash_key(problem.game, node.position))
        return usable_value(entry, problem.depth - node.ply, *window)

    def _leaf_value(self, node: PNode) -> float:
        """A coordinator leaf's static value, through the shared caches."""
        problem, cm, stats = self.ctx.problem, self.ctx.cost_model, self.stats
        key = 0
        if self.shared_eval is not None or self.shared_tt is not None:
            key = hash_key(problem.game, node.position)
        cached: Optional[TTEntry] = None
        if self.shared_eval is not None:
            cached = self.shared_eval.probe(key)
            stats.on_eval_probe(cm, hit=cached is not None)
        if cached is not None:
            stats.note_leaf(node.position)
            value = cached.value
        else:
            stats.on_leaf(node.position, cm)
            value = problem.game.evaluate(node.position)
            if self.shared_eval is not None:
                stats.on_eval_store(cm)
                self.shared_eval.store(key, static_entry(value))
        if self.shared_tt is not None:
            stats.on_tt_store(cm)
            self.shared_tt.store(
                key, TTEntry(value, problem.depth - node.ply, Bound.EXACT, None)
            )
        return value

    def _primary(self, node: PNode) -> None:
        """A primary-queue pop, in the simulator's order of steps."""
        ctx = self.ctx
        verdict, window = ctx.screen(node)
        if verdict == STALE:
            return
        if verdict == CUT:
            self._finish(node)
            return
        hit = self._probe(node, window)
        if hit is not None:
            self.counters["tt_coord_hits"] += 1
            self._finish(node, hit)
            return
        if ctx.ships_whole(node):
            self.submit(node, window)
            return
        ctx.expand_positions(node, self.stats)
        if node.is_leaf:
            self._finish(node, self._leaf_value(node))
        else:
            pushes: list[tuple[str, PNode]] = []
            ctx.expand_children(node, pushes)
            ctx.publish(pushes)

    # -- the task channel ---------------------------------------------------

    def submit(self, node: PNode, window: tuple[float, float]) -> None:
        """Ship a live node at serial depth to a worker as one task.

        An r-node whose first child is already evaluated ships its
        remaining children as one ``refute`` task, unless
        :meth:`~repro.core.er_parallel._Context.refute_plan` settles it
        without a search; any other node ships its whole subtree as an
        ``eval`` task searched against ``window``.
        """
        ctx = self.ctx
        problem = ctx.problem
        ctx._bump("serial_searches")
        payload: tuple[Any, ...]
        if node.next_child > 0:
            value, start, settled = ctx.refute_plan(node, window)
            if settled:
                self._finish(node, value)
                return
            assert node.child_positions is not None
            payload = (
                "refute",
                problem.game,
                list(node.child_positions[start:]),
                problem.depth - node.ply - 1,
                max(0, problem.sort_below_root - node.ply - 1),
                value,
                window[1],
            )
        else:
            payload = ("eval", subproblem(problem, node.position, node.ply), *window, None)
        future = self.executor.submit(_run_task, payload)
        self.counters["tasks_submitted"] += 1
        self.pending[future] = (node, self._tick())
        ctx._emit(_obs.EV_TASK_SUBMIT, node, task=-1, kind=str(payload[0]))

    def apply_result(self, node: PNode, outcome: TaskOutcome, submitted_at: float) -> None:
        """Fold one task result into the tree, or discard it if moot.

        A result is moot when its node or an ancestor finished while the
        task ran: its worker time counts as ``wasted`` and its node counts are still merged, since the work was done.
        """
        self.stats.merge(_unpack_stats(outcome[2]))
        moot = node.done or self.ctx.has_finished_ancestor(node)
        index, duration = self.ledger.note(
            outcome,
            "wasted" if moot else "applied",
            submitted_at=submitted_at if self.ring is not None else None,
        )
        self.ctx._emit(
            _obs.EV_TASK_RESULT, node, task=-1, applied=not moot,
            duration=duration, worker=index,
        )
        if moot:
            self.counters["tasks_discarded"] += 1
            self.ctx._bump("stale_discards")
            return
        self.counters["tasks_applied"] += 1
        if outcome[0] == "refute":
            node.next_child += outcome[6]
        self._finish(node, outcome[1])

    def drain(self, block: bool) -> None:
        """Apply every completed task; with ``block``, wait for one first."""
        if not self.pending:
            return
        if block:
            # The coordinator is starved of heap work here: record the
            # wait as a span so the merged timeline shows *why* workers
            # were the bottleneck at that instant.
            ring = self.ring
            token = ring.begin() if ring is not None else -1.0
            done = self.executor.wait(self.pending, self.timeout)
            if ring is not None:
                ring.end("heap", "wait", token)
            if not done:
                raise SimulationError(
                    f"multiproc ER wedged: no task completed in {self.timeout:.0f}s"
                )
        else:
            done = self.executor.wait(self.pending, 0.0)
        for future in done:
            self._tick()
            node, submitted_at = self.pending.pop(future)
            error = future.exception()
            if error is not None:
                raise SimulationError(f"worker process failed: {error!r}") from error
            self.apply_result(node, future.result(), submitted_at)

    # -- the run ------------------------------------------------------------

    def run(self) -> None:
        """Pop and step until the root combines, then cancel leftovers.

        Raises:
            SimulationError: on a failed or wedged task, or a protocol
                deadlock (empty heap with nothing in flight).
        """
        ctx = self.ctx
        try:
            with _probe.attached("ring", self.ring):
                while not ctx.done:
                    self.drain(block=False)
                    if ctx.done:
                        break
                    if len(self.pending) >= IN_FLIGHT_PER_WORKER * self.n_workers:
                        self.drain(block=True)
                        continue
                    node, from_spec = ctx.pop_work()
                    if node is None:
                        if not self.pending:
                            raise SimulationError(
                                "multiproc ER deadlocked: empty heap with no tasks in flight"
                            )
                        self.drain(block=True)
                        continue
                    if from_spec:
                        pushes: list[tuple[str, PNode]] = []
                        ctx.speculative_step(node, pushes)
                        ctx.publish(pushes)
                    else:
                        self._primary(node)
            self.wall_time = time.perf_counter() - self._start
            self._tick()
            self.counters["tasks_orphaned"] = len(self.pending)
            for future in self.pending:
                future.cancel()
        finally:
            # Only ``ctx.root.value`` is read from here on, raised or not.
            ctx.release()

    def flush(self) -> None:
        """Collect the spans workers recorded after their last result.

        Spans of orphaned tasks and trailing cache probes would otherwise
        be lost when the pool closes.  Over-submit so every pool process
        likely runs one flush; duplicates drain empty.  Best effort: a
        dead worker just keeps its tail.
        """
        if self.ring is None:
            return
        flushes = {self.executor.submit(_flush_trace) for _ in range(2 * self.n_workers)}
        while flushes:
            done = self.executor.wait(flushes, self.timeout)
            if not done:
                return
            flushes.difference_update(done)
            for future in done:
                try:
                    pid, blob = future.result()
                except Exception:  # noqa: BLE001 - flush is best-effort
                    continue
                self.ledger.merge_blob(pid, blob)

    def result(self, pool_counters: Optional[dict[str, int]] = None) -> MultiprocResult:
        """The finished run's value, counters and loss accounting.

        ``pool_counters`` are the shared segments' totals of a pool closed
        after this run; a persistent pool's belong to the pool instead.
        """
        extras: dict[str, Any] = {**self.ctx.counters, **self.counters, **(pool_counters or {})}
        rows = self.ledger.per_worker.values()
        applied = sum(row["applied"] for row in rows)
        wasted = sum(row["wasted"] for row in rows)
        capacity = self.n_workers * self.wall_time
        starvation = min(self.starved_seconds, max(0.0, capacity - applied - wasted))
        return MultiprocResult(
            value=self.ctx.root.value,
            n_workers=self.n_workers,
            wall_time=self.wall_time,
            stats=self.stats,
            extras=extras,
            busy_applied_seconds=applied,
            busy_wasted_seconds=wasted,
            starvation_seconds=starvation,
            interference_seconds=max(0.0, capacity - applied - wasted - starvation),
            per_worker=self.ledger.per_worker,
            trace=(
                None if self.ring is None
                else self.ledger.live_trace(self.trace_mode, self.ring)
            ),
        )


def multiproc_er(
    problem: SearchProblem,
    n_workers: int,
    *,
    config: Optional[ERConfig] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    timeout: float = 300.0,
    tt_mode: str = "off",
    tt_capacity: int = 1 << 14,
    eval_cache_mode: str = "off",
    eval_cache_capacity: int = 1 << 14,
    batch_eval: bool = False,
    trace: str = _live.TRACE_OFF,
    pool: Optional[EnginePool] = None,
) -> MultiprocResult:
    """Run ER with a coordinator-hosted problem heap and worker processes.

    Args:
        problem: the game and horizon to search.
        n_workers: worker-process count (the real-hardware analogue of
            the paper's processor count).  With ``pool``, it must equal
            ``pool.n_workers``: the loss accounting charges exactly
            ``n_workers`` processors.
        config: ER tunables; defaults to every speculative mechanism on
            with ``serial_depth`` set by :func:`default_serial_depth`
            (the simulator's no-cutover default would leave the pool with
            nothing to do).  ``distributed_heap`` is ignored — the heap
            is coordinator-hosted by construction.
        cost_model: charged to the merged stats so node accounting stays
            comparable with the serial and simulated backends; wall time
            is measured, not simulated.
        timeout: seconds to wait for any single in-flight task batch
            before declaring the run wedged.
        tt_mode: ``off`` (no caching), ``private`` (one plain table per
            worker process, installed by the pool initializer), or
            ``shared`` (one :class:`~repro.cache.sharedmem.SharedMemoryTT`
            segment every worker maps; the coordinator also probes it
            before expanding each primary node, finishing the node
            without a task on a usable hit).
        tt_capacity: slot/entry budget for the table(s).
        eval_cache_mode: ``off``, ``private`` (one plain table per
            worker process), or ``shared`` (one eval-kind
            :class:`~repro.cache.sharedmem.SharedMemoryTT` segment every
            worker maps; the coordinator also probes/stores it for its
            own leaves).
        eval_cache_capacity: entry budget for the eval cache(s).
        batch_eval: batch frontier evaluations inside worker subtree
            searches and coordinator move ordering even without a cache.
        trace: wall-clock span tracing — ``off`` (default, zero-cost),
            ``sampled`` (record one span in
            :data:`~repro.obs.live.SAMPLED_STRIDE` on the hot paths), or
            ``full``.  Non-``off`` modes install a bounded span ring per
            worker process (plus one in the coordinator), ship spans back
            on the result channel with a drain-on-exit flush, calibrate
            each worker's clock offset from task round-trips, and attach
            the merged timeline as ``result.trace``.
        pool: a caller-owned :class:`EnginePool` whose warm workers and
            shared caches this search runs on.  The pool's cache
            configuration *replaces* ``tt_mode``/``eval_cache_mode``
            (its workers were already initialized), its shared segments
            are left alive for the next search, and ``trace`` must
            match the pool's trace mode.  Without one,
            the search builds a short-lived :class:`EnginePool` from the
            arguments above and closes it before returning.

    Raises:
        SearchError: on an invalid argument, including a ``pool`` whose
            worker count or trace mode differs from ``n_workers`` or
            ``trace``.
        SimulationError: on a worker crash, a wedged pool, or a protocol
            deadlock (empty heap with nothing in flight before the root
            combines).
    """
    if n_workers < 1:
        raise SearchError("need at least one worker process")
    if config is None:
        config = ERConfig(serial_depth=default_serial_depth(problem.depth))
    if config.distributed_heap:
        config = replace(config, distributed_heap=False)
    check_cache_mode(TT, tt_mode)
    check_cache_mode(EVAL, eval_cache_mode)
    if trace not in _live.TRACE_MODES:
        raise SearchError(
            f"unknown trace mode {trace!r}; expected one of {_live.TRACE_MODES}"
        )
    if pool is not None and n_workers != pool.n_workers:
        raise SearchError(
            f"{n_workers} worker(s) requested on a pool of {pool.n_workers}: "
            "the loss accounting charges exactly the pool's processors"
        )
    if pool is not None and trace != pool.trace_mode:
        raise SearchError(
            f"trace mode {trace!r} does not match the persistent pool's "
            f"{pool.trace_mode!r}: worker span rings are installed by the "
            "pool initializer and cannot change per search"
        )

    # A caller's pool stays up, segments and cumulative counters alive,
    # for the next search; without one, this search owns a short-lived
    # pool and closes it in the finally below.
    own_pool = pool is None
    if pool is None:
        pool = EnginePool(
            n_workers,
            tt_mode=tt_mode,
            tt_capacity=tt_capacity,
            eval_cache_mode=eval_cache_mode,
            eval_cache_capacity=eval_cache_capacity,
            batch_eval=batch_eval,
            trace_mode=trace,
        )
    tail_counters: dict[str, int] = {}
    try:
        coordinator = Coordinator(
            problem, n_workers, pool.executor, config=config, cost_model=cost_model,
            timeout=timeout, batch_eval=batch_eval, shared_tt=pool.shared_tt,
            shared_eval=pool.shared_eval, trace=trace,
        )
        coordinator.run()
        if own_pool:
            coordinator.flush()
    finally:
        if own_pool:
            # Keep only the segments' cumulative counters: the pool's own
            # task counters never saw this search, whose coordinator
            # submits straight to the executor.
            tail_counters = {
                key: value for key, value in pool.close().items()
                if key not in pool.counters
            }
    return coordinator.result(tail_counters)


# ---------------------------------------------------------------------------
# Scaling study helpers (shared by the CLI and the benchmark suite).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingPoint:
    """One processor count of a wall-clock scaling run."""

    n_workers: int
    wall_time: float
    speedup: float
    efficiency: float
    result: MultiprocResult


def measure_serial_seconds(problem: SearchProblem, *, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall-clock seconds of serial ER on ``problem``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        er_search(problem)
        best = min(best, time.perf_counter() - t0)
    return best


def scaling_run(
    problem: SearchProblem,
    counts: Sequence[int],
    *,
    config: Optional[ERConfig] = None,
    serial_seconds: Optional[float] = None,
    tt_mode: str = "off",
    eval_cache_mode: str = "off",
    batch_eval: bool = False,
    trace: str = _live.TRACE_OFF,
) -> tuple[float, list[ScalingPoint]]:
    """Serial baseline plus one multiproc run per worker count."""
    if serial_seconds is None:
        serial_seconds = measure_serial_seconds(problem)
    points: list[ScalingPoint] = []
    for count in counts:
        result = multiproc_er(
            problem, count, config=config, tt_mode=tt_mode,
            eval_cache_mode=eval_cache_mode, batch_eval=batch_eval, trace=trace,
        )
        points.append(
            ScalingPoint(
                n_workers=count,
                wall_time=result.wall_time,
                speedup=result.speedup(serial_seconds),
                efficiency=result.efficiency(serial_seconds),
                result=result,
            )
        )
    return serial_seconds, points


def format_scaling_table(
    tree_name: str, serial_seconds: float, points: Sequence[ScalingPoint]
) -> str:
    """Render a scaling run in the fig10-13 results-file format."""
    header = "tree  serial-ER-s  " + "".join(
        f"P={p.n_workers:<6d}" for p in points
    )
    row = f"{tree_name:<4s}  {serial_seconds:11.3f}  " + "".join(
        f"{p.efficiency:7.3f}" for p in points
    )
    best = max(points, key=lambda p: p.speedup)
    summary = (
        f"{tree_name}: speedup {best.speedup:.1f} at P={best.n_workers} "
        f"(efficiency {best.efficiency:.2f}; best serial: er)"
    )
    losses = "\n".join(
        f"{tree_name} P={p.n_workers}: wall={p.wall_time:.3f}s "
        f"starvation={p.result.starvation_fraction:.3f} "
        f"interference={p.result.interference_fraction:.3f} "
        f"moot={p.result._fraction(p.result.busy_wasted_seconds):.3f}"
        for p in points
    )
    return "\n".join((header, row, summary, losses))
