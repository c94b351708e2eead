"""True-parallel multiprocess execution of the ER problem heap.

The simulator (:mod:`repro.core.er_parallel`) answers the paper's
*algorithmic* questions and the threaded driver answers the
*protocol-correctness* ones; this module answers the remaining question —
"is it actually faster on real hardware?" — by running ER on a pool of
worker **processes**, which bypasses CPython's GIL.

Division of labour (mirroring the paper's Sequent implementation, where
the shared problem heap was cheap and the static evaluator dominated):

* The **coordinator** process hosts the problem heap — the very same
  :class:`~repro.core.er_queues.PrimaryQueue` and
  :class:`~repro.core.er_queues.SpeculativeQueue`, inside the very same
  :class:`~repro.core.er_parallel._Context` the simulator uses — and runs
  the Table 1/Table 2 node-generation and combine rules inline.  Because
  a single process serves the heap, no locks are needed; the coordinator
  plays the role a ``multiprocessing.Manager`` would, without paying one
  IPC round-trip per queue operation.
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

The heap, not the executor, picks every task.  The coordinator keeps at
most :data:`IN_FLIGHT_PER_WORKER` tasks in flight per worker (one
running, one queued); at that bound it waits for a result instead of
popping more work.  The paper's processors take a node from the heap
only when they are free, so the primary queue's depth-first order and
the speculative queue's ranking decide what runs next.  Flooding the
executor instead would hand that choice to its unbounded FIFO queue:
the coordinator would drain both queues long before any result
returned, tasks would wait a whole search's worth in line, and tasks a
cutoff had made moot would still run.  The second slot per worker hides
the submit-to-result round trip, which would otherwise idle each worker
once per task.

Semantics match the simulator's documented deviations: subtree searches
run against the window captured at dispatch, results of subtrees
orphaned by a cutoff are discarded on arrival (their node counts are
still merged — the work *was* performed), and the combine procedure is
byte-for-byte the simulator's (it is literally the same code).

Loss accounting (paper Section 3.1), from per-worker counters: over the
run's ``n_workers * wall_time`` processor-seconds,

* **speculative loss** is worker time spent on subtree tasks whose
  results were moot on arrival (an ancestor had combined or been cut
  off) — completed work a serial search would not have needed;
* **starvation loss** is worker time during which fewer tasks were in
  flight than workers (the heap had nothing at serial depth to hand
  out), integrated from the coordinator's submit/receive event log;
* **interference loss** is the remainder: pickling, queue IPC, and
  coordinator occupancy — the multiprocess analogue of the paper's
  lock contention.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from ..cache.sharedmem import SharedMemoryTT
from ..cache.striped import TT_MODES
from ..core.er_parallel import E_NODE, R_NODE, UNDECIDED, ERConfig, PNode, _Context
from ..core.serial_er import TTView, er_search
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError, ServeError, SimulationError
from ..eval.cache import EVAL_CACHE_MODES, SharedMemoryEvalCache, StripedEvalCache
from ..eval.evaluator import EvalCacheView, Evaluator
from ..games.base import Game, Position, RootedGame, SearchProblem, hash_key, subproblem
from ..obs import events as _obs
from ..obs import live as _live
from ..search.stats import SearchStats
from ..search.transposition import Bound, TranspositionTable, TTEntry

__all__ = [
    "IN_FLIGHT_PER_WORKER",
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


#: Tasks the coordinator keeps in flight per worker: one running and one
#: queued, so a worker never waits a round trip for its next task while
#: the heap still chooses each task as late as possible.
IN_FLIGHT_PER_WORKER = 2


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


_PackedStats = tuple[int, int, int, int, int, int, int, int, int, int, int, int, int, float]


def _pack_stats(stats: SearchStats) -> _PackedStats:
    return (
        stats.interior_visits,
        stats.leaf_evals,
        stats.ordering_evals,
        stats.nodes_generated,
        stats.cutoffs,
        stats.tt_probes,
        stats.tt_stores,
        stats.static_evals,
        stats.batch_calls,
        stats.batch_leaves,
        stats.eval_probes,
        stats.eval_hits,
        stats.eval_stores,
        stats.cost,
    )


def _unpack_stats(packed: _PackedStats) -> SearchStats:
    (
        interior, leaves, ordering, generated, cutoffs, tt_probes, tt_stores,
        static_evals, batch_calls, batch_leaves, eval_probes, eval_hits,
        eval_stores, cost,
    ) = packed
    return SearchStats(
        interior_visits=interior,
        leaf_evals=leaves,
        ordering_evals=ordering,
        nodes_generated=generated,
        cutoffs=cutoffs,
        tt_probes=tt_probes,
        tt_stores=tt_stores,
        static_evals=static_evals,
        batch_calls=batch_calls,
        batch_leaves=batch_leaves,
        eval_probes=eval_probes,
        eval_hits=eval_hits,
        eval_stores=eval_stores,
        cost=cost,
    )


#: Per-process transposition table set by the pool initializer below;
#: ``None`` runs the subtree searches uncached (``--tt off``).
_WORKER_TT: Optional[TTView] = None
#: Per-process evaluation cache; ``None`` means ``--eval-cache off``.
_WORKER_EVAL_CACHE: Optional[EvalCacheView] = None
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

    ``trace_mode`` installs this process's span ring
    (:data:`repro.obs.live.RING`), which the shared-cache probe/store
    hooks and :func:`_run_task` record into; its contents ship back on
    the result channel.
    """
    global _WORKER_TT, _WORKER_EVAL_CACHE, _WORKER_BATCH_EVAL
    _live.install_ring(trace_mode)
    if tt_spec[0] == "shared":
        _WORKER_TT = SharedMemoryTT.attach(tt_spec[1], tt_spec[2])
    elif tt_spec[0] == "private":
        _WORKER_TT = TranspositionTable(capacity=tt_spec[1])
    else:
        _WORKER_TT = None
    _WORKER_BATCH_EVAL = bool(eval_spec[-1])
    if eval_spec[0] == "shared":
        _WORKER_EVAL_CACHE = SharedMemoryEvalCache.attach(eval_spec[1], eval_spec[2])
    elif eval_spec[0] == "private":
        # Single-stripe: a worker process is single-threaded, so the
        # stripe lock is uncontended; this buys the float surface and
        # the bounded-capacity table for free.
        _WORKER_EVAL_CACHE = StripedEvalCache(eval_spec[1], n_stripes=1)
    else:
        _WORKER_EVAL_CACHE = None


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
    ring = _live.RING
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
        # The serve pool appends an optional request tag
        # (``request_id/span_id``) so this task's span carries its
        # originating request; the 4-tuple form stays the multiproc
        # driver's wire format.
        if len(payload) == 5:
            _, problem, alpha, beta, tag = payload
        else:
            _, problem, alpha, beta = payload
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
    ring = _live.RING
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


def _check_cache_modes(tt_mode: str, eval_cache_mode: str) -> None:
    if tt_mode not in TT_MODES:
        raise SearchError(f"unknown tt mode {tt_mode!r}; expected one of {TT_MODES}")
    if eval_cache_mode not in EVAL_CACHE_MODES:
        raise SearchError(
            f"unknown eval-cache mode {eval_cache_mode!r}; expected one of {EVAL_CACHE_MODES}"
        )


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

    Workers start with :func:`preferred_start_method`; their stripe
    locks come from that same context, so they survive the trip through
    :func:`_init_worker` under any start method.

    The pool accumulates run-independent accounting: per-worker busy
    seconds keyed by stable worker index (same convention as
    :class:`MultiprocResult.per_worker`), merged
    :class:`~repro.search.stats.SearchStats` over every result passed to
    :meth:`note_outcome`, and task/short-circuit counters.  :meth:`close`
    is idempotent and tears down the executor and both shared segments;
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
        _check_cache_modes(tt_mode, eval_cache_mode)
        self._n_workers = n_workers
        self._trace_mode = trace_mode
        mp_ctx = multiprocessing.get_context(preferred_start_method())
        self._shared_tt: Optional[SharedMemoryTT] = None
        self._shared_eval: Optional[SharedMemoryEvalCache] = None
        tt_spec: tuple[Any, ...] = ("off",)
        if tt_mode == "shared":
            self._shared_tt = SharedMemoryTT(
                capacity=tt_capacity,
                n_stripes=_SEGMENT_STRIPES,
                locks=[mp_ctx.Lock() for _ in range(_SEGMENT_STRIPES)],
            )
            tt_spec = ("shared", self._shared_tt.handle(), self._shared_tt.locks)
        elif tt_mode == "private":
            tt_spec = ("private", tt_capacity)
        eval_spec: tuple[Any, ...] = ("off", batch_eval)
        if eval_cache_mode == "shared":
            self._shared_eval = SharedMemoryEvalCache(
                _table=SharedMemoryTT(
                    capacity=eval_cache_capacity,
                    n_stripes=_SEGMENT_STRIPES,
                    locks=[mp_ctx.Lock() for _ in range(_SEGMENT_STRIPES)],
                )
            )
            eval_spec = (
                "shared", self._shared_eval.handle(), self._shared_eval.locks, batch_eval
            )
        elif eval_cache_mode == "private":
            eval_spec = ("private", eval_cache_capacity, batch_eval)
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=mp_ctx,
            initializer=_init_worker,
            initargs=(tt_spec, eval_spec, trace_mode),
        )
        self.stats = SearchStats()
        #: Stable worker index -> {"pid", "applied"} busy seconds; the
        #: service has no moot results, so there is no "wasted" split.
        self.per_worker: dict[int, dict[str, float]] = {}
        self._pid_index: dict[int, int] = {}
        self.counters: dict[str, int] = {
            "tasks_submitted": 0,
            "tasks_completed": 0,
            "tt_short_circuits": 0,
        }
        self._closed = False
        self._final_counters: dict[str, int] = {}
        #: Worker trace collection, fed by :meth:`note_outcome` from the
        #: trace blobs riding on task results: per-pid span deques
        #: (bounded), per-pid clock-offset estimators built from task
        #: round-trips, and cumulative ring counters (max-merged — the
        #: workers ship lifetime values with every result).
        self._trace_spans: dict[int, deque[_live.SpanRec]] = {}
        self._trace_offsets: dict[int, _live.OffsetEstimator] = {}
        self._trace_dropped: dict[int, int] = {}
        self._trace_self_cost: dict[int, float] = {}

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise ServeError("engine pool is closed")
        return self._executor

    @property
    def shared_tt(self) -> Optional[SharedMemoryTT]:
        return self._shared_tt

    @property
    def shared_eval(self) -> Optional[SharedMemoryEvalCache]:
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
        payload: tuple[object, ...] = ("eval", problem, alpha, beta)
        if tag is not None:
            payload = payload + (tag,)
        future = self.executor.submit(_run_task, payload)
        self.counters["tasks_submitted"] += 1
        return future

    def note_outcome(
        self, outcome: TaskOutcome, *, submitted_at: Optional[float] = None
    ) -> float:
        """Fold one task result into the pool's accounting; returns its value.

        ``submitted_at`` (coordinator clock, :func:`repro.obs.live.wall_clock`)
        turns this result's worker timestamps into one clock-offset
        observation — ``(submit, start, end, receive)`` brackets the
        worker-to-coordinator offset — so collected worker spans can be
        rebased onto the service timeline even across clock domains.
        """
        _, value, packed, t_start, t_end, worker_pid, _, blob = outcome
        self.stats.merge(_unpack_stats(packed))
        index = self._pid_index.setdefault(worker_pid, len(self._pid_index))
        split = self.per_worker.setdefault(
            index, {"pid": float(worker_pid), "applied": 0.0}
        )
        split["applied"] += max(0.0, t_end - t_start)
        self.counters["tasks_completed"] += 1
        if blob is not None:
            spans, dropped, self_cost = blob
            store = self._trace_spans.setdefault(
                worker_pid, deque(maxlen=TRACE_SPAN_LIMIT)
            )
            store.extend(spans)
            self._trace_dropped[worker_pid] = max(
                self._trace_dropped.get(worker_pid, 0), dropped
            )
            self._trace_self_cost[worker_pid] = max(
                self._trace_self_cost.get(worker_pid, 0.0), self_cost
            )
        if submitted_at is not None:
            estimator = self._trace_offsets.setdefault(
                worker_pid, _live.OffsetEstimator()
            )
            estimator.observe(submitted_at, t_start, t_end, _live.wall_clock())
        return value

    # -- collected worker traces --------------------------------------------

    def merged_spans(self) -> tuple[_live.WorkerSpan, ...]:
        """Collected worker spans rebased onto the coordinator clock.

        Keyed by stable worker index — the same convention as
        :attr:`per_worker` — with each worker's clock offset taken from
        its round-trip estimator (0 when the clock domains agree, the
        common Linux case).
        """
        spans_by_worker: dict[int, tuple[_live.SpanRec, ...]] = {}
        offsets: dict[int, float] = {}
        for pid, spans in self._trace_spans.items():
            index = self._pid_index.setdefault(pid, len(self._pid_index))
            spans_by_worker[index] = tuple(spans)
            estimator = self._trace_offsets.get(pid)
            offsets[index] = estimator.offset if estimator is not None else 0.0
        return _live.merge_spans(spans_by_worker, offsets)

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
        return {index: pid for pid, index in self._pid_index.items()}

    def trace_dropped(self) -> int:
        """Worker spans lost to ring overwrites (cumulative, all workers)."""
        return sum(self._trace_dropped.values())

    def probe_exact(self, game: Game, position: Position, depth: int) -> Optional[float]:
        """Answer a full-window subtree from the warm table, if it can.

        Full-window searches only ever substitute EXACT entries (a
        bound cannot answer an open window), proven at least ``depth``
        deep — the same gate :func:`~repro.core.serial_er.er_search`
        applies at the subtree's root, so a short-circuit here returns
        exactly what the worker would have.
        """
        table = self.shared_tt
        if table is None:
            return None
        entry = table.probe(hash_key(game, position))
        if entry is None or entry.depth < depth or entry.bound is not Bound.EXACT:
            return None
        self.counters["tt_short_circuits"] += 1
        return entry.value

    def clear_caches(self) -> None:
        """Zero the shared segments — the benchmark's "cold" mode.

        Emptying the warm tables between requests isolates what cache
        warmth contributes versus pool persistence, without paying (or
        measuring) worker start-up.
        """
        tt = self.shared_tt
        if tt is not None:
            tt.clear()
        cache = self.shared_eval
        if cache is not None:
            cache.clear()

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
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        # Every worker has exited, so the segments can go: the pool both
        # closes its mappings and destroys them.
        final = dict(self.counters)
        if self._shared_tt is not None:
            final.update(self._shared_tt.counter_snapshot())
            self._shared_tt.close()
            self._shared_tt.unlink()
            self._shared_tt = None
        if self._shared_eval is not None:
            final.update(self._shared_eval.counter_snapshot())
            self._shared_eval.close()
            self._shared_eval.unlink()
            self._shared_eval = None
        self._final_counters = final
        return dict(final)

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Coordinator side.
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    """Bookkeeping for one in-flight subtree task."""

    node: PNode
    kind: str
    submitted_at: float


class _IdleMeter:
    """Integrates worker idleness from the coordinator's event log.

    Between consecutive submit/receive events, ``max(0, workers -
    in_flight)`` workers had nothing to do; the accumulated integral is
    the run's starvation processor-seconds.
    """

    def __init__(self, n_workers: int, start: float) -> None:
        self.n_workers = n_workers
        self._last = start
        self._in_flight = 0
        self.starved_seconds = 0.0

    def record(self, now: float, delta: int) -> None:
        gap = max(0.0, now - self._last)
        self.starved_seconds += max(0, self.n_workers - self._in_flight) * gap
        self._last = now
        self._in_flight += delta


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
        busy_wasted_seconds: worker seconds on tasks moot on arrival
            (the run's speculative loss).
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
    def speculative_fraction(self) -> float:
        return self._fraction(self.busy_wasted_seconds)

    @property
    def starvation_fraction(self) -> float:
        return self._fraction(self.starvation_seconds)

    @property
    def interference_fraction(self) -> float:
        return self._fraction(self.interference_seconds)


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
            before submitting an eval task, skipping the task on a
            usable hit).
        tt_capacity: slot/entry budget for the table(s).
        eval_cache_mode: ``off``, ``private`` (one single-stripe cache
            per worker process), or ``shared`` (one
            :class:`~repro.eval.SharedMemoryEvalCache` segment every
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
    _check_cache_modes(tt_mode, eval_cache_mode)
    if trace not in _live.TRACE_MODES:
        raise SearchError(
            f"unknown trace mode {trace!r}; expected one of {_live.TRACE_MODES}"
        )
    traced = trace != _live.TRACE_OFF
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

    ctx = _Context(
        problem, cost_model, config, trace=False, n_processors=n_workers,
        batch_eval=batch_eval,
    )
    coord_stats = SearchStats()
    merged_workers = SearchStats()

    tail_counters: dict[str, int] = {}
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
    executor_pool = pool.executor
    shared_tt = pool.shared_tt
    shared_eval = pool.shared_eval

    pending: dict[Future[TaskOutcome], _Pending] = {}
    counters = {
        "tasks_submitted": 0,
        "tasks_applied": 0,
        "tasks_discarded": 0,
        "tasks_orphaned": 0,
        "tt_coord_hits": 0,
    }
    busy_applied = 0.0
    busy_wasted = 0.0
    per_worker: dict[int, dict[str, float]] = {}
    #: OS pid -> stable worker index, assigned in first-result order.
    pid_index: dict[int, int] = {}
    #: Per-worker-index trace state (all empty when untraced).
    worker_spans: dict[int, list[_live.SpanRec]] = {}
    worker_dropped: dict[int, int] = {}
    worker_self_cost: dict[int, float] = {}
    estimators: dict[int, _live.OffsetEstimator] = {}
    # The coordinator's own ring captures its shared-table probes and
    # heap waits; installed for the run, restored in the finally.
    prev_ring = _live.RING
    coord_ring = _live.ring_for_mode(trace)
    _live.RING = coord_ring
    start = time.perf_counter()
    idle = _IdleMeter(n_workers, start)

    def worker_index(pid: int) -> int:
        return pid_index.setdefault(pid, len(pid_index))

    def merge_blob(index: int, blob: Optional[_TraceBlob]) -> None:
        if blob is None:
            return
        spans, dropped, self_cost = blob
        worker_spans.setdefault(index, []).extend(spans)
        # Counters are cumulative per worker; shipments can arrive out of
        # order across workers, so keep the largest seen.
        worker_dropped[index] = max(worker_dropped.get(index, 0), dropped)
        worker_self_cost[index] = max(worker_self_cost.get(index, 0.0), self_cost)

    def node_path(node: PNode) -> str:
        return "/".join(map(str, node.path)) or "root"

    def publish(pushes: list[tuple[str, PNode]]) -> None:
        for queue_name, pushed in pushes:
            if queue_name == "primary":
                ctx.primary.push(pushed)
            else:
                ctx.speculative.push(pushed)

    def finish(node: PNode) -> None:
        node.done = True
        pushes: list[tuple[str, PNode]] = []
        ctx.combine(node, pushes)
        publish(pushes)

    def coord_probe(node: PNode, alpha: float, beta: float) -> Optional[float]:
        """Answer a subtree from the shared table without spending a task.

        Same gate as the simulator's parallel-level probe: enough proven
        depth, and a bound that answers the dispatch window.
        """
        if shared_tt is None:
            return None
        coord_stats.on_tt_probe(cost_model)
        entry = shared_tt.probe(hash_key(problem.game, node.position))
        if entry is None or entry.depth < problem.depth - node.ply:
            return None
        usable = (
            entry.bound is Bound.EXACT
            or (entry.bound is Bound.LOWER and entry.value >= beta)
            or (entry.bound is Bound.UPPER and entry.value <= alpha)
        )
        return entry.value if usable else None

    def submit(node: PNode, alpha: float, beta: float) -> None:
        ctx._bump("serial_searches")
        payload: tuple[Any, ...]
        if node.next_child > 0:
            # Remaining-children refutation, as _serial_refute_remaining.
            value = max(node.value, alpha)
            if value >= beta:
                if value > node.value:
                    node.value = value
                finish(node)
                return
            assert node.child_positions is not None
            positions = list(node.child_positions[node.next_child :])
            if not positions:
                if value > node.value:
                    node.value = value
                finish(node)
                return
            payload = (
                "refute",
                problem.game,
                positions,
                problem.depth - node.ply - 1,
                max(0, problem.sort_below_root - node.ply - 1),
                value,
                beta,
            )
        else:
            hit = coord_probe(node, alpha, beta)
            if hit is not None:
                counters["tt_coord_hits"] += 1
                if hit > node.value:
                    node.value = hit
                finish(node)
                return
            payload = ("eval", subproblem(problem, node.position, node.ply), alpha, beta)
        future = executor_pool.submit(_run_task, payload)
        counters["tasks_submitted"] += 1
        pending[future] = _Pending(node, payload[0], time.perf_counter())
        idle.record(time.perf_counter(), +1)
        if _obs.CURRENT is not None:
            _obs.CURRENT.emit(
                _obs.EV_TASK_SUBMIT, task=-1, path=node_path(node), kind=str(payload[0])
            )

    def process_primary(node: PNode) -> None:
        """Table 1 node generation, mirroring the simulator's worker."""
        if node.done or ctx.has_finished_ancestor(node):
            ctx._bump("stale_discards")
            return
        if ctx.is_cut_off(node):
            _, beta = ctx.window(node)
            if beta > node.value:
                node.value = beta
            ctx._bump("cutoff_discards")
            finish(node)
            return
        alpha, beta = ctx.window(node)
        ctx.expand_positions(node, coord_stats)
        if node.is_leaf:
            cached: Optional[float] = None
            if shared_eval is not None:
                cached = shared_eval.probe(hash_key(problem.game, node.position))
                coord_stats.on_eval_probe(cost_model, hit=cached is not None)
            if cached is not None:
                coord_stats.note_leaf(node.path)
                node.value = cached
            else:
                coord_stats.on_leaf(node.path, cost_model)
                node.value = problem.game.evaluate(node.position)
                if shared_eval is not None:
                    coord_stats.on_eval_store(cost_model)
                    shared_eval.store(hash_key(problem.game, node.position), node.value)
            if shared_tt is not None:
                coord_stats.on_tt_store(cost_model)
                shared_tt.store(
                    hash_key(problem.game, node.position),
                    TTEntry(node.value, problem.depth - node.ply, Bound.EXACT, None),
                )
            finish(node)
            return
        if node.ntype in (E_NODE, R_NODE) and node.ply >= config.serial_depth:
            submit(node, alpha, beta)
            return
        pushes: list[tuple[str, PNode]] = []
        if node.ntype == E_NODE:
            assert node.children is not None
            for index in range(node.n_children):
                if node.children[index] is None:
                    pushes.append(("primary", ctx.make_child(node, index, UNDECIDED)))
            node.next_child = node.n_children
        elif node.ntype == UNDECIDED:
            if node.next_child == 0:
                pushes.append(("primary", ctx.make_child(node, 0, E_NODE)))
                node.next_child = 1
        else:  # R_NODE above serial depth
            if node.next_child < node.n_children:
                ntype = E_NODE if node.next_child == 0 else R_NODE
                pushes.append(("primary", ctx.make_child(node, node.next_child, ntype)))
                node.next_child += 1
        publish(pushes)

    def process_speculative(node: PNode) -> None:
        pushes: list[tuple[str, PNode]] = []
        node.on_spec = False
        if (
            not node.done
            and not ctx.has_finished_ancestor(node)
            and not ctx.is_cut_off(node)
            and ctx._active_e_children(node) < config.max_e_children
        ):
            if ctx.select_e_child(node, pushes, mandatory=False):
                ctx.maybe_push_spec(node, pushes)
        else:
            ctx._bump("stale_discards")
        publish(pushes)

    def apply_result(record: _Pending, outcome: TaskOutcome) -> None:
        nonlocal busy_applied, busy_wasted
        _, value, packed, t_start, t_end, worker_pid, children_done, blob = outcome
        received_at = time.perf_counter()
        idle.record(received_at, -1)
        duration = max(0.0, t_end - t_start)
        merged_workers.merge(_unpack_stats(packed))
        node = record.node
        index = worker_index(worker_pid)
        if traced:
            merge_blob(index, blob)
            estimators.setdefault(index, _live.OffsetEstimator()).observe(
                record.submitted_at, t_start, t_end, received_at
            )
        split = per_worker.setdefault(
            index, {"pid": float(worker_pid), "applied": 0.0, "wasted": 0.0}
        )
        moot = node.done or ctx.has_finished_ancestor(node)
        if _obs.CURRENT is not None:
            _obs.CURRENT.emit(
                _obs.EV_TASK_RESULT,
                task=-1,
                path=node_path(node),
                applied=not moot,
                duration=duration,
                worker=index,
            )
        if moot:
            busy_wasted += duration
            split["wasted"] += duration
            counters["tasks_discarded"] += 1
            ctx._bump("stale_discards")
            return
        busy_applied += duration
        split["applied"] += duration
        counters["tasks_applied"] += 1
        if record.kind == "refute":
            node.next_child += children_done
        if value > node.value:
            node.value = value
        finish(node)

    def drain(block: bool) -> None:
        if not pending:
            return
        if block:
            # The coordinator is starved of heap work here — record the
            # wait as a span so the merged timeline shows *why* workers
            # were the bottleneck at that instant.
            token = coord_ring.begin() if coord_ring is not None else -1.0
            done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            if coord_ring is not None:
                coord_ring.end("heap", "wait", token)
            if not done:
                raise SimulationError(
                    f"multiproc ER wedged: no task completed in {timeout:.0f}s"
                )
        else:
            done = {future for future in pending if future.done()}
        for future in done:
            record = pending.pop(future)
            error = future.exception()
            if error is not None:
                raise SimulationError(f"worker process failed: {error!r}") from error
            apply_result(record, future.result())

    max_in_flight = IN_FLIGHT_PER_WORKER * n_workers
    try:
        while not ctx.done:
            drain(block=False)
            if ctx.done:
                break
            if len(pending) >= max_in_flight:
                drain(block=True)
                continue
            node, from_spec = ctx.pop_work()
            if node is None:
                if not pending:
                    raise SimulationError(
                        "multiproc ER deadlocked: empty heap with no tasks in flight"
                    )
                drain(block=True)
                continue
            if from_spec:
                process_speculative(node)
            else:
                process_primary(node)
        wall = time.perf_counter() - start
        idle.record(time.perf_counter(), 0)
        counters["tasks_orphaned"] = len(pending)
        for future in pending:
            future.cancel()
        if traced and own_pool:
            # Drain-on-exit flush: spans recorded after each worker's
            # last shipped result (orphaned tasks, trailing cache
            # probes) would otherwise be lost.  Over-submit so every
            # pool process likely runs at least one; duplicates drain
            # empty.  Best effort — a dead worker just keeps its tail.
            flushes = [executor_pool.submit(_flush_trace) for _ in range(2 * n_workers)]
            for flush_future in flushes:
                try:
                    flush_pid, flush_blob = flush_future.result(timeout=timeout)
                except Exception:  # noqa: BLE001 - flush is best-effort
                    continue
                merge_blob(worker_index(flush_pid), flush_blob)
    finally:
        _live.RING = prev_ring
        if own_pool:
            # Keep only the segments' cumulative counters: the pool's own
            # task counters never saw this search, whose coordinator
            # submits straight to the executor.
            tail_counters = {
                key: value for key, value in pool.close().items()
                if key not in pool.counters
            }

    if not ctx.done:
        raise SimulationError("multiproc ER finished without combining the root")

    merged = SearchStats()
    merged.merge(coord_stats)
    merged.merge(merged_workers)
    extras: dict[str, Any] = dict(ctx.counters)
    extras.update(counters)
    # Coordinator-side table/cache counters only; worker probe/store
    # totals are process-local and arrive through the merged stats
    # instead.  (Empty for persistent pools, whose cumulative segment
    # counters belong to the pool, not to any one search.)
    extras.update(tail_counters)
    live_trace: Optional[_live.LiveTrace] = None
    if traced and coord_ring is not None:
        spans_by_worker: dict[int, list[_live.SpanRec]] = dict(worker_spans)
        spans_by_worker[_live.COORDINATOR] = coord_ring.drain()
        coord_dropped, coord_cost = coord_ring.snapshot_counters()
        offsets = {index: est.offset for index, est in estimators.items()}
        pids = {index: pid for pid, index in pid_index.items()}
        pids[_live.COORDINATOR] = os.getpid()
        live_trace = _live.LiveTrace(
            mode=trace,
            spans=_live.merge_spans(spans_by_worker, offsets),
            pids=pids,
            dropped={**worker_dropped, _live.COORDINATOR: coord_dropped},
            offsets=offsets,
            self_cost_seconds=sum(worker_self_cost.values()) + coord_cost,
        )
    busy = busy_applied + busy_wasted
    starvation = min(idle.starved_seconds, max(0.0, n_workers * wall - busy))
    interference = max(0.0, n_workers * wall - busy - starvation)
    return MultiprocResult(
        value=ctx.root.value,
        n_workers=n_workers,
        wall_time=wall,
        stats=merged,
        extras=extras,
        busy_applied_seconds=busy_applied,
        busy_wasted_seconds=busy_wasted,
        starvation_seconds=starvation,
        interference_seconds=interference,
        per_worker=per_worker,
        trace=live_trace,
    )


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
        f"speculative={p.result.speculative_fraction:.3f}"
        for p in points
    )
    return "\n".join((header, row, summary, losses))
