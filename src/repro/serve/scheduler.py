"""The request scheduler: admission, priorities, deadlines, drain.

The scheduler multiplexes concurrent :class:`~repro.serve.api.SearchRequest`s
onto a bounded number of engine slots.  Its contract — pinned by the
Hypothesis battery in ``tests/test_serve_scheduler.py`` — is:

* **exactly-once resolution** — every submitted request's future is
  resolved with exactly one reply: ``ok``/``error`` after running, or
  ``shed`` with an explicit reason; nothing is silently dropped;
* **admission control** — at most ``queue_limit`` requests wait; an
  arrival beyond that either evicts the *newest* request of the lowest
  waiting priority class (when the arrival outranks it) or is itself
  rejected, so overload sheds the least valuable work first while FIFO
  order within every class is preserved;
* **deadline semantics** — deadlines gate *deepening*, not execution:
  after every completed iteration the clock is checked, and an expired
  request stops with the best move so far (``anytime``).  A request
  the engine answers from its table at ``max_depth`` runs no iteration
  and is never ``anytime``; otherwise the first iteration always runs,
  so an admitted request is never answered without a move, and a
  deadline is honored within one deepening iteration's latency;
* **graceful drain** — :meth:`RequestScheduler.drain` stops admission
  (new arrivals shed with reason ``shutdown``) and completes every
  already-admitted request.

The scheduler never looks inside a request's position.  Its owner
resolves each request once, before admission, and passes the result as
``resolved``; the request's ticket carries it, and every deepening
iteration hands it to the engine unchanged.

The scheduler itself is single-threaded asyncio; the one genuinely
cross-thread surface is :class:`ServeMetrics`, which the Prometheus
scrape thread reads while the event loop writes.  Its critical sections
are reported to the race trace through the instrumentation probe, so the
service test batteries run under the same race detector that checks the
simulator's queues.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Awaitable, Callable, Optional, Protocol

from ..errors import ServeError
from ..obs import registry as _registry
from ..obs import reqtrace as _reqtrace
from ..obs import probe as _probe
from ..verify.trace import READ, WRITE
from .api import (
    PRIORITIES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    SearchReply,
    SearchRequest,
    encode_line,
)

__all__ = [
    "DeepeningEngine",
    "IterationResult",
    "RequestScheduler",
    "SLO_LATENCY_BOUNDS",
    "ServeMetrics",
]

#: Upper bucket bounds (seconds) of the per-priority SLO latency
#: histograms; with bounds set, :mod:`repro.obs.promtext` renders these
#: as real Prometheus ``histogram`` families instead of summaries.
SLO_LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Scheduler counter names, in conservation order.  ``submitted ==
#: completed + shed`` once every future has resolved; ``admitted ==
#: completed + evicted`` and ``shed == rejected + evicted``.
COUNTER_NAMES = (
    "submitted",
    "admitted",
    "rejected",
    "evicted",
    "completed",
    "failed",
    "shed",
    "deadline_hits",
)


@dataclass(frozen=True)
class IterationResult:
    """One completed deepening iteration's root decision."""

    move_index: int
    value: float
    per_move_values: tuple[float, ...]


class DeepeningEngine(Protocol):
    """What the scheduler runs: one deepening iteration at a time.

    ``run_iteration(request, depth, resolved)`` evaluates every root
    move of the request's position to ``depth - 1`` and returns the
    argmax decision — the same per-iteration contract as
    :meth:`repro.engine.GameEngine.choose`.  ``resolved`` is what the
    scheduler's owner passed to :meth:`RequestScheduler.submit` for the
    request (the service's :class:`~repro.serve.pool.ResolvedPosition`),
    the same object in every iteration.  Splitting the search at
    iteration granularity is what gives the scheduler its anytime
    deadline point without reaching inside a search.

    ``answer_from_table(request, depth, resolved)`` is asked once,
    before the first iteration, with ``depth = request.max_depth``.  It
    submits nothing and returns what ``run_iteration`` at that depth
    would, when the engine's table alone already holds it, else
    ``None``; the scheduler then runs iterations 1…``max_depth`` as
    usual.
    """

    def answer_from_table(
        self, request: SearchRequest, depth: int, resolved: Any
    ) -> Optional[IterationResult]: ...

    def run_iteration(
        self, request: SearchRequest, depth: int, resolved: Any
    ) -> Awaitable[IterationResult]: ...


class ServeMetrics:
    """Thread-safe service metrics: loop-thread writers, scrape-thread readers.

    A thin lock around a :class:`~repro.obs.registry.MetricsRegistry`,
    with every critical section reported to the race trace through the
    instrumentation probe under stable names (``serve-metrics`` lock,
    ``serve.<metric>`` locations) so the race detector can verify the
    locking discipline end to end.
    """

    def __init__(
        self,
        registry: Optional[_registry.MetricsRegistry] = None,
        *,
        slo: Optional[_reqtrace.SLOPolicy] = None,
    ) -> None:
        self.registry = registry if registry is not None else _registry.MetricsRegistry()
        self._lock = threading.Lock()
        self.slo = slo
        self._slo_good: dict[int, int] = {}
        self._slo_bad: dict[int, int] = {}

    @staticmethod
    def _section(location: str, kind: str = WRITE) -> None:
        """Report one critical section (call it with the lock held)."""
        p = _probe.CURRENT
        if p is not None:
            p.locked_access("serve-metrics", location, kind)

    def bump(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._section(f"serve.{name}")
            self.registry.counter(f"serve.{name}").inc(amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._section(f"serve.{name}")
            self.registry.histogram(f"serve.{name}").observe(value)

    def observe_latency(self, priority: int, latency_s: float) -> None:
        """Fold one request's latency into the per-priority SLO machinery.

        Always feeds the bucketed per-class histogram
        (``serve.latency_seconds.p<priority>``); when an
        :class:`~repro.obs.reqtrace.SLOPolicy` names a target for the
        class it also updates the good/bad counters and the
        error-budget burn-rate gauge (1.0 = spending the budget exactly
        as fast as the objective allows).
        """
        with self._lock:
            name = f"latency_seconds.p{priority}"
            self._section(f"serve.{name}")
            self.registry.histogram(
                f"serve.{name}", bounds=SLO_LATENCY_BOUNDS
            ).observe(latency_s)
            target = self.slo.target_for(priority) if self.slo is not None else None
            if self.slo is not None and target is not None:
                if latency_s <= target:
                    self._slo_good[priority] = self._slo_good.get(priority, 0) + 1
                    self.registry.counter(f"serve.slo.p{priority}.good").inc()
                else:
                    self._slo_bad[priority] = self._slo_bad.get(priority, 0) + 1
                    self.registry.counter(f"serve.slo.p{priority}.bad").inc()
                good = self._slo_good.get(priority, 0)
                bad = self._slo_bad.get(priority, 0)
                self.registry.gauge(f"serve.slo.p{priority}.target_seconds").set(target)
                self.registry.gauge(f"serve.slo.p{priority}.objective").set(
                    self.slo.objective
                )
                self.registry.gauge(f"serve.slo.p{priority}.burn_rate").set(
                    self.slo.burn_rate(good, bad)
                )

    def sample(self, name: str, ts: float, value: float) -> None:
        """Record an instantaneous quantity as gauge + time series."""
        with self._lock:
            self._section(f"serve.{name}")
            self.registry.gauge(f"serve.{name}.current").set(value)
            self.registry.timeseries(f"serve.{name}").sample(ts, value)

    def collect(self) -> dict[str, _registry.MetricValue]:
        """Consistent snapshot for the Prometheus endpoint."""
        with self._lock:
            self._section("serve.registry", READ)
            return self.registry.collect()


@dataclass
class _Ticket:
    """One admitted request waiting for (or holding) an engine slot.

    ``arrived_at`` is the caller-observed arrival stamp (the server
    stamps it before pre-admission work); ``admitted_at`` is when the
    admission decision landed.  Their gap is the ``admission`` stage of
    the latency decomposition; direct scheduler users that pass no
    arrival stamp get a zero-width admission stage.
    """

    request: SearchRequest
    future: "asyncio.Future[SearchReply]"
    admitted_at: float
    arrived_at: float
    resolved: Any


class RequestScheduler:
    """Admission control and deadline-aware execution over an engine.

    Args:
        engine: the per-iteration search backend.
        max_concurrency: engine slots — requests deepening at once.
            Iterations of concurrent requests interleave on the shared
            pool, so this is the service's multiprogramming level, not
            a core count.
        queue_limit: waiting requests beyond the running ones before
            load shedding begins.
        clock: injectable monotonic clock (tests drive a fake one).
            The server passes :func:`repro.obs.live.wall_clock` so the
            scheduler's stamps and its own share one clock domain —
            the precondition of the conserved latency decomposition.
        metrics: shared :class:`ServeMetrics`; one is created if absent.
        trace_sink: receives one :class:`~repro.obs.reqtrace.RequestTrace`
            per *executed* request (shed requests never ran, so they
            have no decomposition).
        stall_overrun_factor: with ``stall_sink`` set, fire the sink
            once per request when its elapsed time exceeds
            ``deadline_s * factor`` (checked between deepening
            iterations, like the deadline itself).  0 disables.
        stall_sink: the watchdog callback ``(request, elapsed_s)`` —
            the server wires the flight recorder here.
    """

    def __init__(
        self,
        engine: DeepeningEngine,
        *,
        max_concurrency: int = 2,
        queue_limit: int = 32,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[ServeMetrics] = None,
        trace_sink: Optional[Callable[[_reqtrace.RequestTrace], None]] = None,
        stall_overrun_factor: float = 0.0,
        stall_sink: Optional[Callable[[SearchRequest, float], None]] = None,
    ) -> None:
        if stall_overrun_factor < 0.0:
            raise ServeError("stall_overrun_factor must be non-negative")
        if max_concurrency < 1:
            raise ServeError("max_concurrency must be at least 1")
        if queue_limit < 0:
            raise ServeError("queue_limit must be non-negative")
        self._engine: Optional[DeepeningEngine] = engine
        self._max_concurrency = max_concurrency
        self._queue_limit = queue_limit
        self._clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._trace_sink = trace_sink
        self._stall_overrun_factor = stall_overrun_factor
        self._stall_sink = stall_sink
        #: One FIFO per priority class; dispatch serves the highest
        #: non-empty class, shedding evicts from the lowest.
        self._queues: dict[int, deque[_Ticket]] = {p: deque() for p in PRIORITIES}
        self._running = 0
        self._tasks: set["asyncio.Task[None]"] = set()
        self._draining = False
        self._idle_event: Optional[asyncio.Event] = None
        self.counters: dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    # -- bookkeeping --------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        self.metrics.bump(f"requests.{name}", float(amount))

    def _queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet resolved."""
        return self._queued() + self._running

    def _note_depth(self) -> None:
        self.metrics.sample("queue.depth", self._clock(), float(self._queued()))

    def _shed(self, ticket_or_request: object, reason: str) -> SearchReply:
        if isinstance(ticket_or_request, _Ticket):
            request = ticket_or_request.request
        else:
            assert isinstance(ticket_or_request, SearchRequest)
            request = ticket_or_request
        return SearchReply(
            request_id=request.request_id, status=STATUS_SHED, detail=reason
        )

    # -- submission ---------------------------------------------------------

    async def submit(
        self,
        request: SearchRequest,
        *,
        arrived_at: Optional[float] = None,
        resolved: Any = None,
    ) -> SearchReply:
        """Admit (or shed) ``request`` and await its one reply."""
        return await self.submit_nowait(request, arrived_at=arrived_at, resolved=resolved)

    def submit_nowait(
        self,
        request: SearchRequest,
        *,
        arrived_at: Optional[float] = None,
        resolved: Any = None,
    ) -> "asyncio.Future[SearchReply]":
        """Admission decision now; the returned future resolves exactly once.

        ``arrived_at`` is the caller's arrival stamp on *this
        scheduler's clock*; it anchors the ``admission`` stage of the
        reply's latency decomposition (absent = the admission stamp,
        i.e. a zero-width stage).  ``resolved`` is handed, unchanged,
        to every deepening iteration of the request.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SearchReply]" = loop.create_future()
        self._count("submitted")
        if self._draining:
            self._count("rejected")
            self._count("shed")
            future.set_result(self._shed(request, "shutdown"))
            return future
        if self._running >= self._max_concurrency and self._queued() >= self._queue_limit:
            victim = self._eviction_victim(request.priority)
            if victim is None:
                # The arrival itself is the least valuable waiter.
                self._count("rejected")
                self._count("shed")
                future.set_result(self._shed(request, "rejected"))
                return future
            self._count("evicted")
            self._count("shed")
            victim.future.set_result(self._shed(victim, "evicted"))
            self._note_depth()
        self._count("admitted")
        admitted_at = self._clock()
        ticket = _Ticket(
            request=request,
            future=future,
            admitted_at=admitted_at,
            arrived_at=admitted_at if arrived_at is None else arrived_at,
            resolved=resolved,
        )
        self._queues[request.priority].append(ticket)
        self._note_depth()
        self._pump(loop)
        return future

    def _eviction_victim(self, arriving_priority: int) -> Optional[_Ticket]:
        """Newest waiter of the lowest class the arrival outranks, if any.

        Evicting the *newest* of a class keeps the survivors' FIFO
        order intact — fairness within a class is never reordered by
        shedding.
        """
        for priority in PRIORITIES:
            if priority >= arriving_priority:
                return None
            queue = self._queues[priority]
            if queue:
                return queue.pop()
        return None

    # -- dispatch -----------------------------------------------------------

    def _pump(self, loop: asyncio.AbstractEventLoop) -> None:
        while self._running < self._max_concurrency:
            ticket = self._next_ticket()
            if ticket is None:
                break
            self._running += 1
            task = loop.create_task(self._run(ticket))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _next_ticket(self) -> Optional[_Ticket]:
        for priority in reversed(PRIORITIES):
            queue = self._queues[priority]
            if queue:
                ticket = queue.popleft()
                self._note_depth()
                return ticket
        return None

    async def _run(self, ticket: _Ticket) -> None:
        request = ticket.request
        started_at = self._clock()
        queue_wait = max(0.0, started_at - ticket.admitted_at)
        best: Optional[IterationResult] = None
        depth_reached = 0
        anytime = False
        failure = ""
        stalled = False
        iteration_bounds: list[tuple[float, float]] = []
        engine = self._engine
        assert engine is not None, "a detached scheduler runs nothing"
        try:
            # A table answer is what the last iteration would reply: an
            # entry deep enough for it answers every shallower
            # iteration's probe too, and the last iteration overwrites them.
            iter_start = self._clock()
            best = engine.answer_from_table(request, request.max_depth, ticket.resolved)
            if best is not None:
                iteration_bounds.append((iter_start, self._clock()))
                depth_reached = request.max_depth
            for depth in range(depth_reached + 1, request.max_depth + 1):
                iter_start = self._clock()
                best = await engine.run_iteration(request, depth, ticket.resolved)
                iter_end = self._clock()
                iteration_bounds.append((iter_start, iter_end))
                depth_reached = depth
                elapsed = iter_end - ticket.admitted_at
                stalled = self._check_stall(request, elapsed, stalled)
                if (
                    request.deadline_s is not None
                    and depth < request.max_depth
                    and elapsed >= request.deadline_s
                ):
                    anytime = True
                    self._count("deadline_hits")
                    break
        except asyncio.CancelledError:
            # Scheduler teardown mustn't leave an unresolved future.
            # Counted as an eviction so the shed = rejected + evicted
            # conservation law covers hard aborts too.
            if not ticket.future.done():
                self._count("evicted")
                self._count("shed")
                ticket.future.set_result(self._shed(ticket, "cancelled"))
            raise
        except Exception as error:  # noqa: BLE001 - converted to an error reply
            failure = repr(error)
        finally:
            self._running -= 1
        latency = max(0.0, self._clock() - ticket.admitted_at)
        self.metrics.observe("latency_seconds", latency)
        self.metrics.observe("queue_wait_seconds", queue_wait)
        self.metrics.observe_latency(request.priority, latency)
        if failure or best is None:
            self._count("completed")
            self._count("failed")
            reply = SearchReply(
                request_id=request.request_id,
                status=STATUS_ERROR,
                latency_s=latency,
                queue_wait_s=queue_wait,
                detail=failure or "engine produced no iteration",
            )
        else:
            self._count("completed")
            reply = SearchReply(
                request_id=request.request_id,
                status=STATUS_OK,
                move_index=best.move_index,
                value=best.value,
                depth_reached=depth_reached,
                per_move_values=best.per_move_values,
                latency_s=latency,
                queue_wait_s=queue_wait,
                anytime=anytime,
            )
        # Serialize probe: encode the reply once to price the
        # ``reply_serialize`` stage (the timing block itself adds a few
        # short fields, so the probe is representative of the line the
        # server actually writes).
        serialize_start = self._clock()
        encode_line(reply.to_wire())
        reply_serialize = max(0.0, self._clock() - serialize_start)
        timing = _reqtrace.attribute(
            arrived_at=ticket.arrived_at,
            admitted_at=ticket.admitted_at,
            started_at=started_at,
            finished_at=self._clock(),
            iterations_s=[end - start for start, end in iteration_bounds],
            reply_serialize_s=reply_serialize,
        )
        reply = replace(reply, timing=timing)
        if self._trace_sink is not None:
            self._trace_sink(
                _reqtrace.RequestTrace(
                    request_id=request.request_id,
                    span_id=request.span_id or "root",
                    priority=request.priority,
                    status=reply.status,
                    arrived_at=ticket.arrived_at,
                    timing=timing,
                    iteration_bounds=tuple(iteration_bounds),
                )
            )
        if not ticket.future.done():
            ticket.future.set_result(reply)
        # Completion-side depth sample: the queue did not change here,
        # but time passed — without it the depth series ends on an
        # admission-side peak instead of decaying to its true level.
        self._note_depth()
        loop = asyncio.get_running_loop()
        self._pump(loop)
        if self.in_flight == 0 and self._idle_event is not None:
            self._idle_event.set()

    def _check_stall(
        self, request: SearchRequest, elapsed: float, already_stalled: bool
    ) -> bool:
        """Fire the stall watchdog at most once per overrunning request."""
        if (
            already_stalled
            or self._stall_sink is None
            or self._stall_overrun_factor <= 0.0
            or request.deadline_s is None
            or request.deadline_s <= 0.0
            or elapsed < request.deadline_s * self._stall_overrun_factor
        ):
            return already_stalled
        try:
            self._stall_sink(request, elapsed)
        except Exception:  # noqa: BLE001 - flight recording must not fail the request
            self.metrics.bump("flight.errors")
        return True

    # -- shutdown -----------------------------------------------------------

    async def drain(self) -> None:
        """Stop admission and complete every admitted request.

        Idempotent; returns once no request is queued or running.  New
        submissions during (and after) the drain are shed with reason
        ``shutdown``.
        """
        self._draining = True
        if self.in_flight == 0:
            return
        if self._idle_event is None:
            self._idle_event = asyncio.Event()
        while self.in_flight > 0:
            self._idle_event.clear()
            await self._idle_event.wait()

    def detach(self) -> None:
        """Drop the engine and the sinks of a drained scheduler.

        An owner whose engine or sinks call back into it (the service's
        flight recorder) would otherwise stay in a reference cycle with
        this scheduler once stopped.  The counters stay readable; later
        submissions are shed as during a drain.
        """
        if self.in_flight:
            raise ServeError("detach() needs a drained scheduler")
        self._draining = True
        self._engine = None
        self._trace_sink = None
        self._stall_sink = None

    async def abort(self) -> None:
        """Hard stop: shed the queue, cancel running work, resolve everything."""
        self._draining = True
        for queue in self._queues.values():
            while queue:
                ticket = queue.pop()
                self._count("evicted")
                self._count("shed")
                ticket.future.set_result(self._shed(ticket, "shutdown"))
        self._note_depth()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass

    def conservation_problems(self) -> list[str]:
        """Counter-conservation violations; [] when the books balance.

        Meaningful once every submitted request has resolved (e.g.
        after :meth:`drain`).
        """
        c = self.counters
        problems: list[str] = []
        if c["submitted"] != c["completed"] + c["shed"]:
            problems.append(
                f"submitted {c['submitted']} != completed {c['completed']} "
                f"+ shed {c['shed']}"
            )
        if c["shed"] != c["rejected"] + c["evicted"]:
            problems.append(
                f"shed {c['shed']} != rejected {c['rejected']} "
                f"+ evicted {c['evicted']}"
            )
        if c["admitted"] < c["completed"]:
            problems.append(
                f"completed {c['completed']} exceeds admitted {c['admitted']}"
            )
        return problems
