"""The asyncio search service: one warm pool answering many users.

:class:`SearchService` ties the serve stack together: a TCP listener
speaking the :mod:`~repro.serve.api` NDJSON protocol, the
:class:`~repro.serve.scheduler.RequestScheduler` for admission /
priorities / deadlines, and one :class:`~repro.parallel.multiproc.EnginePool`
whose warm workers and shared caches span every request from every
connection.  The observability layer is mounted live: each request and
deepening iteration lands as a span in the service's
:class:`~repro.obs.live.SpanRing`, the scheduler's queue-depth and
latency metrics accumulate in a :class:`~repro.serve.scheduler.ServeMetrics`
registry, and an optional :class:`~repro.obs.promtext.MetricsServer`
scrapes that registry over HTTP while searches run.

Shutdown is graceful by default: stop accepting, shed new arrivals with
an explicit ``shutdown`` reply, finish every admitted request, then
tear the pool and its shared-memory segments down.  The soak battery
holds the service to that: after :meth:`SearchService.shutdown`, no
worker process, shm segment, or listening socket survives, and the
scheduler's conservation laws balance.
"""

from __future__ import annotations

import asyncio
import ipaddress
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..errors import ReproError, ServeError
from ..games.base import Game, follow_path, hash_key
from ..obs import live as _live
from ..obs import reqtrace as _reqtrace
from ..obs.promtext import MetricsServer
from ..workloads.suite import table3_suite
from .api import (
    MAX_LINE_BYTES,
    STATUS_ERROR,
    SearchReply,
    SearchRequest,
    decode_line,
    encode_line,
    read_line,
)
from .pool import EnginePool, PoolEngine, ResolvedPosition
from .scheduler import RequestScheduler, ServeMetrics

__all__ = [
    "SearchService",
    "ServeConfig",
    "ServeWorkload",
    "is_loopback_peer",
    "suite_catalog",
]


def is_loopback_peer(peername: object) -> bool:
    """Whether a socket's ``peername`` is a loopback address.

    Only loopback peers may stop the service with ``op: shutdown``: a
    remote client must not be able to end everyone's service.  IPv4
    addresses mapped into IPv6 count as their IPv4 form; anything that
    is not an IP address pair is refused.
    """
    if not isinstance(peername, tuple) or not peername:
        return False
    try:
        address = ipaddress.ip_address(peername[0])
    except (TypeError, ValueError):
        return False
    if isinstance(address, ipaddress.IPv6Address) and address.ipv4_mapped is not None:
        address = address.ipv4_mapped
    return address.is_loopback


@dataclass(frozen=True)
class ServeWorkload:
    """One named position source the service can search.

    ``make_game`` is called once per service lifetime; the instance is
    cached so repeated requests against the same workload share node
    caches and Zobrist state.  ``sort_below_root`` is handed to every
    subtree search, matching how
    :class:`~repro.engine.EngineConfig.sort_below_root` flows into
    :meth:`~repro.engine.GameEngine.choose`.
    """

    name: str
    make_game: Callable[[], Game]
    sort_below_root: int
    default_depth: int


def suite_catalog(scale: str = "reduced") -> dict[str, ServeWorkload]:
    """The Table 3 suite (``R1``..``O3``) as the service's default catalog."""
    catalog: dict[str, ServeWorkload] = {}
    for name, spec in table3_suite(scale).items():
        catalog[name] = ServeWorkload(
            name=name,
            make_game=spec.make_game,
            sort_below_root=spec.sort_below_root,
            default_depth=spec.search_depth,
        )
    return catalog


@dataclass(frozen=True)
class ServeConfig:
    """Service shape: listener, pool, scheduler, and observability knobs.

    Attributes:
        host / port: TCP bind address; port 0 picks a free one (read
            :attr:`SearchService.address` after :meth:`SearchService.start`).
        n_workers: persistent worker processes in the engine pool.
        max_concurrency: requests deepening at once (scheduler slots).
        queue_limit: waiting requests before load shedding begins.
        tt_mode / tt_capacity: the pool's shared transposition table.
        eval_cache_mode / eval_cache_capacity: the pool's shared static
            evaluation cache.
        batch_eval: batch frontier evaluations in worker searches.
        scale: suite scale for the default catalog.
        max_depth_limit: hard per-request ``max_depth`` ceiling; deeper
            asks are answered with an ``error`` reply before admission.
        trace_mode: worker span-ring mode
            (:data:`repro.obs.live.TRACE_MODES`).
        span_capacity: the service's own span ring size.
        metrics_port: mount the Prometheus text endpoint here (``None``
            disables; 0 picks a free port).
        trace_capacity: per-request :class:`~repro.obs.reqtrace.RequestTrace`
            records kept (oldest evicted first).
        slo_targets: per-priority-class latency targets in seconds, as
            ``(priority, seconds)`` pairs; ``None`` disables the SLO
            gauges (the per-class histograms stay on).
        slo_objective: fraction of requests expected under target —
            0.99 leaves a 1 % error budget.
        stall_overrun_factor: flight-record a request once its elapsed
            time exceeds ``deadline_s * factor`` (0 disables; requires
            ``flight_dir``).
        flight_dir: directory receiving stall flight records.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_workers: int = 2
    max_concurrency: int = 2
    queue_limit: int = 32
    tt_mode: str = "shared"
    tt_capacity: int = 1 << 14
    eval_cache_mode: str = "off"
    eval_cache_capacity: int = 1 << 14
    batch_eval: bool = False
    scale: str = "reduced"
    max_depth_limit: int = 16
    trace_mode: str = _live.TRACE_OFF
    span_capacity: int = _live.DEFAULT_RING_CAPACITY
    metrics_port: Optional[int] = None
    trace_capacity: int = 512
    slo_targets: Optional[tuple[tuple[int, float], ...]] = (
        (0, 5.0),
        (1, 1.0),
        (2, 0.5),
    )
    slo_objective: float = 0.99
    stall_overrun_factor: float = 0.0
    flight_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_depth_limit < 1:
            raise ServeError("max_depth_limit must be at least 1")
        if self.trace_capacity < 1:
            raise ServeError("trace_capacity must be at least 1")
        if self.stall_overrun_factor < 0.0:
            raise ServeError("stall_overrun_factor must be non-negative")
        if self.stall_overrun_factor > 0.0 and self.flight_dir is None:
            raise ServeError("stall_overrun_factor requires flight_dir")
        # Fail at construction, not at the first over-target request.
        self.slo_policy()

    def slo_policy(self) -> Optional[_reqtrace.SLOPolicy]:
        """The configured :class:`~repro.obs.reqtrace.SLOPolicy`, if any."""
        if self.slo_targets is None:
            return None
        return _reqtrace.SLOPolicy(
            targets=self.slo_targets, objective=self.slo_objective
        )


class SearchService:
    """The serving loop: accept, schedule, search, reply, drain.

    Args:
        config: service shape.
        catalog: named workloads to serve; defaults to the Table 3
            suite at ``config.scale``.  Tests inject custom catalogs to
            point the service at arbitrary games (the parity battery
            serves the backend-parity grid this way).

    Use as an async context manager, or call :meth:`start` /
    :meth:`shutdown` explicitly.  :meth:`handle` is the in-process
    entry (no socket) the traffic benchmark and batteries drive;
    network clients get byte-identical behavior through
    :meth:`repro.serve.client.ServiceClient`.
    """

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        *,
        catalog: Optional[Mapping[str, ServeWorkload]] = None,
    ) -> None:
        self.config = config
        self._catalog: dict[str, ServeWorkload] = dict(
            catalog if catalog is not None else suite_catalog(config.scale)
        )
        self._games: dict[str, Game] = {}
        self.metrics = ServeMetrics(slo=config.slo_policy())
        self.ring = _live.SpanRing(config.span_capacity)
        self.traces = _reqtrace.TraceStore(config.trace_capacity)
        self._flight: Optional[_reqtrace.FlightRecorder] = None
        if config.stall_overrun_factor > 0.0 and config.flight_dir is not None:
            self._flight = _reqtrace.FlightRecorder(
                config.flight_dir, overrun_factor=config.stall_overrun_factor
            )
        self.pool: Optional[EnginePool] = None
        self.scheduler: Optional[RequestScheduler] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[MetricsServer] = None
        self._done: Optional[asyncio.Event] = None
        self._conn_tasks: set["asyncio.Task[None]"] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._shutdown_task: Optional["asyncio.Task[None]"] = None
        self._started = False
        self._closed = False
        #: Pool/segment counters captured at teardown, for post-mortems.
        self.final_counters: dict[str, int] = {}

    @property
    def catalog(self) -> dict[str, ServeWorkload]:
        """The served workloads, by name (a copy; mutations don't apply)."""
        return dict(self._catalog)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "SearchService":
        """Build the pool, open the listener, mount the metrics endpoint."""
        if self._started:
            raise ServeError("service already started")
        self._started = True
        cfg = self.config
        self._done = asyncio.Event()
        self.pool = EnginePool(
            cfg.n_workers,
            tt_mode=cfg.tt_mode,
            tt_capacity=cfg.tt_capacity,
            eval_cache_mode=cfg.eval_cache_mode,
            eval_cache_capacity=cfg.eval_cache_capacity,
            batch_eval=cfg.batch_eval,
            trace_mode=cfg.trace_mode,
        )
        # Worker results are read on this loop as they arrive; no thread
        # in this process relays them.
        self.pool.executor.attach(asyncio.get_running_loop())
        engine = PoolEngine(self.pool, span_ring=self.ring)
        # One clock end to end: the scheduler stamps with the same
        # wall_clock as handle()'s arrival stamp, which is what makes
        # the per-request latency decomposition conserve exactly.
        self.scheduler = RequestScheduler(
            engine,
            max_concurrency=cfg.max_concurrency,
            queue_limit=cfg.queue_limit,
            clock=_live.wall_clock,
            metrics=self.metrics,
            trace_sink=self.traces.add,
            stall_overrun_factor=cfg.stall_overrun_factor,
            stall_sink=self._flight_record if self._flight is not None else None,
        )
        self._server = await asyncio.start_server(
            self._on_connection, host=cfg.host, port=cfg.port, limit=MAX_LINE_BYTES
        )
        if cfg.metrics_port is not None:
            self._metrics_server = MetricsServer(
                self.metrics.collect, port=cfg.metrics_port, host=cfg.host
            ).start()
        return self

    async def __aenter__(self) -> "SearchService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.shutdown()

    @property
    def address(self) -> tuple[str, int]:
        """The listener's bound (host, port)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("service is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    @property
    def metrics_url(self) -> Optional[str]:
        return None if self._metrics_server is None else self._metrics_server.url

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes (any trigger)."""
        if self._done is None:
            raise ServeError("service was never started")
        await self._done.wait()

    async def shutdown(self) -> None:
        """Graceful stop: close the door, drain admitted work, tear down.

        Idempotent.  Order matters: the listener closes first (no new
        connections), the scheduler drains (in-flight requests finish
        and get their replies; queued new arrivals shed explicitly),
        and only then do the pool's workers and shared segments go
        away.
        """
        if self._closed:
            if self._done is not None:
                await self._done.wait()
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.scheduler is not None:
            await self.scheduler.drain()
        # Replies for drained work are out; hang up on idle clients so
        # their handler tasks finish before the loop does (3.11's
        # Server.wait_closed does not reap active connection handlers).
        for writer in list(self._conn_writers):
            writer.close()
        for task in list(self._conn_tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self.pool is not None:
            # Closing the pool first takes its result pipe off this loop.
            self.final_counters = self.pool.close()
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        # Break the cycles back into this service (the stall sink, the
        # listener's connection callback) so that reference counting
        # alone frees it, its metrics and its pool.
        if self.scheduler is not None:
            self.scheduler.detach()
        self._server = None
        if self._done is not None:
            self._done.set()

    def request_shutdown(self) -> None:
        """Trigger :meth:`shutdown` from protocol handlers (non-blocking)."""
        if self._shutdown_task is None and not self._closed:
            loop = asyncio.get_running_loop()
            self._shutdown_task = loop.create_task(self.shutdown())

    # -- the search path ----------------------------------------------------

    def _game(self, workload: ServeWorkload) -> Game:
        game = self._games.get(workload.name)
        if game is None:
            game = workload.make_game()
            self._games[workload.name] = game
        return game

    def _resolve(self, request: SearchRequest) -> ResolvedPosition:
        """Map a wire request onto a concrete position; raises ServeError.

        Called once per request, before admission; every deepening
        iteration reuses the result.
        """
        workload = self._catalog.get(request.workload)
        if workload is None:
            raise ServeError(
                f"unknown workload {request.workload!r}; "
                f"serving {sorted(self._catalog)}"
            )
        if request.max_depth > self.config.max_depth_limit:
            raise ServeError(
                f"max_depth {request.max_depth} exceeds the service limit "
                f"{self.config.max_depth_limit}"
            )
        game = self._game(workload)
        position = follow_path(game, list(request.path))
        children = tuple(game.children(position))
        if not children:
            raise ServeError("no legal moves at the requested position")
        return ResolvedPosition(
            game=game,
            position=position,
            children=children,
            sort_below_root=workload.sort_below_root,
            keys=tuple(hash_key(game, child) for child in children),
        )

    async def handle(self, request: SearchRequest) -> SearchReply:
        """Run one request through the full admission/search path.

        Invalid requests (unknown workload, bad path, over-limit depth)
        are answered with an ``error`` reply *before* admission, so
        they never occupy a scheduler slot.
        """
        if self.scheduler is None:
            raise ServeError("service was never started")
        # Arrival stamp first: pre-admission resolution is part of the
        # decomposition's ``admission`` stage, on the scheduler's clock.
        arrived_at = _live.wall_clock()
        try:
            resolved = self._resolve(request)
        except ReproError as error:
            return SearchReply(
                request_id=request.request_id,
                status=STATUS_ERROR,
                detail=str(error),
            )
        reply = await self.scheduler.submit(
            request, arrived_at=arrived_at, resolved=resolved
        )
        name = _live.tag_span_name(
            "request", _reqtrace.span_tag(request.request_id, request.span_id or "root")
        )
        self.ring.record("serve", name, arrived_at, _live.wall_clock())
        return reply

    def _flight_record(self, request: SearchRequest, elapsed_s: float) -> None:
        """Stall-watchdog sink: snapshot the live rings for one request."""
        recorder = self._flight
        if recorder is None:
            return
        worker_spans: tuple[_live.WorkerSpan, ...] = ()
        pids: dict[int, int] = {}
        if self.pool is not None and not self.pool.closed:
            worker_spans = self.pool.merged_spans()
            pids = self.pool.span_pids()
        recorder.record(
            request_id=request.request_id,
            span_id=request.span_id or "root",
            deadline_s=request.deadline_s,
            elapsed_s=elapsed_s,
            service_spans=self.ring.peek(),
            worker_spans=worker_spans,
            pids=pids,
        )

    def stats_snapshot(self) -> dict[str, object]:
        """Live counters: scheduler conservation set, pool work, spans."""
        scheduler = self.scheduler
        pool = self.pool
        snapshot: dict[str, object] = {
            "in_flight": 0 if scheduler is None else scheduler.in_flight,
        }
        if scheduler is not None:
            snapshot.update(
                {name: count for name, count in scheduler.counters.items()}
            )
        if pool is not None and not pool.closed:
            snapshot["pool"] = dict(pool.counters)
        elif self.final_counters:
            snapshot["pool"] = dict(self.final_counters)
        dropped, _ = self.ring.snapshot_counters()
        snapshot["spans_recorded"] = self.ring.recorded
        snapshot["spans_dropped"] = dropped
        snapshot["traces_stored"] = len(self.traces)
        return snapshot

    # -- the wire -----------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: pipelined requests, per-reply ordering.

        Searches run concurrently (a slow deep search does not block a
        later shallow one on the same connection); a per-connection
        lock serializes reply *writes* so frames never interleave.  Every
        search started here is awaited before the writer closes.
        """
        write_lock = asyncio.Lock()
        searches: set["asyncio.Task[None]"] = set()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)

        async def send(payload: Mapping[str, object]) -> None:
            async with write_lock:
                writer.write(encode_line(payload))
                await writer.drain()

        async def run_search(request: SearchRequest) -> None:
            reply = await self.handle(request)
            try:
                await send(reply.to_wire())
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; the search itself still resolved

        try:
            while True:
                payload: dict[str, object] = {}
                try:
                    line = await read_line(reader)
                    if not line:
                        break
                    payload = decode_line(line)
                    op = payload.get("op")
                    if op == "search":
                        request = SearchRequest.from_wire(payload)
                    elif op == "stats":
                        await send({"op": "stats", **self.stats_snapshot()})
                        continue
                    elif op == "shutdown":
                        if not is_loopback_peer(writer.get_extra_info("peername")):
                            raise ServeError("shutdown is accepted only from a loopback peer")
                        await send({"op": "shutdown-ack"})
                        self.request_shutdown()
                        continue
                    else:
                        raise ServeError(f"unknown op {op!r}")
                except ReproError as error:
                    raw_id = payload.get("request_id")
                    await send(
                        SearchReply(
                            request_id=raw_id if isinstance(raw_id, str) and raw_id else "?",
                            status=STATUS_ERROR,
                            detail=str(error),
                        ).to_wire()
                    )
                    continue
                search = asyncio.get_running_loop().create_task(run_search(request))
                searches.add(search)
                search.add_done_callback(searches.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; in-flight work still resolves
        finally:
            for search in list(searches):
                await search
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
