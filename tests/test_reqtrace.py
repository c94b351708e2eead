"""Request-scoped tracing: conservation, propagation, SLOs, flight records.

The PR-10 contract pinned here, layer by layer:

* :func:`repro.obs.reqtrace.attribute` produces a decomposition that
  conserves *exactly* (within float tolerance) with ``unattributed``
  always reported — the serve-layer sibling of PR 5's
  ``path == makespan`` invariant;
* the ``timing`` wire block round-trips, drops newer versions
  tolerantly, and rejects malformed payloads loudly;
* the scheduler stamps every executed request with a conserved timing
  block on an injected clock, feeds the trace sink, and samples queue
  depth on completion (so the depth series decays back to zero);
* the SLO machinery computes burn rates from good/bad counts and the
  registry histograms render as real Prometheus ``histogram`` families;
* the flight recorder dedupes, sanitizes, bounds its file count, and is
  fired by the scheduler's stall watchdog;
* the Perfetto exporter lays each request's stages end to end over
  exactly ``[arrived_at, finished_at]``;
* end to end: a real service with ``trace_mode="full"`` returns replies
  whose decomposition conserves and whose worker spans carry the
  request tag across process boundaries.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace
from typing import Optional

import pytest

from repro.obs import export, ledger
from repro.obs import live
from repro.obs import reqtrace
from repro.obs.promtext import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve import SearchService, ServeConfig
from repro.serve.api import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    SearchReply,
    SearchRequest,
)
from repro.serve.scheduler import (
    SLO_LATENCY_BOUNDS,
    IterationResult,
    RequestScheduler,
    ServeMetrics,
)
from repro.serve.traffic import (
    latency_fields,
    render_decomposition,
    run_trace,
    stage_samples,
    stage_stats,
)

ITERATION_COST = 1.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeEngine:
    """Costs ``ITERATION_COST`` clock units per deepening iteration."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    async def run_iteration(
        self, request: SearchRequest, depth: int, resolved: object = None
    ) -> IterationResult:
        self.clock.advance(ITERATION_COST)
        await asyncio.sleep(0)
        return IterationResult(
            move_index=0, value=float(depth), per_move_values=(float(depth),)
        )


def make_request(
    index: int = 0,
    priority: int = PRIORITY_NORMAL,
    max_depth: int = 2,
    deadline_s: Optional[float] = None,
    span_id: str = "",
) -> SearchRequest:
    return SearchRequest(
        request_id=f"r{index:04d}",
        workload="fake",
        max_depth=max_depth,
        deadline_s=deadline_s,
        priority=priority,
        span_id=span_id,
    )


# ---------------------------------------------------------------------------
# The conservation law.
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_decomposition_conserves_by_construction(self) -> None:
        timing = reqtrace.attribute(
            arrived_at=100.0,
            admitted_at=100.25,
            started_at=101.0,
            finished_at=105.0,
            iterations_s=[1.0, 1.5],
            reply_serialize_s=0.25,
        )
        assert timing.end_to_end_s == pytest.approx(5.0)
        assert timing.admission_s == pytest.approx(0.25)
        assert timing.queue_wait_s == pytest.approx(0.75)
        assert timing.iterations_total_s == pytest.approx(2.5)
        assert timing.unattributed_s == pytest.approx(1.25)
        assert timing.unattributed_s >= 0.0
        gap = timing.components_total_s() - timing.end_to_end_s
        assert abs(gap) <= reqtrace.CONSERVATION_TOL_S
        assert timing.conservation_problems() == []

    def test_unattributed_reported_even_when_zero(self) -> None:
        timing = reqtrace.attribute(
            arrived_at=0.0,
            admitted_at=0.0,
            started_at=0.0,
            finished_at=2.0,
            iterations_s=[2.0],
            reply_serialize_s=0.0,
        )
        assert "unattributed" in timing.stage_seconds()
        assert timing.unattributed_s == pytest.approx(0.0)
        assert timing.conservation_problems() == []

    def test_cross_clock_stamps_are_flagged_not_hidden(self) -> None:
        # Components exceeding end-to-end means two clock domains were
        # mixed; the negative remainder must be flagged, never clamped.
        timing = reqtrace.attribute(
            arrived_at=10.0,
            admitted_at=10.0,
            started_at=10.0,
            finished_at=11.0,
            iterations_s=[5.0],
            reply_serialize_s=0.0,
        )
        assert timing.unattributed_s < 0.0
        problems = timing.conservation_problems()
        assert any("unattributed" in p and "negative" in p for p in problems)
        # The identity itself still holds: unattributed is the remainder.
        assert not any("does not conserve" in p for p in problems)

    def test_hand_built_timing_that_lies_fails_conservation(self) -> None:
        timing = reqtrace.RequestTiming(
            end_to_end_s=10.0,
            admission_s=1.0,
            queue_wait_s=1.0,
            iterations_s=(1.0,),
            reply_serialize_s=1.0,
            unattributed_s=1.0,  # sums to 5, claims 10
        )
        assert any(
            "does not conserve" in p for p in timing.conservation_problems()
        )


class TestWireCodec:
    def test_round_trip(self) -> None:
        timing = reqtrace.attribute(
            arrived_at=0.0,
            admitted_at=0.5,
            started_at=1.0,
            finished_at=4.0,
            iterations_s=[1.0, 0.5],
            reply_serialize_s=0.125,
        )
        assert reqtrace.RequestTiming.from_wire(timing.to_wire()) == timing

    def test_newer_version_drops_to_none(self) -> None:
        payload = {"v": reqtrace.TIMING_WIRE_VERSION + 1, "end_to_end_s": 1.0}
        assert reqtrace.timing_from_wire(payload) is None
        assert reqtrace.timing_from_wire(None) is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"v": 1},  # missing every field
            {"v": 1, "end_to_end_s": "fast"},  # wrong type
            {
                "v": 1,
                "end_to_end_s": 1.0,
                "admission_s": 0.0,
                "queue_wait_s": 0.0,
                "iterations_s": 3,  # not a list
                "reply_serialize_s": 0.0,
                "unattributed_s": 0.0,
            },
            "not-an-object",
        ],
    )
    def test_malformed_current_version_raises(self, payload: object) -> None:
        with pytest.raises(ValueError):
            reqtrace.timing_from_wire(payload)

    def test_reply_carries_timing_over_the_wire(self) -> None:
        timing = reqtrace.attribute(
            arrived_at=0.0,
            admitted_at=0.0,
            started_at=0.0,
            finished_at=1.0,
            iterations_s=[1.0],
            reply_serialize_s=0.0,
        )
        reply = SearchReply(
            request_id="r1", status=STATUS_OK, value=1.0, timing=timing
        )
        decoded = SearchReply.from_wire(reply.to_wire())
        assert decoded.timing == timing
        # Pre-tracing replies (no block) still parse.
        bare = SearchReply(request_id="r2", status=STATUS_OK)
        assert SearchReply.from_wire(bare.to_wire()).timing is None


class TestTagCodec:
    def test_context_children_encode_the_path(self) -> None:
        ctx = reqtrace.TraceContext("req-7")
        assert ctx.tag == "req-7/root"
        child = ctx.child("d3")
        assert child.tag == "req-7/root.d3"
        assert child.child("w0").span_id == "root.d3.w0"

    def test_span_name_tag_round_trips(self) -> None:
        name = live.tag_span_name("eval", reqtrace.span_tag("r1", "root.d2"))
        assert live.split_span_name(name) == ("eval", "r1/root.d2")
        assert live.split_span_name("eval") == ("eval", None)

    def test_double_tagging_rejected(self) -> None:
        tagged = live.tag_span_name("eval", "r1/root")
        with pytest.raises(ValueError):
            live.tag_span_name(tagged, "r2/root")


# ---------------------------------------------------------------------------
# Scheduler integration on an injected clock.
# ---------------------------------------------------------------------------


def run_scheduler(
    requests: list[SearchRequest],
    *,
    arrived_offsets: Optional[list[float]] = None,
    stall_overrun_factor: float = 0.0,
    stall_sink=None,
) -> tuple[RequestScheduler, list[SearchReply], list[reqtrace.RequestTrace]]:
    clock = FakeClock()
    traces: list[reqtrace.RequestTrace] = []
    scheduler = RequestScheduler(
        FakeEngine(clock),
        max_concurrency=1,
        queue_limit=8,
        clock=clock,
        trace_sink=traces.append,
        stall_overrun_factor=stall_overrun_factor,
        stall_sink=stall_sink,
    )

    async def scenario() -> list[SearchReply]:
        futures = []
        for i, request in enumerate(requests):
            arrived = None
            if arrived_offsets is not None:
                arrived = clock() - arrived_offsets[i]
            futures.append(scheduler.submit_nowait(request, arrived_at=arrived))
        await scheduler.drain()
        return [await f for f in futures]

    replies = asyncio.run(scenario())
    return scheduler, replies, traces


class TestSchedulerTiming:
    def test_every_executed_request_gets_conserved_timing(self) -> None:
        scheduler, replies, traces = run_scheduler(
            [make_request(i, max_depth=2) for i in range(3)]
        )
        assert len(traces) == 3
        for reply in replies:
            assert reply.timing is not None
            assert reply.timing.conservation_problems() == []
            assert len(reply.timing.iterations_s) == 2
            assert reply.timing.iterations_total_s == pytest.approx(
                2 * ITERATION_COST
            )
        # Later submissions waited for the single slot: queue_wait grows.
        assert replies[2].timing is not None and replies[0].timing is not None
        assert (
            replies[2].timing.queue_wait_s > replies[0].timing.queue_wait_s
        )

    def test_admission_stage_spans_arrival_to_admission(self) -> None:
        _, replies, traces = run_scheduler(
            [make_request(0)], arrived_offsets=[0.125]
        )
        timing = replies[0].timing
        assert timing is not None
        assert timing.admission_s == pytest.approx(0.125)
        assert traces[0].arrived_at == pytest.approx(-0.125)
        assert traces[0].finished_at == pytest.approx(
            traces[0].arrived_at + timing.end_to_end_s
        )

    def test_trace_sink_gets_bounds_and_identity(self) -> None:
        _, _, traces = run_scheduler(
            [make_request(0, max_depth=3, span_id="c9")]
        )
        trace = traces[0]
        assert trace.request_id == "r0000"
        assert trace.span_id == "c9"
        assert trace.tag == "r0000/c9"
        assert len(trace.iteration_bounds) == 3
        for start, end in trace.iteration_bounds:
            assert end - start == pytest.approx(ITERATION_COST)

    def test_shed_requests_have_no_timing(self) -> None:
        scheduler, replies, traces = run_scheduler(
            [make_request(i, max_depth=2) for i in range(12)]
        )
        shed = [r for r in replies if r.status != STATUS_OK]
        assert shed, "queue_limit=8 + slot=1 must shed from a 12-batch"
        assert all(r.timing is None for r in shed)
        assert len(traces) == len(replies) - len(shed)

    def test_queue_depth_sampled_on_completion_decays_to_zero(self) -> None:
        # Satellite 1: without completion-side samples the depth series
        # ends at its high-water mark; the series must return to zero.
        scheduler, _, _ = run_scheduler(
            [make_request(i, max_depth=1) for i in range(6)]
        )
        series = scheduler.metrics.registry.timeseries("serve.queue.depth")
        depths = [value for _, value in series.samples]
        assert max(depths) > 0.0
        assert depths[-1] == 0.0
        assert scheduler.conservation_problems() == []


class TestStallWatchdog:
    def test_fires_once_past_the_overrun_threshold(self) -> None:
        stalls: list[tuple[str, float]] = []
        _, replies, _ = run_scheduler(
            [make_request(0, max_depth=4, deadline_s=10.0)],
            stall_overrun_factor=0.2,  # threshold: 2.0 clock units
            stall_sink=lambda request, elapsed: stalls.append(
                (request.request_id, elapsed)
            ),
        )
        assert [rid for rid, _ in stalls] == ["r0000"]  # fired exactly once
        assert stalls[0][1] >= 10.0 * 0.2
        assert replies[0].status == STATUS_OK  # watchdog observes, not kills

    def test_sink_errors_counted_not_raised(self) -> None:
        def broken(request: SearchRequest, elapsed: float) -> None:
            raise RuntimeError("flight disk full")

        scheduler, replies, _ = run_scheduler(
            [make_request(0, max_depth=4, deadline_s=10.0)],
            stall_overrun_factor=0.2,
            stall_sink=broken,
        )
        assert replies[0].status == STATUS_OK
        collected = scheduler.metrics.collect()
        assert collected.get("serve.flight.errors") == 1


# ---------------------------------------------------------------------------
# SLO machinery and histogram rendering.
# ---------------------------------------------------------------------------


class TestSLO:
    def test_burn_rate_math(self) -> None:
        policy = reqtrace.SLOPolicy(targets=((0, 1.0),), objective=0.99)
        assert policy.error_budget == pytest.approx(0.01)
        assert policy.burn_rate(0, 0) == 0.0
        assert policy.burn_rate(99, 1) == pytest.approx(1.0)  # exactly on budget
        assert policy.burn_rate(90, 10) == pytest.approx(10.0)
        assert policy.target_for(0) == 1.0
        assert policy.target_for(7) is None

    def test_policy_validation(self) -> None:
        with pytest.raises(ValueError):
            reqtrace.SLOPolicy(targets=((0, 1.0),), objective=1.0)
        with pytest.raises(ValueError):
            reqtrace.SLOPolicy(targets=((0, 0.0),))

    def test_observe_latency_updates_counters_and_burn_rate(self) -> None:
        metrics = ServeMetrics(
            slo=reqtrace.SLOPolicy(targets=((PRIORITY_HIGH, 0.5),), objective=0.9)
        )
        for latency in (0.1, 0.2, 0.3, 0.9):  # 3 good, 1 bad
            metrics.observe_latency(PRIORITY_HIGH, latency)
        collected = metrics.collect()
        p = f"serve.slo.p{PRIORITY_HIGH}"
        assert collected[f"{p}.good"] == 3
        assert collected[f"{p}.bad"] == 1
        assert collected[f"{p}.target_seconds"] == 0.5
        assert collected[f"{p}.burn_rate"] == pytest.approx((1 / 4) / 0.1)

    def test_unknown_priority_feeds_histogram_only(self) -> None:
        metrics = ServeMetrics(
            slo=reqtrace.SLOPolicy(targets=((PRIORITY_HIGH, 0.5),))
        )
        metrics.observe_latency(PRIORITY_NORMAL, 0.2)
        collected = metrics.collect()
        assert f"serve.slo.p{PRIORITY_NORMAL}.good" not in collected
        histogram = collected[f"serve.latency_seconds.p{PRIORITY_NORMAL}"]
        assert isinstance(histogram, dict) and histogram["count"] == 1.0

    def test_bucketed_histogram_renders_prometheus_family(self) -> None:
        registry = MetricsRegistry()
        hist = registry.histogram("serve.latency_seconds.p1", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["le:0.1"] == 1.0
        assert summary["le:1"] == 2.0  # cumulative
        text = render_prometheus(registry.collect())
        assert "# TYPE repro_serve_latency_seconds_p1 histogram" in text
        assert 'repro_serve_latency_seconds_p1_bucket{le="0.1"} 1' in text
        assert 'repro_serve_latency_seconds_p1_bucket{le="1"} 2' in text
        assert 'repro_serve_latency_seconds_p1_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_seconds_p1_count 3" in text

    def test_slo_bounds_are_ascending(self) -> None:
        assert list(SLO_LATENCY_BOUNDS) == sorted(SLO_LATENCY_BOUNDS)
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", bounds=(1.0, 0.5))


# ---------------------------------------------------------------------------
# Flight recorder.
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def _recorder(self, tmp_path, **kwargs) -> reqtrace.FlightRecorder:
        kwargs.setdefault("overrun_factor", 2.0)
        return reqtrace.FlightRecorder(tmp_path / "flights", **kwargs)

    def _record(self, recorder, request_id: str):
        return recorder.record(
            request_id=request_id,
            span_id="root",
            deadline_s=1.0,
            elapsed_s=2.5,
            service_spans=[("request", "request@x/root", 0.0, 2.5)],
            worker_spans=[live.WorkerSpan(0, "task", "eval@x/root.d1", 0.5, 1.0)],
            pids={0: 4242},
        )

    def test_writes_schema_and_spans(self, tmp_path) -> None:
        recorder = self._recorder(tmp_path)
        path = self._record(recorder, "req-1")
        assert path is not None
        payload = json.loads(path.read_text())
        assert payload["flight_schema"] == reqtrace.FlightRecorder.SCHEMA
        assert payload["elapsed_s"] == 2.5
        assert payload["service_spans"][0]["name"] == "request@x/root"
        assert payload["worker_spans"][0]["os_pid"] == 4242

    def test_hostile_request_id_is_sanitized(self, tmp_path) -> None:
        recorder = self._recorder(tmp_path)
        path = self._record(recorder, "../../etc/passwd")
        assert path is not None
        # Separators are replaced, so the file cannot escape the flight
        # directory no matter what the client named its request.
        assert "/" not in path.name and "\\" not in path.name
        assert path.resolve().parent == recorder.directory.resolve()

    def test_dedupes_per_request_and_bounds_files(self, tmp_path) -> None:
        recorder = self._recorder(tmp_path, limit=2)
        assert self._record(recorder, "a") is not None
        assert self._record(recorder, "a") is None  # deduped
        assert self._record(recorder, "b") is not None
        assert self._record(recorder, "c") is None  # over the limit
        assert recorder.suppressed == 2
        assert len(list(recorder.directory.glob("flight_*.json"))) == 2

    def test_config_requires_flight_dir_with_factor(self) -> None:
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            ServeConfig(stall_overrun_factor=2.0, flight_dir=None)
        with pytest.raises(ValueError):
            reqtrace.FlightRecorder("x", overrun_factor=0.0)


# ---------------------------------------------------------------------------
# Perfetto export.
# ---------------------------------------------------------------------------


class TestServiceTraceExport:
    def _trace(self) -> reqtrace.RequestTrace:
        timing = reqtrace.attribute(
            arrived_at=50.0,
            admitted_at=50.5,
            started_at=51.0,
            finished_at=55.0,
            iterations_s=[1.0, 2.0],
            reply_serialize_s=0.5,
        )
        return reqtrace.RequestTrace("r1", "c1", 1, "ok", 50.0, timing)

    def test_stage_lane_tiles_exactly_arrival_to_finish(self) -> None:
        trace = self._trace()
        payload = json.loads(export.render_service_trace([trace]))
        slices = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0
        ]
        names = [e["name"] for e in slices]
        assert names == [
            "admission",
            "queue_wait",
            "iteration d1",
            "iteration d2",
            "reply_serialize",
            "unattributed",
        ]
        # End-to-end tiling: each slice starts where the last ended, and
        # the lane spans exactly [arrived_at, finished_at] (rebased to 0).
        cursor = 0.0
        for event in slices:
            assert event["ts"] == pytest.approx(cursor, abs=1e-6)
            cursor += event["dur"]
        assert cursor == pytest.approx(trace.timing.end_to_end_s * 1e6)

    def test_worker_spans_threaded_into_request_track(self, tmp_path) -> None:
        trace = self._trace()
        spans = {
            "r1": [
                live.WorkerSpan(0, "task", "eval@r1/c1.d1", 51.2, 51.8),
                live.WorkerSpan(1, "task", "eval@r1/c1.d2", 52.0, 53.5),
            ]
        }
        path = export.write_service_trace(
            tmp_path / "svc.trace.json",
            [trace],
            worker_spans=spans,
            span_pids={0: 111, 1: 222},
        )
        payload = json.loads(path.read_text())
        workers = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("tid", 0) >= 1
        ]
        assert {e["args"]["os_pid"] for e in workers} == {111, 222}
        assert {e["args"]["tag"] for e in workers} == {"r1/c1.d1", "r1/c1.d2"}
        assert all(e["name"] == "eval" for e in workers)
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "engine worker 0 (os pid 111)" in names


# ---------------------------------------------------------------------------
# Traffic decomposition and the ledger latency block.
# ---------------------------------------------------------------------------


def _reply_with(end_to_end: float, queue_wait: float) -> SearchReply:
    timing = reqtrace.attribute(
        arrived_at=0.0,
        admitted_at=0.0,
        started_at=queue_wait,
        finished_at=end_to_end,
        iterations_s=[end_to_end - queue_wait],
        reply_serialize_s=0.0,
    )
    return SearchReply(request_id="x", status=STATUS_OK, timing=timing)


class TestTrafficDecomposition:
    def test_stage_samples_skip_untimed_replies(self) -> None:
        replies = [
            _reply_with(1.0, 0.25),
            SearchReply(request_id="shed", status="shed"),
        ]
        samples = stage_samples(replies)
        assert len(samples["end_to_end"]) == 1
        assert samples["queue_wait"] == [0.25]

    def test_stage_stats_percentiles(self) -> None:
        replies = [_reply_with(float(i), 0.0) for i in range(1, 101)]
        stats = stage_stats(stage_samples(replies))
        assert stats["end_to_end"]["p50_s"] == 50.0
        assert stats["end_to_end"]["p99_s"] == 99.0
        assert stats["end_to_end"]["mean_s"] == pytest.approx(50.5)

    def test_render_flags_degenerate_small_n(self) -> None:
        table = render_decomposition(
            [_reply_with(1.0, 0.5), _reply_with(2.0, 0.5)], "t"
        )
        assert "decomposed requests: 2" in table
        assert "degenerate" in table
        assert "dominant tail stage" in table
        big = render_decomposition(
            [_reply_with(float(i), 0.0) for i in range(1, 10)], "t"
        )
        assert "degenerate" not in big

    def test_throughput_counts_ok_replies_only(self) -> None:
        # A service that sheds or fails a request has not served it.
        statuses = {
            "a": STATUS_OK,
            "b": STATUS_OK,
            "c": STATUS_OK,
            "d": STATUS_SHED,
            "e": STATUS_SHED,
            "f": STATUS_ERROR,
        }

        class CannedService:
            """Answers each request with a canned status, at once."""

            scheduler = SimpleNamespace(counters={"admitted": 0})

            async def handle(self, request: SearchRequest) -> SearchReply:
                status = statuses[request.request_id]
                latency = 0.01 if status == STATUS_OK else 0.0
                return SearchReply(request.request_id, status, latency_s=latency)

        trace = [SearchRequest(request_id=rid, workload="R1") for rid in statuses]
        report = asyncio.run(run_trace(CannedService(), trace))  # type: ignore[arg-type]
        assert (report.ok, report.shed, report.errors) == (3, 2, 1)
        assert report.completed == 4
        assert report.rps * report.wall_s == pytest.approx(3)

    def test_latency_fields_feed_a_valid_ledger_block(self) -> None:
        block = ledger.latency_block(
            **latency_fields([_reply_with(1.0, 0.25)])  # type: ignore[arg-type]
        )
        assert block["samples"] == 1
        assert "unattributed" in block["stages"]
        assert "end_to_end" in block["stages"]


@pytest.fixture(scope="module")
def sim_snapshot():
    """One tiny deterministic sim run as record scaffolding."""
    from repro.core.er_parallel import ERConfig, parallel_er
    from repro.games.base import SearchProblem
    from repro.games.random_tree import RandomGameTree
    from repro.obs import observing
    from repro.obs.snapshot import snapshot_from_sim

    problem = SearchProblem(RandomGameTree(3, 4, seed=11), depth=4)
    with observing() as bus:
        result = parallel_er(problem, 2, config=ERConfig(serial_depth=2))
    return snapshot_from_sim(result, workload="t", bus=bus)


class TestLedgerLatency:
    @pytest.fixture(autouse=True)
    def _snap(self, sim_snapshot):
        self._snapshot = sim_snapshot

    def _snap_record(self, **kwargs):
        return ledger.make_record(
            self._snapshot, workload="t", git_sha="cafe", **kwargs
        )

    def test_validate_requires_total_and_remainder(self) -> None:
        row = {"mean_s": 0.1, "p50_s": 0.1, "p95_s": 0.1, "p99_s": 0.1}
        good = self._snap_record(
            latency={"samples": 4, "stages": {"end_to_end": row, "unattributed": row}}
        )
        assert ledger.validate_record(good) == []
        hidden = self._snap_record(
            latency={"samples": 4, "stages": {"end_to_end": row}}
        )
        assert any("unattributed" in p for p in ledger.validate_record(hidden))
        negative = self._snap_record(
            latency={
                "samples": 4,
                "stages": {"end_to_end": row, "unattributed": {**row, "p99_s": -1.0}},
            }
        )
        assert any("p99_s" in p for p in ledger.validate_record(negative))

    def test_compare_flags_single_stage_regression(self) -> None:
        def block(queue_p99: float):
            row = {"mean_s": 0.1, "p50_s": 0.1, "p95_s": 0.1, "p99_s": 0.1}
            return {
                "samples": 10,
                "stages": {
                    "end_to_end": row,
                    "unattributed": row,
                    "queue_wait": {**row, "p99_s": queue_p99},
                },
            }

        base = self._snap_record(latency=block(0.010))
        worse = self._snap_record(latency=block(0.030))
        report = ledger.compare_records(base, worse, tolerance=0.10)
        assert any("queue_wait" in r for r in report.regressions)
        better = ledger.compare_records(worse, base, tolerance=0.10)
        assert any("queue_wait" in i for i in better.improvements)

    def test_compare_skips_sub_millisecond_noise(self) -> None:
        def block(p99: float):
            row = {"mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": p99}
            return {
                "samples": 10,
                "stages": {"end_to_end": row, "unattributed": row},
            }

        report = ledger.compare_records(
            self._snap_record(latency=block(0.0002)),
            self._snap_record(latency=block(0.0009)),  # 4.5x, but microseconds
            tolerance=0.10,
        )
        assert report.regressions == []

    def test_compare_notes_missing_block(self) -> None:
        report = ledger.compare_records(
            self._snap_record(),
            self._snap_record(latency={"samples": 0, "stages": {}}),
        )
        assert any("latency" in n for n in report.notes)


# ---------------------------------------------------------------------------
# End to end: a real service, trace mode full.
# ---------------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_full_trace_propagates_across_processes(self) -> None:
        config = ServeConfig(
            n_workers=1, max_concurrency=2, trace_mode=live.TRACE_FULL
        )

        async def scenario():
            async with SearchService(config) as service:
                requests = [
                    SearchRequest(
                        request_id=f"e2e{i}",
                        workload="R1",
                        max_depth=2,
                        span_id=f"c{i}",
                    )
                    for i in range(3)
                ]
                replies = await asyncio.gather(
                    *(service.handle(r) for r in requests)
                )
                assert service.pool is not None
                spans = service.pool.request_spans("e2e1")
                stored = service.traces.traces()
                snapshot = service.stats_snapshot()
            return replies, spans, stored, snapshot

        replies, spans, stored, snapshot = asyncio.run(scenario())
        for reply in replies:
            assert reply.status == STATUS_OK
            assert reply.timing is not None
            assert reply.timing.conservation_problems() == []
        # Worker spans from another OS process carry this request's tag.
        assert spans, "full trace mode must collect tagged worker spans"
        for span in spans:
            base, tag = live.split_span_name(span.name)
            assert tag is not None and tag.startswith("e2e1/c1")
        assert {t.request_id for t in stored} == {"e2e0", "e2e1", "e2e2"}
        assert snapshot["traces_stored"] == 3

    def test_trace_off_attaches_timing_but_no_tags(self) -> None:
        async def scenario():
            async with SearchService(ServeConfig(n_workers=1)) as service:
                reply = await service.handle(
                    SearchRequest(request_id="plain", workload="R1", max_depth=2)
                )
                assert service.pool is not None
                spans = service.pool.merged_spans()
            return reply, spans

        reply, spans = asyncio.run(scenario())
        assert reply.timing is not None
        assert reply.timing.conservation_problems() == []
        assert spans == ()  # off mode: no span collection, no tags
