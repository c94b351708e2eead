"""Live tracing and telemetry: rings, calibration, merge, feed, exporters.

The span machinery is exercised with injected fake clocks so every
geometric assertion is exact; the real backends are then run traced at
small scale to check the end-to-end path — spans collected across
threads/processes, merged onto one timeline, and agreeing with the
backends' own busy accounting.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.core.er_parallel import ERConfig
from repro.errors import SearchError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import aggregate, observing
from repro.obs import events as obs_events
from repro.obs import live, probe
from repro.obs.export import render_chrome_trace
from repro.obs.promtext import MetricsServer, render_prometheus
from repro.obs.registry import MetricsRegistry, feed_event
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er_observed

_SEED = 7


def _problem() -> SearchProblem:
    return SearchProblem(RandomGameTree(3, 5, seed=_SEED), depth=5)


class _FakeClock:
    """Deterministic monotonic clock advancing a fixed step per read."""

    def __init__(self, start: float = 0.0, step: float = 0.001) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# SpanRing.
# ---------------------------------------------------------------------------


class TestSpanRing:
    def test_begin_end_records_span(self) -> None:
        ring = live.SpanRing(8, clock=_FakeClock())
        token = ring.begin()
        assert token > 0.0
        ring.end("tt", "probe", token)
        spans = ring.drain()
        assert len(spans) == 1
        cat, name, t0, t1 = spans[0]
        assert (cat, name) == ("tt", "probe")
        assert t1 > t0

    def test_negative_token_is_noop(self) -> None:
        ring = live.SpanRing(8, clock=_FakeClock())
        ring.end("tt", "probe", -1.0)
        assert ring.drain() == []
        assert ring.recorded == 0

    def test_capacity_bounds_memory_and_counts_drops(self) -> None:
        ring = live.SpanRing(4, clock=_FakeClock())
        for i in range(10):
            ring.record("task", f"t{i}", float(i), float(i) + 0.5)
        assert ring.recorded == 10
        assert ring.dropped == 6
        spans = ring.drain()
        assert len(spans) == 4
        # Oldest-first, and only the newest `capacity` survive.
        assert [s[1] for s in spans] == ["t6", "t7", "t8", "t9"]

    def test_counters_survive_drain(self) -> None:
        ring = live.SpanRing(2, clock=_FakeClock())
        for i in range(5):
            ring.record("task", "t", float(i), float(i) + 1.0)
        assert ring.dropped == 3
        cost_before = ring.self_cost_seconds
        ring.drain()
        assert ring.dropped == 3
        assert ring.recorded == 5
        assert ring.self_cost_seconds == cost_before
        dropped, cost = ring.snapshot_counters()
        assert (dropped, cost) == (3, cost_before)
        # The emptied ring accepts new spans without double counting.
        ring.record("task", "u", 9.0, 9.5)
        assert [s[1] for s in ring.drain()] == ["u"]

    def test_sampled_stride_records_one_in_n(self) -> None:
        ring = live.SpanRing(64, stride=4, clock=_FakeClock())
        recorded = sum(1 for _ in range(16) if ring.begin() > 0.0)
        assert recorded == 4
        for _ in range(16):
            ring.record("task", "t", 0.0, 1.0)
        assert ring.recorded == 4

    def test_self_cost_accumulates(self) -> None:
        ring = live.SpanRing(8, clock=_FakeClock(step=0.01))
        ring.record("task", "t", 0.0, 1.0)
        assert ring.self_cost_seconds > 0.0

    def test_invalid_configuration_rejected(self) -> None:
        with pytest.raises(ValueError):
            live.SpanRing(0)
        with pytest.raises(ValueError):
            live.SpanRing(4, stride=0)

    def test_ring_for_mode(self) -> None:
        assert live.ring_for_mode(live.TRACE_OFF) is None
        sampled = live.ring_for_mode(live.TRACE_SAMPLED)
        full = live.ring_for_mode(live.TRACE_FULL)
        assert sampled is not None and sampled._stride == live.SAMPLED_STRIDE
        assert full is not None and full._stride == 1
        with pytest.raises(ValueError):
            live.ring_for_mode("verbose")

    def test_install_uninstall_ring(self) -> None:
        assert probe.CURRENT is None
        try:
            ring = live.install_ring(live.TRACE_FULL)
            assert probe.CURRENT is not None
            assert probe.CURRENT.ring is ring and ring is not None
        finally:
            live.uninstall_ring()
        assert probe.CURRENT is None


# ---------------------------------------------------------------------------
# Clock-offset calibration and the merged timeline.
# ---------------------------------------------------------------------------


class TestOffsetEstimator:
    def test_snaps_to_zero_when_bounds_allow(self) -> None:
        est = live.OffsetEstimator()
        # Same clock domain: worker interval inside the coordinator's.
        est.observe(10.0, 10.1, 10.4, 10.5)
        assert est.lo == pytest.approx(-0.1)
        assert est.hi == pytest.approx(0.1)
        assert est.offset == 0.0

    def test_recovers_shifted_clock(self) -> None:
        est = live.OffsetEstimator()
        shift = 100.0  # worker clock runs 100s behind the coordinator
        for submit, start, end, receive in (
            (10.0, -89.95, -89.5, 10.55),
            (20.0, -79.98, -79.6, 20.45),
        ):
            est.observe(submit, start, end, receive)
        assert est.lo <= shift <= est.hi
        assert est.offset == pytest.approx(shift, abs=0.1)

    def test_no_observations_means_zero(self) -> None:
        assert live.OffsetEstimator().offset == 0.0

    def test_inconsistent_bounds_split_the_difference(self) -> None:
        est = live.OffsetEstimator()
        est.observe(10.0, 5.0, 5.5, 10.6)  # delta in [5.0, 5.1]
        est.observe(20.0, 14.6, 15.1, 20.0)  # delta in [5.4, 4.9]
        assert est.lo > est.hi
        assert est.lo >= est.offset >= est.hi

    @staticmethod
    def _round_trip(
        est: live.OffsetEstimator,
        c_submit: float,
        *,
        skew: float,
        dispatch: float,
        work: float,
        reply: float,
    ) -> None:
        """One simulated task against a worker clock ``skew`` s behind.

        coordinator = worker + skew, so the true offset δ is ``skew``;
        the observation bounds it to ``[skew - dispatch, skew + reply]``.
        """
        w_start = (c_submit + dispatch) - skew
        w_end = w_start + work
        est.observe(c_submit, w_start, w_end, c_submit + dispatch + work + reply)

    def test_injected_constant_skew_recovered_within_latency(self) -> None:
        # A worker clock 50s behind with millisecond-scale messaging
        # latencies: the estimate must land within the latency bound and
        # must NOT snap to zero (zero is far outside the interval).
        est = live.OffsetEstimator()
        skew = 50.0
        clock = 100.0
        for dispatch, reply in ((0.002, 0.001), (0.0015, 0.002), (0.001, 0.0005)):
            self._round_trip(
                est, clock, skew=skew, dispatch=dispatch, work=0.3, reply=reply
            )
            clock += 1.0
        assert est.lo <= skew <= est.hi
        assert est.offset != 0.0
        assert est.offset == pytest.approx(skew, abs=0.002)

    def test_intersection_narrows_monotonically(self) -> None:
        # Each observation can only tighten the interval: lo never
        # decreases, hi never increases, width never grows — and the
        # final width is set by the single tightest round-trip.
        est = live.OffsetEstimator()
        skew = 7.0
        clock = 0.0
        latencies = [(0.05, 0.04), (0.01, 0.03), (0.002, 0.001), (0.02, 0.02)]
        widths: list[float] = []
        lo_prev, hi_prev = est.lo, est.hi
        for dispatch, reply in latencies:
            self._round_trip(
                est, clock, skew=skew, dispatch=dispatch, work=0.1, reply=reply
            )
            clock += 1.0
            assert est.lo >= lo_prev and est.hi <= hi_prev
            lo_prev, hi_prev = est.lo, est.hi
            widths.append(est.width)
        assert widths == sorted(widths, reverse=True)
        assert est.width == pytest.approx(min(d + r for d, r in latencies))

    def test_drift_within_run_gives_inconsistent_midpoint(self) -> None:
        # A worker clock drifting between observations breaks the
        # constant-offset model: the intervals stop intersecting and the
        # estimator splits the difference rather than crashing or
        # pretending certainty.
        est = live.OffsetEstimator()
        clock = 0.0
        for skew in (5.0, 5.1, 5.2):
            self._round_trip(
                est, clock, skew=skew, dispatch=0.01, work=0.2, reply=0.01
            )
            clock += 1.0
        assert est.lo > est.hi  # inconsistent: drift exceeded latency slack
        assert est.offset == pytest.approx((est.lo + est.hi) / 2.0)
        assert 5.0 < est.offset < 5.2

    def test_snap_to_zero_exactly_at_the_boundary(self) -> None:
        # lo == 0 and hi == 0 are both still "zero is plausible".
        at_lo = live.OffsetEstimator()
        at_lo.observe(10.0, 10.0, 10.4, 10.5)  # delta in [0.0, 0.1]
        assert at_lo.lo == 0.0 and at_lo.offset == 0.0
        at_hi = live.OffsetEstimator()
        at_hi.observe(10.0, 10.1, 10.5, 10.5)  # delta in [-0.1, 0.0]
        assert at_hi.hi == 0.0 and at_hi.offset == 0.0
        # Nudge lo past zero and the snap must stop: midpoint estimate.
        past = live.OffsetEstimator()
        past.observe(10.0, 9.99, 10.4, 10.5)  # delta in [0.01, 0.1]
        assert past.lo > 0.0
        assert past.offset == pytest.approx(0.055)

    def test_merge_rebases_and_sorts(self) -> None:
        spans = {
            0: [("task", "a", 5.0, 6.0)],
            1: [("task", "b", 1.0, 2.0)],
            live.COORDINATOR: [("heap", "wait", 4.8, 4.9)],
        }
        merged = live.merge_spans(spans, {1: 4.5})
        assert [s.name for s in merged] == ["wait", "a", "b"]
        b = merged[-1]
        assert b.start == pytest.approx(5.5)
        assert b.end == pytest.approx(6.5)
        assert b.duration == pytest.approx(1.0)

    def test_live_trace_accessors(self) -> None:
        trace = live.LiveTrace(
            mode=live.TRACE_FULL,
            spans=live.merge_spans(
                {0: [("task", "a", 0.0, 2.0)], 1: [("task", "b", 0.0, 1.0)]}, {}
            ),
            pids={0: 100, 1: 101, live.COORDINATOR: 99},
            dropped={0: 2, 1: 3},
            self_cost_seconds=0.05,
        )
        assert trace.workers() == [live.COORDINATOR, 0, 1]
        assert trace.busy_seconds() == {0: pytest.approx(2.0), 1: pytest.approx(1.0)}
        assert trace.total_dropped == 5
        assert trace.overhead_fraction(1.0) == pytest.approx(0.05)
        assert trace.overhead_fraction(0.0) == 0.0

    def test_spans_as_events(self) -> None:
        spans = live.merge_spans({0: [("tt", "probe", 1.0, 2.0)]}, {})
        events = live.spans_as_events(spans)
        assert len(events) == 1
        assert events[0].etype == "live-span"
        assert events[0].data["end"] == 2.0


# ---------------------------------------------------------------------------
# Live feed: identical accounting to the post-hoc aggregation.
# ---------------------------------------------------------------------------


class TestLiveFeed:
    def test_live_feed_matches_posthoc_aggregate(self) -> None:
        feed = live.LiveFeed()
        with observing() as bus:
            bus.attach_live(feed.on_event)
            multiproc_er(_problem(), 2, config=ERConfig(serial_depth=2))
        assert feed.n_events == len(bus.events)
        posthoc = aggregate(bus).collect()
        collected = feed.collect()
        assert collected  # the run produced metrics
        for key, value in collected.items():
            assert posthoc[key] == value, key

    def test_feed_counts_per_worker_busy(self) -> None:
        feed = live.LiveFeed()
        bus = obs_events.EventBus(clock=lambda: 0.0)
        bus.attach_live(feed.on_event)
        bus.emit(obs_events.EV_TASK_RESULT, worker=0, duration=0.5, applied=True)
        bus.emit(obs_events.EV_TASK_RESULT, worker=0, duration=0.25, applied=False)
        bus.emit(obs_events.EV_TASK_RESULT, worker=1, duration=0.125, applied=True)
        metrics = feed.collect()
        assert metrics["workers.w0.busy_applied_seconds"] == pytest.approx(0.5)
        assert metrics["workers.w0.busy_wasted_seconds"] == pytest.approx(0.25)
        assert metrics["workers.w1.busy_applied_seconds"] == pytest.approx(0.125)

    def test_non_worker_results_not_misfiled(self) -> None:
        registry = MetricsRegistry()
        bus = obs_events.EventBus(clock=lambda: 0.0)
        bus.emit(obs_events.EV_TASK_RESULT, duration=0.5)  # no worker id
        feed_event(registry, bus.events[0])
        assert not any(k.startswith("workers.") for k in registry.collect())

    def test_render_top_frame(self) -> None:
        feed = live.LiveFeed()
        bus = obs_events.EventBus(clock=lambda: 0.0)
        bus.attach_live(feed.on_event)
        bus.emit(obs_events.EV_TASK_SUBMIT, kind="explore")
        bus.emit(obs_events.EV_TASK_RESULT, worker=0, duration=0.5, applied=True)
        bus.emit(obs_events.EV_QUEUE_DEPTH, queue="heap.primary", depth=3)
        bus.emit(obs_events.EV_TT_PROBE, hit=True)
        frame = live.render_top(
            feed.collect(), workload="R3", backend="multiproc",
            n_workers=2, elapsed=1.0,
        )
        assert "R3 multiproc P=2" in frame
        assert "submitted=1 completed=1" in frame
        assert "heap.primary=3" in frame
        assert "tt: 1/1" in frame
        assert "w0" in frame and "w1" in frame
        done = live.render_top(
            feed.collect(), workload="R3", backend="multiproc",
            n_workers=2, elapsed=1.0, done=True,
        )
        assert "done" in done

    def test_render_top_handles_empty_metrics(self) -> None:
        frame = live.render_top(
            {}, workload="R1", backend="threaded", n_workers=1, elapsed=0.0
        )
        assert "running" in frame


# ---------------------------------------------------------------------------
# EventBus under concurrent emission (8 real threads).
# ---------------------------------------------------------------------------


class TestEventBusConcurrency:
    N_THREADS = 8
    PER_THREAD = 500

    def _hammer(self, bus: obs_events.EventBus) -> None:
        barrier = threading.Barrier(self.N_THREADS)

        def emitter(tid: int) -> None:
            barrier.wait()
            for i in range(self.PER_THREAD):
                bus.emit(obs_events.EV_TASK_RESULT, worker=tid, duration=1.0, seq=i)

        threads = [
            threading.Thread(target=emitter, args=(tid,)) for tid in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_no_event_loss_or_corruption(self) -> None:
        bus = obs_events.EventBus()
        self._hammer(bus)
        assert len(bus.events) == self.N_THREADS * self.PER_THREAD
        per_thread: dict[object, set[object]] = {}
        for event in bus.events:
            assert event.etype == obs_events.EV_TASK_RESULT
            assert event.data["duration"] == 1.0
            per_thread.setdefault(event.data["worker"], set()).add(event.data["seq"])
        # Every (worker, seq) pair arrived exactly once: no loss, no dupes.
        assert per_thread == {
            tid: set(range(self.PER_THREAD)) for tid in range(self.N_THREADS)
        }

    def test_timestamp_sort_yields_coherent_merge(self) -> None:
        bus = obs_events.EventBus()
        self._hammer(bus)
        merged = sorted(bus.events, key=lambda e: e.ts)
        assert len(merged) == len(bus.events)
        assert all(a.ts <= b.ts for a, b in zip(merged, merged[1:]))
        # Per-thread emission order is preserved by the per-event clock
        # stamp: each thread's seq numbers ascend with its timestamps.
        by_thread: dict[object, list[object]] = {}
        for event in merged:
            by_thread.setdefault(event.data["worker"], []).append(event.data["seq"])
        for seqs in by_thread.values():
            assert seqs == sorted(seqs)  # type: ignore[type-var]

    def test_live_sink_sees_every_event(self) -> None:
        feed = live.LiveFeed()
        bus = obs_events.EventBus()
        bus.attach_live(feed.on_event)
        self._hammer(bus)
        assert feed.n_events == self.N_THREADS * self.PER_THREAD
        total = self.N_THREADS * self.PER_THREAD
        metrics = feed.collect()
        busy = 0.0
        for tid in range(self.N_THREADS):
            value = metrics.get(f"workers.w{tid}.busy_applied_seconds", 0.0)
            assert isinstance(value, float)
            busy += value
        assert busy == pytest.approx(float(total))


# ---------------------------------------------------------------------------
# Traced real-backend runs, end to end.
# ---------------------------------------------------------------------------


class TestTracedBackends:
    def test_threaded_traced_run(self) -> None:
        baseline = threaded_er_observed(_problem(), 2, config=ERConfig(serial_depth=2))
        traced = threaded_er_observed(
            _problem(), 2, config=ERConfig(serial_depth=2), trace=live.TRACE_FULL
        )
        assert baseline.trace is None
        trace = traced.trace
        assert trace is not None
        assert traced.value == baseline.value
        assert trace.mode == live.TRACE_FULL
        assert trace.spans
        cats = {span.cat for span in trace.spans}
        assert "task" in cats
        # Threads share one clock: no offsets, one OS pid.
        assert all(offset == 0.0 for offset in trace.offsets.values())
        assert len(set(trace.pids.values())) == 1
        assert set(trace.busy_seconds()) == {0, 1}

    def test_threaded_rejects_unknown_mode(self) -> None:
        with pytest.raises(SearchError):
            threaded_er_observed(_problem(), 2, trace="verbose")

    def test_multiproc_traced_run_agrees_with_per_worker(self) -> None:
        result = multiproc_er(
            _problem(), 2, config=ERConfig(serial_depth=2), trace=live.TRACE_FULL
        )
        trace = result.trace
        assert trace is not None
        assert trace.spans
        busy = trace.busy_seconds()
        assert set(busy) == set(result.per_worker)
        for index, split in result.per_worker.items():
            expected = split["applied"] + split["wasted"]
            # Acceptance bar: per-worker busy seconds from spans agree
            # with the result-channel accounting within 2%.
            assert busy[index] == pytest.approx(expected, rel=0.02, abs=5e-4)
        # One pid row per worker plus the coordinator, all distinct.
        assert set(trace.pids) == {live.COORDINATOR, *result.per_worker}
        assert trace.pids[live.COORDINATOR] not in {
            trace.pids[i] for i in result.per_worker
        }
        for index, split in result.per_worker.items():
            assert trace.pids[index] == int(split["pid"])

    def test_multiproc_untraced_has_no_trace(self) -> None:
        result = multiproc_er(_problem(), 2, config=ERConfig(serial_depth=2))
        assert result.trace is None

    def test_multiproc_rejects_unknown_mode(self) -> None:
        with pytest.raises(SearchError):
            multiproc_er(_problem(), 2, trace="verbose")

    def test_chrome_trace_renders_live_rows(self) -> None:
        trace = live.LiveTrace(
            mode=live.TRACE_FULL,
            spans=live.merge_spans(
                {
                    0: [("task", "explore", 1.0, 2.0), ("tt", "probe", 1.2, 1.3)],
                    live.COORDINATOR: [("heap", "wait", 0.5, 0.9)],
                },
                {},
            ),
            pids={0: 4242, live.COORDINATOR: 4241},
        )
        import json

        payload = json.loads(
            render_chrome_trace([], time_unit="seconds", live=trace)
        )
        events = payload["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "worker 0 (os pid 4242)" in names
        assert "coordinator (os pid 4241)" in names
        spans = [e for e in events if str(e.get("cat", "")).startswith("live-")]
        assert len(spans) == 3
        # Rebased to the earliest span; microsecond scale.
        starts = sorted(e["ts"] for e in spans)
        assert starts[0] == pytest.approx(0.0)
        assert max(e["ts"] + e["dur"] for e in spans) == pytest.approx(1.5e6)


# ---------------------------------------------------------------------------
# Prometheus text exporter.
# ---------------------------------------------------------------------------


class TestPromText:
    def test_render_counter_histogram_series(self) -> None:
        text = render_prometheus(
            {
                "tasks.completed": 12,
                "task.duration": {
                    "count": 3.0, "total": 1.5, "min": 0.25, "max": 1.0, "mean": 0.5,
                },
                "queue.depth.heap": {"peak": 9.0, "last": 2.0, "samples": 40.0},
            }
        )
        assert "# TYPE repro_tasks_completed gauge\nrepro_tasks_completed 12\n" in text
        assert "repro_task_duration_count 3" in text
        assert "repro_task_duration_sum 1.5" in text
        assert "repro_task_duration_mean 0.5" in text
        assert "repro_queue_depth_heap_peak 9" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self) -> None:
        assert render_prometheus({}) == ""

    def test_name_sanitization(self) -> None:
        text = render_prometheus({"workers.w0.busy-applied s": 1})
        assert "repro_workers_w0_busy_applied_s 1" in text

    def test_metrics_server_scrape(self) -> None:
        feed = live.LiveFeed()
        bus = obs_events.EventBus(clock=lambda: 0.0)
        bus.attach_live(feed.on_event)
        bus.emit(obs_events.EV_TASK_SUBMIT, kind="explore")
        server = MetricsServer(feed.collect).start()
        try:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
            assert "repro_tasks_submitted 1" in body
            assert content_type.startswith("text/plain")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.url.replace("/metrics", "/other"), timeout=5
                )
        finally:
            server.stop()
