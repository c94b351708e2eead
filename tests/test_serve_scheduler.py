"""Property battery for the service request scheduler, engine faked out.

The scheduler's contract (exactly-once resolution, priority-aware
shedding with FIFO fairness inside a class, anytime deadlines honored
within one deepening iteration, drain-without-drops) is pinned here
with Hypothesis driving randomized request batches against a fake
deterministic engine and an injected clock — no worker processes, no
wall-clock flakiness.  One battery also runs under the repo's race
detector, covering the ServeMetrics lock discipline the Prometheus
scrape thread relies on.
"""

from __future__ import annotations

import asyncio
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.serve.api import (
    PRIORITIES,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    STATUS_OK,
    STATUS_SHED,
    SearchRequest,
)
from repro.serve.scheduler import IterationResult, RequestScheduler
from repro.verify import trace as _trace
from repro.verify.racedetect import analyze

ITERATION_COST = 1.0


class FakeClock:
    """Deterministic monotonic clock the fake engine advances."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeEngine:
    """Costs ``ITERATION_COST`` clock units per iteration; logs the order."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock
        self.started: list[str] = []  # request_id at first-iteration start
        self.iterations = 0

    def answer_from_table(
        self, request: SearchRequest, depth: int, resolved: object = None
    ) -> Optional[IterationResult]:
        return None

    async def run_iteration(
        self, request: SearchRequest, depth: int, resolved: object = None
    ) -> IterationResult:
        if depth == 1:
            self.started.append(request.request_id)
        self.iterations += 1
        self.clock.advance(ITERATION_COST)
        await asyncio.sleep(0)  # real suspension point, like a pool await
        return IterationResult(
            move_index=0, value=float(depth), per_move_values=(float(depth),)
        )


def make_request(
    index: int,
    priority: int,
    max_depth: int = 2,
    deadline_s: Optional[float] = None,
) -> SearchRequest:
    return SearchRequest(
        request_id=f"r{index:04d}",
        workload="fake",
        max_depth=max_depth,
        deadline_s=deadline_s,
        priority=priority,
    )


request_batches = st.lists(
    st.tuples(
        st.sampled_from(PRIORITIES),
        st.integers(min_value=1, max_value=4),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=6.0)),
    ),
    min_size=1,
    max_size=25,
)


def run_batch(
    batch: list[tuple[int, int, Optional[float]]],
    *,
    max_concurrency: int = 2,
    queue_limit: int = 4,
) -> tuple[RequestScheduler, FakeEngine, list]:
    """Submit a whole batch at once, drain, return every reply."""
    clock = FakeClock()
    engine = FakeEngine(clock)
    scheduler = RequestScheduler(
        engine,
        max_concurrency=max_concurrency,
        queue_limit=queue_limit,
        clock=clock,
    )

    async def scenario() -> list:
        futures = [
            scheduler.submit_nowait(make_request(i, prio, depth, deadline))
            for i, (prio, depth, deadline) in enumerate(batch)
        ]
        await scheduler.drain()
        return [await f for f in futures]

    replies = asyncio.run(scenario())
    return scheduler, engine, replies


@given(request_batches)
def test_exactly_once_resolution(batch) -> None:
    """Every submission resolves exactly once and the books balance."""
    scheduler, _, replies = run_batch(batch)
    assert len(replies) == len(batch)
    assert [r.request_id for r in replies] == [f"r{i:04d}" for i in range(len(batch))]
    for reply in replies:
        assert reply.status in (STATUS_OK, STATUS_SHED)
    assert scheduler.conservation_problems() == []
    assert scheduler.in_flight == 0
    counters = scheduler.counters
    assert counters["submitted"] == len(batch)
    assert counters["completed"] == sum(1 for r in replies if r.status == STATUS_OK)
    assert counters["shed"] == sum(1 for r in replies if r.status == STATUS_SHED)


@given(request_batches)
def test_deadline_within_one_iteration(batch) -> None:
    """An expired deadline stops deepening within one iteration's cost.

    The gate runs after every completed iteration, so the last
    iteration must have *started* before the deadline: total latency is
    strictly below deadline + one iteration.  The first iteration
    always runs — an admitted request is never answered without a move.
    """
    scheduler, _, replies = run_batch(batch, max_concurrency=1)
    for reply, (_, max_depth, deadline) in zip(replies, batch):
        if reply.status != STATUS_OK:
            continue
        assert reply.depth_reached >= 1
        assert reply.move_index == 0
        if reply.anytime:
            assert deadline is not None
            assert reply.depth_reached < max_depth
            # Either the gate stopped us within one iteration of the
            # deadline, or the deadline was already gone when we left
            # the queue and only the mandatory first iteration ran.
            bound = max(deadline, reply.queue_wait_s) + ITERATION_COST
            assert reply.latency_s <= bound + 1e-9
            if reply.queue_wait_s + ITERATION_COST < deadline:
                assert reply.depth_reached > 1
        else:
            assert reply.depth_reached == max_depth
    assert scheduler.conservation_problems() == []


@given(request_batches)
def test_fifo_within_priority_class(batch) -> None:
    """Requests of equal priority start in submission order."""
    _, engine, replies = run_batch(batch, max_concurrency=1)
    ran = {r.request_id for r in replies if r.status == STATUS_OK}
    for priority in PRIORITIES:
        ids_of_class = [
            f"r{i:04d}"
            for i, (prio, _, _) in enumerate(batch)
            if prio == priority and f"r{i:04d}" in ran
        ]
        started_of_class = [rid for rid in engine.started if rid in set(ids_of_class)]
        assert started_of_class == sorted(started_of_class), (
            f"priority {priority} executed out of FIFO order: {started_of_class}"
        )


@given(request_batches)
def test_drain_completes_every_admitted_request(batch) -> None:
    """Drain never drops admitted work; post-drain arrivals shed."""
    clock = FakeClock()
    engine = FakeEngine(clock)
    scheduler = RequestScheduler(
        engine, max_concurrency=2, queue_limit=len(batch) + 1, clock=clock
    )

    async def scenario():
        futures = [
            scheduler.submit_nowait(make_request(i, prio, depth, deadline))
            for i, (prio, depth, deadline) in enumerate(batch)
        ]
        await scheduler.drain()
        late = await scheduler.submit(make_request(9999, PRIORITY_HIGH))
        return [await f for f in futures], late

    replies, late = asyncio.run(scenario())
    # Queue limit exceeds the batch: everything was admitted, so drain
    # must complete it all — no shedding of admitted work.
    assert all(r.status == STATUS_OK for r in replies)
    assert scheduler.counters["admitted"] == len(batch)
    assert late.status == STATUS_SHED and late.detail == "shutdown"
    assert scheduler.conservation_problems() == []


def test_overload_sheds_lowest_class_newest_first() -> None:
    """Eviction picks the newest waiter of the lowest outranked class."""
    clock = FakeClock()
    engine = FakeEngine(clock)
    scheduler = RequestScheduler(
        engine, max_concurrency=1, queue_limit=2, clock=clock
    )

    async def scenario():
        # One running (r0), two queued low-priority (r1, r2) fill the queue.
        futures = [
            scheduler.submit_nowait(make_request(i, PRIORITY_LOW)) for i in range(3)
        ]
        # A low arrival cannot evict its own class: rejected outright.
        rejected = scheduler.submit_nowait(make_request(3, PRIORITY_LOW))
        # A high arrival evicts the NEWEST queued low request (r2), not r1.
        futures.append(scheduler.submit_nowait(make_request(4, PRIORITY_HIGH)))
        await scheduler.drain()
        return [await f for f in futures], await rejected

    replies, rejected = asyncio.run(scenario())
    by_id = {r.request_id: r for r in replies}
    assert rejected.status == STATUS_SHED and rejected.detail == "rejected"
    assert by_id["r0002"].status == STATUS_SHED and by_id["r0002"].detail == "evicted"
    assert by_id["r0001"].status == STATUS_OK, "older waiter must survive eviction"
    assert by_id["r0004"].status == STATUS_OK
    assert scheduler.counters["evicted"] == 1
    assert scheduler.counters["rejected"] == 1
    assert scheduler.conservation_problems() == []


def test_queue_limit_zero_still_runs_when_slots_free() -> None:
    """queue_limit=0 means no waiting room, not no service."""
    clock = FakeClock()
    engine = FakeEngine(clock)
    scheduler = RequestScheduler(
        engine, max_concurrency=2, queue_limit=0, clock=clock
    )

    async def scenario():
        first = scheduler.submit_nowait(make_request(0, PRIORITY_LOW))
        await scheduler.drain()
        return await first

    reply = asyncio.run(scenario())
    assert reply.status == STATUS_OK


def test_scheduler_metrics_trace_is_race_clean() -> None:
    """The ServeMetrics lock discipline passes the race detector."""
    with _trace.tracing() as recorder:
        scheduler, _, replies = run_batch(
            [(PRIORITY_LOW, 2, None), (PRIORITY_HIGH, 3, 1.5), (PRIORITY_LOW, 1, None)] * 4,
            max_concurrency=2,
            queue_limit=3,
        )
    assert scheduler.conservation_problems() == []
    report = analyze(recorder.events)
    assert report.ok, report.summary()
    # Every metrics access happened under the serve-metrics lock.
    accesses = [ev for ev in recorder.events if ev.kind in (_trace.READ, _trace.WRITE)]
    assert accesses, "expected instrumented metric accesses"
    acquires = sum(1 for ev in recorder.events if ev.kind == _trace.ACQUIRE)
    assert acquires >= len(replies)


def test_counters_mirror_metrics_registry() -> None:
    """The registry's serve.* counters agree with the plain dict."""
    scheduler, _, _ = run_batch([(PRIORITY_LOW, 2, None)] * 6)
    collected = scheduler.metrics.collect()
    for name, count in scheduler.counters.items():
        if count:
            assert collected[f"serve.requests.{name}"] == pytest.approx(float(count))