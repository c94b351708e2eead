"""Soak battery: thousands of requests, then prove nothing leaked.

Two layers.  The bulk pass drives the scheduler alone with the fake
engine from the property battery — thousands of mixed-priority,
mixed-deadline requests against a tiny queue, checking the conservation
laws hold at volume (submitted == completed + shed, shed == rejected +
evicted) and that every future resolves.  The real-pool pass runs a
full service with worker processes and a deliberately small span ring,
then audits the process after shutdown: no surviving worker processes,
no new shared-memory segments, file descriptors back to baseline, and
the SpanRing's drop counter exactly accounting for the overflow.

Marked slow; deselect with ``-m "not slow"``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random

import pytest

import test_serve_scheduler as sched_fakes
from conftest import shm_names, wait_for_no_children
from repro.serve import (
    STATUS_OK,
    STATUS_SHED,
    SearchRequest,
    SearchService,
    ServeConfig,
)
from repro.serve.api import PRIORITIES
from repro.serve.scheduler import RequestScheduler

pytestmark = pytest.mark.slow

BULK_REQUESTS = 3000
SERVICE_REQUESTS = 300
SPAN_CAPACITY = 64


def test_bulk_conservation_under_pressure() -> None:
    """Thousands of requests against a tiny queue: the books balance."""
    rng = random.Random(2026)
    clock = sched_fakes.FakeClock()
    engine = sched_fakes.FakeEngine(clock)
    scheduler = RequestScheduler(
        engine, max_concurrency=4, queue_limit=8, clock=clock
    )

    async def scenario() -> list:
        futures = []
        for i in range(BULK_REQUESTS):
            request = SearchRequest(
                request_id=f"s{i:06d}",
                workload="fake",
                max_depth=rng.randint(1, 4),
                deadline_s=rng.choice((None, 0.5, 2.0, 5.0)),
                priority=rng.choice(PRIORITIES),
            )
            futures.append(scheduler.submit_nowait(request))
            if i % 7 == 0:
                await asyncio.sleep(0)  # interleave with the pump
        await scheduler.drain()
        return [await f for f in futures]

    replies = asyncio.run(scenario())

    assert len(replies) == BULK_REQUESTS
    assert len({r.request_id for r in replies}) == BULK_REQUESTS
    counters = scheduler.counters
    assert counters["submitted"] == BULK_REQUESTS
    assert counters["completed"] == sum(
        1 for r in replies if r.status == STATUS_OK
    )
    assert counters["shed"] == sum(1 for r in replies if r.status == STATUS_SHED)
    assert counters["completed"] + counters["shed"] == BULK_REQUESTS
    assert counters["shed"] == counters["rejected"] + counters["evicted"]
    assert counters["shed"] > 0, "a queue of 8 must shed at this volume"
    assert scheduler.conservation_problems() == []
    assert scheduler.in_flight == 0


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


async def _service_pass(n_requests: int) -> SearchService:
    config = ServeConfig(
        n_workers=2,
        max_concurrency=4,
        queue_limit=6,
        tt_mode="shared",
        eval_cache_mode="shared",
        span_capacity=SPAN_CAPACITY,
    )
    rng = random.Random(11)
    service = await SearchService(config).start()
    try:
        names = sorted(service.catalog)
        requests = [
            SearchRequest(
                request_id=f"k{i:06d}",
                workload=names[i % len(names)],
                max_depth=2,
                priority=rng.choice(PRIORITIES),
            )
            for i in range(n_requests)
        ]
        replies = await asyncio.gather(*(service.handle(r) for r in requests))
        assert {r.status for r in replies} <= {STATUS_OK, STATUS_SHED}
        assert sum(1 for r in replies if r.status == STATUS_OK) > 0
    finally:
        await service.shutdown()
    return service


def test_service_soak_leaves_no_residue() -> None:
    """Real workers, shared tables, tight ring — clean process afterward.

    A throwaway warm-up pass runs first so one-time global machinery
    (the multiprocessing resource tracker and its pipe, import caches)
    exists before the baseline snapshot; the audited pass must then
    return the process to that baseline.
    """
    asyncio.run(_service_pass(4))  # warm-up: spawn tracker, prime imports
    assert wait_for_no_children() == []
    gc.collect()

    fd_before = _fd_count()
    shm_before = shm_names()

    service = asyncio.run(_service_pass(SERVICE_REQUESTS))

    # Worker processes are gone.
    leftover = wait_for_no_children()
    assert leftover == [], f"leaked worker processes: {leftover}"

    # Shared-memory segments were unlinked.
    gc.collect()
    leaked_shm = shm_names() - shm_before
    assert leaked_shm == set(), f"leaked shm segments: {leaked_shm}"

    # File descriptors returned to baseline (small slack for the
    # garbage collector's timing on freshly dropped sockets).
    gc.collect()
    fd_after = _fd_count()
    assert fd_after <= fd_before + 2, (
        f"fd leak: {fd_before} before, {fd_after} after"
    )

    # Scheduler books balance at volume on the real path too.
    assert service.scheduler is not None
    counters = service.scheduler.counters
    assert counters["submitted"] == SERVICE_REQUESTS
    assert counters["completed"] + counters["shed"] == SERVICE_REQUESTS
    assert counters["shed"] == counters["rejected"] + counters["evicted"]
    assert service.scheduler.conservation_problems() == []

    # The pool's final counters survived close() for post-mortems.
    assert service.final_counters.get("tasks_completed", 0) > 0

    # SpanRing drop accounting: lifetime total == capacity-bounded
    # retained spans + dropped, and the overflow is exactly accounted.
    ring = service.ring
    assert ring.recorded > SPAN_CAPACITY, "soak must overflow the ring"
    assert ring.dropped == ring.recorded - SPAN_CAPACITY
    snapshot = service.stats_snapshot()
    assert snapshot["spans_recorded"] == ring.recorded
    assert snapshot["spans_dropped"] == ring.dropped