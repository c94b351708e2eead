"""Tests for the multiprocess backend's task channel.

:class:`~repro.parallel.channel.TaskChannel` starts its workers up
front, feeds them from one task pipe and resolves futures in whichever
thread waits; it starts no thread in this process.  Every channel and
pool built here is closed by its test.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
import threading
import time

import pytest

from repro.core.er_parallel import ERConfig
from repro.errors import SimulationError
from repro.parallel.channel import IN_FLIGHT_PER_WORKER, TaskChannel
from repro.parallel.multiproc import (
    EnginePool,
    _init_worker,
    multiproc_er,
    preferred_start_method,
)
from repro.search.negamax import negamax

from conftest import random_problem

#: ``_init_worker`` arguments for a worker with no caches and no tracing.
CACHE_FREE = (("off",), ("off", False))


def _channel(n_workers: int, method: str = preferred_start_method()) -> TaskChannel:
    context = multiprocessing.get_context(method)
    return TaskChannel(n_workers, context, initializer=_init_worker, initargs=CACHE_FREE)


def test_fresh_pool_has_live_initialised_workers_before_any_submit():
    before = set(multiprocessing.active_children())
    with EnginePool(2, tt_mode="off") as pool:
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        assert all(worker.is_alive() for worker in workers)
        # Each pid arrived in a ready message sent after _init_worker ran.
        assert sorted(pool.executor.pids) == sorted(worker.pid for worker in workers)


def test_initializer_failure_raises_from_the_constructor():
    before = set(multiprocessing.active_children())
    context = multiprocessing.get_context(preferred_start_method())
    with pytest.raises(SimulationError, match="initializer failed.*division by zero"):
        TaskChannel(2, context, initializer=operator.truediv, initargs=(1, 0))
    assert set(multiprocessing.active_children()) - before == set()


def test_task_exception_reaches_its_future_with_the_original_message():
    channel = _channel(2)
    try:
        future = channel.submit(operator.truediv, 1, 0)
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            future.result(timeout=30)
        assert channel.submit(operator.add, 2, 3).result(timeout=30) == 5
    finally:
        channel.close()


def test_backlog_keeps_the_pipe_within_the_in_flight_bound():
    n_workers = 2
    bound = IN_FLIGHT_PER_WORKER * n_workers
    channel = _channel(n_workers)
    try:
        futures = [channel.submit(time.sleep, 0.005) for _ in range(10 * n_workers)]
        assert channel.in_flight == bound
        assert channel.backlog == len(futures) - bound
        pending = set(futures)
        while pending:
            done = channel.wait(pending, 30)
            assert done, "no task completed"
            assert channel.in_flight <= bound
            pending.difference_update(done)
        assert [future.result() for future in futures] == [None] * len(futures)
        assert channel.in_flight == channel.backlog == 0
    finally:
        channel.close()


def test_cancelled_backlog_future_never_runs(tmp_path):
    n_workers = 1
    channel = _channel(n_workers)
    marker = tmp_path / "ran"
    try:
        busy = [channel.submit(time.sleep, 0.05) for _ in range(IN_FLIGHT_PER_WORKER)]
        held = channel.submit(os.mkdir, str(marker))
        assert channel.backlog == 1
        assert held.cancel()
        after = channel.submit(os.getpid)
        assert after.result(timeout=30) in channel.pids
        assert all(future.done() for future in busy)
        assert held.cancelled()
        assert not marker.exists()
    finally:
        channel.close()


def test_unwaited_result_is_read_by_the_next_wait():
    # One worker runs tasks in submission order, so the orphan's result
    # is in the pipe ahead of the probe's.
    channel = _channel(1)
    try:
        orphan = channel.submit(os.getpid)
        probe = channel.submit(operator.add, 1, 1)
        assert channel.wait([probe], 30) == [probe]
        assert orphan.done() and orphan.result() in channel.pids
        assert channel.in_flight == 0
    finally:
        channel.close()


def test_round_trip_under_spawn():
    channel = _channel(1, "spawn")
    try:
        pid = channel.submit(os.getpid).result(timeout=60)
        assert pid in channel.pids and pid != os.getpid()
    finally:
        channel.close()


def test_worker_exit_fails_outstanding_futures_and_later_submits():
    channel = _channel(1)
    try:
        doomed = channel.submit(os._exit, 3)
        queued = channel.submit(os.getpid)
        with pytest.raises(SimulationError, match="exited with code 3"):
            doomed.result(timeout=30)
        assert isinstance(queued.exception(timeout=0), SimulationError)
        with pytest.raises(SimulationError, match="broken"):
            channel.submit(os.getpid)
    finally:
        channel.close()
    assert not {child.pid for child in multiprocessing.active_children()} & set(channel.pids)


def test_search_on_a_persistent_pool_starts_no_thread():
    before = set(threading.enumerate())
    problem = random_problem(3, 4, seed=2)
    with EnginePool(2, tt_mode="off") as pool:
        result = multiproc_er(problem, 2, config=ERConfig(serial_depth=2), pool=pool)
        assert result.value == negamax(problem).value
        assert result.extras["tasks_submitted"] > 0
        assert set(threading.enumerate()) - before == set()
