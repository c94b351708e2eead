"""A search without a caller's pool leaves nothing behind.

``multiproc_er`` builds a short-lived :class:`EnginePool` when it is not
handed one and closes it before returning — on success, when a worker's
task raises, and when a worker is killed.  Either way no worker process
may survive and no shared-memory segment may stay in ``/dev/shm``.  The
tests here close every pool they build before they return, so "no
child process" means exactly that.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import SimulationError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import EnginePool, multiproc_er
from repro.search.negamax import negamax

from conftest import shm_names, wait_for_no_children


class WorkerFaultTree(RandomGameTree):
    """A random tree whose evaluators raise in any process but the one
    that built it, so the coordinator runs and every worker task fails.

    Module-level, so it pickles into the workers under any start method.
    """

    def __init__(self, degree: int, height: int, seed: int = 0) -> None:
        super().__init__(degree, height, seed=seed)
        self.home_pid = os.getpid()

    def _fail_in_worker(self) -> None:
        if os.getpid() != self.home_pid:
            raise RuntimeError("injected worker fault")

    def evaluate(self, position):
        self._fail_in_worker()
        return super().evaluate(position)

    def batch_eval(self, positions):
        self._fail_in_worker()
        return super().batch_eval(positions)


class WorkerKillTree(WorkerFaultTree):
    """A random tree whose evaluators SIGKILL any process but the one that
    built it: the first worker task kills its worker outright."""

    def _fail_in_worker(self) -> None:
        if os.getpid() != self.home_pid:
            os.kill(os.getpid(), signal.SIGKILL)


def _quiet_shm() -> set:
    """``/dev/shm`` names once no worker process is alive."""
    assert wait_for_no_children() == []
    return shm_names()


def _assert_no_residue(shm_before: set) -> None:
    assert wait_for_no_children() == [], "short-lived pool left workers alive"
    assert shm_names() - shm_before == set(), "short-lived pool left shm segments"


def test_clean_run_tears_down_pool_and_segments():
    shm_before = _quiet_shm()
    problem = SearchProblem(RandomGameTree(3, 5, seed=4), depth=5)
    result = multiproc_er(problem, 2, tt_mode="shared", eval_cache_mode="shared")
    assert result.value == negamax(problem).value
    assert result.extras["tasks_submitted"] > 0
    _assert_no_residue(shm_before)


def test_worker_failure_tears_down_pool_and_segments():
    shm_before = _quiet_shm()
    problem = SearchProblem(WorkerFaultTree(3, 5, seed=4), depth=5)
    with pytest.raises(SimulationError, match="worker process failed"):
        multiproc_er(problem, 2, tt_mode="shared", eval_cache_mode="shared")
    _assert_no_residue(shm_before)


def test_killed_worker_fails_the_search_fast_and_tears_down():
    shm_before = _quiet_shm()
    problem = SearchProblem(WorkerKillTree(3, 5, seed=4), depth=5)
    start = time.monotonic()
    with pytest.raises(SimulationError, match="worker process failed.*exited with code -9"):
        multiproc_er(
            problem, 2, timeout=300.0, tt_mode="shared", eval_cache_mode="shared"
        )
    # The channel watches worker sentinels: no wait for the task timeout.
    assert time.monotonic() - start < 20.0
    _assert_no_residue(shm_before)


def test_persistent_pool_refuses_work_after_a_worker_died():
    shm_before = _quiet_shm()
    pool = EnginePool(2, tt_mode="shared")
    try:
        killer = SearchProblem(WorkerKillTree(3, 5, seed=4), depth=5)
        with pytest.raises(SimulationError, match="worker process failed"):
            multiproc_er(killer, 2, pool=pool)
        healthy = SearchProblem(RandomGameTree(3, 3, seed=1), depth=3)
        with pytest.raises(SimulationError, match="broken"):
            pool.submit_eval(healthy)
    finally:
        pool.close()
    _assert_no_residue(shm_before)
