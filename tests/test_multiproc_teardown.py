"""A search without a caller's pool leaves nothing behind.

``multiproc_er`` builds a short-lived :class:`EnginePool` when it is not
handed one and closes it before returning — on success and when a worker
fails.  Either way no worker process may survive and no shared-memory
segment may stay in ``/dev/shm``.  This module keeps no pool of its own
alive, so "no child process" means exactly that.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import SimulationError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import multiproc_er
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
