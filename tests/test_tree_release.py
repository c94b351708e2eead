"""A finished search leaves no cyclic search tree behind.

Parent and children links make every ER tree one large reference cycle.
Each driver breaks it when its run ends, so the tree frees by refcount
the moment the driver drops it, instead of lingering until a full
cyclic collection.  The check: with automatic collection off, run one
search, then collect with ``gc.DEBUG_SAVEALL``; the unreachable objects
it saves must hold no tree node and no position.
"""

from __future__ import annotations

import gc
from concurrent.futures import Future

import pytest

from repro.core.er_parallel import ERConfig, PNode, parallel_er
from repro.errors import SimulationError
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er
from repro.workloads.suite import table3_suite


def _cyclic_leftovers(run, position_type) -> list:
    """Tree nodes and positions that only a cyclic collection frees
    after ``run()``."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, (PNode, position_type))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("tree", ["O3", "R3"])
@pytest.mark.parametrize("backend", ["multiproc", "simulated", "threaded"])
def test_finished_search_leaves_no_cyclic_tree(engine_pools, backend, tree):
    spec = table3_suite("reduced")[tree]
    problem = spec.problem()
    config = ERConfig(serial_depth=spec.serial_depth)
    runs = {
        "multiproc": lambda: multiproc_er(problem, 2, config=config, pool=engine_pools(2)),
        "simulated": lambda: parallel_er(problem, 2, config=config),
        "threaded": lambda: threaded_er(problem, 2, config=config),
    }
    assert _cyclic_leftovers(runs[backend], type(problem.game.root())) == []


class _FailingExecutor:
    """Every task fails, as if its worker process had died."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(RuntimeError("worker died"))
        return future

    def wait(self, futures, timeout=None):
        return [future for future in futures if future.done()]


class _FailingPool:
    n_workers = 1
    trace_mode = "off"
    shared_tt = None
    shared_eval = None
    executor = _FailingExecutor()


def test_failed_search_frees_its_tree():
    spec = table3_suite("reduced")["O3"]
    problem = spec.problem()
    raised = []

    def run():
        try:
            multiproc_er(
                problem, 1, config=ERConfig(serial_depth=2), pool=_FailingPool()
            )
        except SimulationError as error:
            raised.append(str(error))

    assert _cyclic_leftovers(run, type(problem.game.root())) == []
    assert raised and "worker process failed" in raised[0]
