"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest
from hypothesis import HealthCheck, settings

from repro.games.base import SearchProblem
from repro.games.explicit import ExplicitTree
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import EnginePool
from repro.search.negamax import negamax

# One moderate default profile: deterministic, no deadline (search code has
# highly variable per-example cost), modest example counts for CI speed.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


def explicit_problem(spec) -> SearchProblem:
    """An ExplicitTree search problem covering its full height."""
    game = ExplicitTree(spec)
    return SearchProblem(game=game, depth=game.height)


def random_problem(degree: int, height: int, seed: int) -> SearchProblem:
    return SearchProblem(RandomGameTree(degree, height, seed=seed), depth=height)


def ground_truth(problem: SearchProblem) -> float:
    return negamax(problem).value


@pytest.fixture
def small_random_problems() -> list[SearchProblem]:
    """A bundle of small trees with varied degree/height/seed."""
    problems = []
    for degree, height in ((2, 4), (3, 4), (4, 3), (2, 6), (5, 3)):
        for seed in (0, 1):
            problems.append(random_problem(degree, height, seed))
    return problems


@pytest.fixture(scope="module")
def engine_pools():
    """``engine_pools(n)``: one cache-free :class:`EnginePool` of ``n``
    workers per size, built on first use and closed at module teardown.

    Module-scoped, not session-scoped, so no pool outlives its test
    module — the process and segment leak audits need a quiet process.
    """
    pools: dict[int, EnginePool] = {}

    def get(n_workers: int) -> EnginePool:
        if n_workers not in pools:
            pools[n_workers] = EnginePool(n_workers, tt_mode="off")
        return pools[n_workers]

    yield get
    for pool in pools.values():
        pool.close()


def shm_names() -> set:
    """Names currently in ``/dev/shm`` (empty where it does not exist)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def wait_for_no_children(timeout_s: float = 10.0) -> list:
    """Join pool workers; returns whatever is still alive after timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()
