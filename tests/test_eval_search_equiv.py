"""End-to-end search equivalence under the batched-eval subsystem.

The eval-parity battery (``test_eval_differential.py``) pins
``batch_eval`` to the scalar evaluator element-wise; this file pins the
consequence that actually matters: turning batching or the eval cache on
— in any mode, on any backend — changes *no search outcome*.  Every root
value must equal the alpha-beta oracle's, and serial ER's principal
variation (the chosen move) must be identical across all eval modes.
Extends the ``test_tt_differential.py`` grid pattern.
"""

import pytest

from repro.core.er_parallel import parallel_er
from repro.core.serial_er import er_search
from repro.cache import CACHE_MODES
from repro.costmodel import DEFAULT_COST_MODEL
from repro.eval import Evaluator, make_eval_cache
from repro.games.base import SearchProblem
from repro.games.connect4 import ConnectFour
from repro.games.random_tree import IncrementalGameTree, RandomGameTree, SyntheticOrderedTree
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er
from repro.search.alphabeta import alphabeta


def battery_problems() -> list[tuple[str, SearchProblem]]:
    problems: list[tuple[str, SearchProblem]] = [
        (f"random-{seed}", SearchProblem(RandomGameTree(3, 5, seed=seed), depth=5))
        for seed in range(2)
    ]
    problems.append(
        ("incremental", SearchProblem(IncrementalGameTree(3, 5, seed=4, noise=0.4), depth=5))
    )
    problems.append(
        ("ordered", SearchProblem(SyntheticOrderedTree(4, 5, seed=9), depth=5))
    )
    # A real game with genuine transpositions, so cache modes get hits.
    problems.append(
        ("connect4", SearchProblem(ConnectFour(width=5, height=4), depth=4))
    )
    return problems


BATTERY = battery_problems()
IDS = [name for name, _ in BATTERY]


def oracle(problem: SearchProblem) -> float:
    return alphabeta(problem).value


def serial_evaluator(problem: SearchProblem, mode: str) -> Evaluator | None:
    """The evaluator er_search gets for one cache mode (``off`` = batch only)."""
    cache = make_eval_cache(mode)
    view = None if cache is None else cache.view(0)
    return Evaluator(problem.game, DEFAULT_COST_MODEL, view)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mode", CACHE_MODES)
    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_value_matches_oracle(self, name, problem, mode):
        truth = oracle(problem)
        result = er_search(problem, evaluator=serial_evaluator(problem, mode))
        assert result.value == truth

    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_chosen_move_identical_across_modes(self, name, problem):
        base = er_search(problem)
        for mode in CACHE_MODES:
            result = er_search(problem, evaluator=serial_evaluator(problem, mode))
            assert result.value == base.value
            assert result.pv == base.pv

    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_batching_moves_cost_not_values(self, name, problem):
        """Leaves stay counted (note_leaf), cost moves to batch primitives."""
        base = er_search(problem)
        batched = er_search(problem, evaluator=serial_evaluator(problem, "off"))
        assert batched.value == base.value
        assert batched.stats.batch_calls > 0
        assert batched.stats.leaf_evals > 0
        assert batched.stats.static_evals == 0


class TestSimEquivalence:
    @pytest.mark.parametrize("mode", CACHE_MODES)
    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_every_mode_matches_oracle(self, name, problem, mode):
        truth = oracle(problem)
        cache = make_eval_cache(mode)
        for n in (1, 2, 4):
            assert parallel_er(problem, n, eval_cache=cache, batch_eval=True).value == truth

    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_batch_only_matches_oracle(self, name, problem):
        truth = oracle(problem)
        for n in (1, 2, 4):
            assert parallel_er(problem, n, batch_eval=True).value == truth

    def test_extras_carry_cache_counters(self):
        problem = SearchProblem(RandomGameTree(3, 4, seed=2), depth=4)
        result = parallel_er(problem, 2, eval_cache=make_eval_cache("shared"))
        for key in ("eval_hits", "eval_misses", "eval_stores", "eval_evictions", "eval_contended"):
            assert key in result.extras
        assert result.stats.eval_probes > 0

    def test_transposing_game_gets_cache_hits(self):
        problem = SearchProblem(ConnectFour(width=5, height=4), depth=4)
        cache = make_eval_cache("shared")
        result = parallel_er(problem, 2, eval_cache=cache)
        assert result.stats.eval_hits > 0
        assert cache is not None and cache.hits == result.stats.eval_hits


class TestThreadedEquivalence:
    @pytest.mark.parametrize("mode", CACHE_MODES)
    @pytest.mark.parametrize(
        "name,problem",
        [BATTERY[0], BATTERY[4]],
        ids=[IDS[0], IDS[4]],
    )
    def test_every_mode_matches_oracle(self, name, problem, mode):
        truth = oracle(problem)
        cache = make_eval_cache(mode)
        for n in (1, 2, 4):
            value, _stats = threaded_er(problem, n, eval_cache=cache, batch_eval=True)
            assert value == truth


class TestMultiprocEquivalence:
    @pytest.mark.parametrize("mode", CACHE_MODES)
    def test_every_mode_matches_oracle(self, mode):
        problem = SearchProblem(RandomGameTree(4, 5, seed=13), depth=5)
        truth = oracle(problem)
        result = multiproc_er(problem, 2, eval_cache_mode=mode, batch_eval=True)
        assert result.value == truth
        assert result.stats.batch_calls > 0
        if mode != "off":
            assert result.stats.eval_probes > 0
