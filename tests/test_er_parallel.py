"""Tests for parallel ER: correctness, protocol invariants, mechanisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.er_queues import SpecOrder
from repro.core.serial_er import er_search
from repro.costmodel import DEFAULT_COST_MODEL, FRICTIONLESS_COST_MODEL
from repro.errors import SearchError, SimulationError
from repro.games.base import SearchProblem, hash_key
from repro.games.explicit import negmax_of_spec
from repro.games.othello import O1_ROOT, Othello
from repro.games.random_tree import RandomGameTree, SyntheticOrderedTree
from repro.games.tictactoe import TicTacToe
from repro.search.negamax import negamax

from conftest import explicit_problem, random_problem

leaf = st.integers(min_value=-50, max_value=50)
tree_spec = st.recursive(leaf, lambda child: st.lists(child, min_size=1, max_size=3), max_leaves=20)


class TestCorrectness:
    @given(tree_spec, st.integers(1, 6))
    @settings(max_examples=30)
    def test_equals_negamax_on_explicit_trees(self, spec, n_processors):
        result = parallel_er(explicit_problem(spec), n_processors)
        assert result.value == negmax_of_spec(spec)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_random_trees_all_processor_counts(self, n):
        for seed in range(4):
            problem = random_problem(3, 5, seed)
            truth = negamax(problem).value
            assert parallel_er(problem, n).value == truth

    @pytest.mark.parametrize("serial_depth", [0, 1, 2, 3, 4, 5, 100])
    def test_serial_cutover_everywhere(self, serial_depth):
        problem = random_problem(3, 5, seed=2)
        truth = negamax(problem).value
        config = ERConfig(serial_depth=serial_depth)
        for n in (1, 4):
            assert parallel_er(problem, n, config=config).value == truth

    @pytest.mark.parametrize(
        "flags",
        [
            dict(parallel_refutation=False),
            dict(early_choice=False),
            dict(multiple_e_children=False),
            dict(deep_cutoff_checks=False),
            dict(parallel_refutation=False, early_choice=False, multiple_e_children=False),
            dict(max_e_children=1),
        ],
    )
    def test_mechanism_ablations_stay_correct(self, flags):
        problem = random_problem(4, 4, seed=3)
        truth = negamax(problem).value
        config = ERConfig(serial_depth=2, **flags)
        for n in (1, 3, 9):
            assert parallel_er(problem, n, config=config).value == truth

    @pytest.mark.parametrize("order", list(SpecOrder))
    def test_spec_orderings_stay_correct(self, order):
        problem = random_problem(3, 5, seed=5)
        truth = negamax(problem).value
        config = ERConfig(serial_depth=2, spec_order=order)
        assert parallel_er(problem, 6, config=config).value == truth

    def test_ordered_trees_random_placement(self):
        for seed in range(3):
            tree = SyntheticOrderedTree(3, 5, seed=seed, best_child="random")
            problem = SearchProblem(tree, depth=5)
            result = parallel_er(problem, 4, config=ERConfig(serial_depth=3))
            assert result.value == float(tree.root_value)

    def test_tictactoe(self):
        problem = SearchProblem(TicTacToe(), depth=5)
        truth = negamax(problem).value
        assert parallel_er(problem, 6, config=ERConfig(serial_depth=2)).value == truth

    def test_othello_shallow(self):
        problem = SearchProblem(Othello(O1_ROOT), depth=3, sort_below_root=2)
        truth = negamax(problem).value
        assert parallel_er(problem, 4, config=ERConfig(serial_depth=2)).value == truth

    def test_single_leaf_tree(self):
        assert parallel_er(explicit_problem(13), 4).value == 13.0

    def test_depth_zero(self):
        problem = SearchProblem(RandomGameTree(3, 4, seed=0), depth=0)
        value = parallel_er(problem, 2).value
        assert value == problem.game.evaluate(problem.game.root())

    def test_frictionless_cost_model(self):
        problem = random_problem(3, 4, seed=1)
        truth = negamax(problem).value
        result = parallel_er(problem, 4, cost_model=FRICTIONLESS_COST_MODEL)
        assert result.value == truth
        assert result.report.interference_fraction() == 0.0


class TestValidation:
    def test_rejects_zero_processors(self):
        with pytest.raises(SearchError):
            parallel_er(explicit_problem([1, 2]), 0)

    def test_rejects_bad_config(self):
        with pytest.raises(SearchError):
            ERConfig(serial_depth=-1)
        with pytest.raises(SearchError):
            ERConfig(chunk_units=0)
        with pytest.raises(SearchError):
            ERConfig(max_e_children=0)

    def test_event_budget_enforced(self):
        problem = random_problem(4, 5, seed=0)
        with pytest.raises(SimulationError):
            parallel_er(problem, 4, config=ERConfig(max_events=50))


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        problem = random_problem(3, 5, seed=9)
        a = parallel_er(problem, 7, config=ERConfig(serial_depth=3))
        b = parallel_er(problem, 7, config=ERConfig(serial_depth=3))
        assert a.sim_time == b.sim_time
        assert a.stats.nodes_generated == b.stats.nodes_generated
        assert a.extras == b.extras


class TestMechanisms:
    def test_speculation_reduces_starvation(self):
        """The paper's central claim: with speculative work enabled,
        many processors stay busy; without it they starve."""
        problem = random_problem(4, 6, seed=101)
        on = parallel_er(problem, 16, config=ERConfig(serial_depth=4))
        off = parallel_er(
            problem,
            16,
            config=ERConfig(serial_depth=4, early_choice=False, multiple_e_children=False),
        )
        assert on.report.starvation_fraction() < off.report.starvation_fraction()
        assert on.sim_time < off.sim_time

    def test_speculation_costs_nodes(self):
        problem = random_problem(4, 6, seed=101)
        on = parallel_er(problem, 16, config=ERConfig(serial_depth=4))
        off = parallel_er(
            problem,
            16,
            config=ERConfig(serial_depth=4, early_choice=False, multiple_e_children=False),
        )
        assert on.stats.nodes_generated >= off.stats.nodes_generated

    def test_one_processor_close_to_serial(self):
        """A single simulated processor must not blow up relative to
        serial ER (modest scheduling overhead only)."""
        problem = random_problem(4, 6, seed=42)
        serial = er_search(problem)
        par = parallel_er(problem, 1, config=ERConfig(serial_depth=4))
        assert par.sim_time <= serial.cost * 1.6

    def test_speedup_with_more_processors(self):
        problem = random_problem(4, 7, seed=77)
        config = ERConfig(serial_depth=4)
        t1 = parallel_er(problem, 1, config=config).sim_time
        t8 = parallel_er(problem, 8, config=config).sim_time
        assert t8 < t1 / 2  # at least 2x speedup from 8 processors

    def test_counters_populated(self):
        problem = random_problem(3, 5, seed=1)
        result = parallel_er(problem, 4, config=ERConfig(serial_depth=3))
        assert result.extras["serial_searches"] > 0
        assert result.extras["pops_primary"] > 0

    def test_trace_enabled_collects_paths(self):
        problem = random_problem(3, 4, seed=1)
        result = parallel_er(problem, 2, config=ERConfig(serial_depth=2), trace=True)
        assert result.stats.trace is not None
        keys = {key for key, _ in result.stats.trace}
        assert hash_key(problem.game, problem.game.root()) in keys
        # Some horizon leaf (ply 4) was evaluated: a static_eval-priced entry.
        assert any(cost == DEFAULT_COST_MODEL.static_eval for _, cost in result.stats.trace)

    def test_interference_grows_with_processors(self):
        """Lock contention is a real, measured phenomenon (Section 7)."""
        problem = random_problem(4, 6, seed=55)
        config = ERConfig(serial_depth=5)
        few = parallel_er(problem, 2, config=config)
        many = parallel_er(problem, 16, config=config)
        assert many.report.total_lock_wait >= few.report.total_lock_wait
