"""Unit tests for the negmax procedure (paper Section 2)."""

from repro.costmodel import CostModel
from repro.games.base import SearchProblem, hash_key
from repro.games.explicit import ExplicitTree, negmax_of_spec
from repro.games.random_tree import RandomGameTree
from repro.search.negamax import negamax
from repro.search.stats import SearchStats

from conftest import explicit_problem


class TestValues:
    def test_single_leaf(self):
        assert negamax(explicit_problem(5)).value == 5.0

    def test_one_level(self):
        # Parent takes max of negated children.
        assert negamax(explicit_problem([3, -1, 2])).value == 1.0

    def test_two_levels(self):
        spec = [[4, 2], [6, 8]]
        assert negamax(explicit_problem(spec)).value == negmax_of_spec(spec)

    def test_deep_alternation(self):
        spec = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        assert negamax(explicit_problem(spec)).value == negmax_of_spec(spec)

    def test_asymmetric_tree(self):
        spec = [5, [1, [2, 3]], [[4]]]
        assert negamax(explicit_problem(spec)).value == negmax_of_spec(spec)


class TestPrincipalVariation:
    def test_pv_reaches_optimal_leaf(self):
        spec = [[9, 1], [7, 3]]
        result = negamax(explicit_problem(spec))
        game = ExplicitTree(spec)
        # Following the PV must land on a leaf worth the root value
        # (sign-adjusted by depth parity).
        position = game.root()
        for move in result.pv:
            position = game.children(position)[move]
        leaf = game.evaluate(position)
        sign = -1 if len(result.pv) % 2 else 1
        assert sign * leaf == result.value

    def test_pv_length_equals_height(self):
        problem = explicit_problem([[1, 2], [3, 4]])
        assert len(negamax(problem).pv) == 2


class TestHorizon:
    def test_depth_zero_evaluates_root(self):
        game = ExplicitTree([[1, 2], [3, 4]])
        problem = SearchProblem(game=game, depth=0)
        # With a perfect interior evaluator the root static value is negmax.
        assert negamax(problem).value == negmax_of_spec([[1, 2], [3, 4]])

    def test_truncated_search_uses_static_values(self):
        game = ExplicitTree([[10, 20], [30, 40]])
        problem = SearchProblem(game=game, depth=1)
        # Children statics (perfect) are -10 and -30; root = max(10, 30).
        assert negamax(problem).value == 30.0


class TestAccounting:
    def test_full_tree_leaf_count(self):
        problem = SearchProblem(RandomGameTree(3, 4, seed=0), depth=4)
        result = negamax(problem)
        assert result.stats.leaf_evals == 3**4
        assert result.stats.interior_visits == 1 + 3 + 9 + 27
        assert result.stats.nodes_generated == 3 + 9 + 27 + 81

    def test_cost_model_charged(self):
        model = CostModel(expand_base=0, expand_per_child=0, static_eval=1.0)
        problem = SearchProblem(RandomGameTree(2, 3, seed=0), depth=3)
        result = negamax(problem, cost_model=model)
        assert result.stats.cost == 8.0  # one unit per leaf

    def test_external_stats_accumulate(self):
        stats = SearchStats()
        problem = explicit_problem([1, 2])
        negamax(problem, stats=stats)
        negamax(problem, stats=stats)
        assert stats.leaf_evals == 4

    def test_trace_records_all_paths(self):
        problem = explicit_problem([[1, 2], [3, 4]])
        stats = SearchStats.with_trace(problem.game)
        negamax(problem, stats=stats)
        positions = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        assert sorted(key for key, _ in stats.trace) == sorted(
            hash_key(problem.game, p) for p in positions
        )
