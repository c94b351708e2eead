"""Unit tests for serial ER (the paper's Figure 8)."""

import dataclasses
import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.serial_er import er_search
from repro.games.base import SearchProblem, hash_key
from repro.games.explicit import FIGURE7, ExplicitTree, negmax_of_spec
from repro.games.random_tree import IncrementalGameTree, RandomGameTree, SyntheticOrderedTree
from repro.search.alphabeta import alphabeta
from repro.search.negamax import negamax

from conftest import explicit_problem

leaf = st.integers(min_value=-50, max_value=50)
tree_spec = st.recursive(leaf, lambda child: st.lists(child, min_size=1, max_size=3), max_leaves=25)


class TestCorrectness:
    @given(tree_spec)
    def test_equals_negamax_on_explicit_trees(self, spec):
        assert er_search(explicit_problem(spec)).value == negmax_of_spec(spec)

    def test_equals_negamax_on_random_trees(self, small_random_problems):
        for problem in small_random_problems:
            assert er_search(problem).value == negamax(problem).value

    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10))
    def test_on_synthetic_ordered_trees(self, degree, height, seed):
        tree = SyntheticOrderedTree(degree, height, seed=seed, best_child="random")
        problem = SearchProblem(tree, depth=height)
        assert er_search(problem).value == float(tree.root_value)

    def test_figure7_tree(self):
        """The paper's Figure 7 walk ends with root value -(-13)... i.e.
        the root's value comes from O's subtree."""
        problem = explicit_problem(FIGURE7)
        truth = negmax_of_spec(FIGURE7)
        assert er_search(problem).value == truth
        assert alphabeta(problem).value == truth

    def test_single_leaf(self):
        assert er_search(explicit_problem(42)).value == 42.0

    def test_unary_chain(self):
        spec = [[[7]]]
        assert er_search(explicit_problem(spec)).value == negmax_of_spec(spec)

    def test_depth_zero(self):
        game = ExplicitTree([1, 2])
        problem = SearchProblem(game, depth=0)
        assert er_search(problem).value == negmax_of_spec([1, 2])


class TestWindows:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            er_search(explicit_problem([1, 2]), alpha=0, beta=0)

    @given(tree_spec, st.integers(-60, 60), st.integers(1, 40))
    def test_window_semantics(self, spec, low, width):
        high = low + width
        truth = negmax_of_spec(spec)
        result = er_search(explicit_problem(spec), alpha=low, beta=high)
        if low < truth < high:
            assert result.value == truth
        elif truth <= low:
            assert result.value <= low
        else:
            assert result.value >= high


class TestBehaviour:
    def test_prunes_relative_to_negamax(self):
        problem = SearchProblem(RandomGameTree(4, 6, seed=7), depth=6)
        er = er_search(problem)
        nm = negamax(problem)
        assert er.stats.leaf_evals < nm.stats.leaf_evals

    def test_no_sorting_charge_for_e_node_successors(self):
        """ER must charge fewer ordering evaluations than alpha-beta on a
        sorted problem: successors of e-nodes are not statically sorted
        (Section 7, the source of the O1 anomaly)."""
        tree = IncrementalGameTree(4, 5, seed=1, noise=0.3)
        problem = SearchProblem(tree, depth=5, sort_below_root=5)
        er = er_search(problem)
        ab = alphabeta(problem)
        assert er.value == ab.value
        # ER sorts r-node/undecided successors only; AB sorts everywhere it
        # visits, including along the principal variation.
        assert er.stats.ordering_evals < ab.stats.ordering_evals + er.stats.leaf_evals

    def test_odd_depth_favours_er(self):
        """Reproduces the paper's R2 observation: on odd search depths the
        elder-grandchild heuristic tends to make ER competitive."""
        even = SearchProblem(RandomGameTree(4, 8, seed=101), depth=8)
        odd = SearchProblem(RandomGameTree(4, 9, seed=101), depth=9)
        ratio_even = er_search(even).cost / alphabeta(even).cost
        ratio_odd = er_search(odd).cost / alphabeta(odd).cost
        assert ratio_odd < ratio_even

    def test_cutoff_counted(self):
        problem = explicit_problem([-7, [5, 999]])
        result = er_search(problem)
        assert result.stats.cutoffs >= 1

    def test_sorted_ordering_charges(self):
        tree = RandomGameTree(3, 4, seed=0)
        plain = er_search(SearchProblem(tree, depth=4))
        sorted_ = er_search(SearchProblem(tree, depth=4, sort_below_root=4))
        assert plain.stats.ordering_evals == 0
        assert sorted_.stats.ordering_evals > 0
        assert plain.value == sorted_.value

    def test_trace_collection(self):
        from repro.search.stats import SearchStats

        problem = explicit_problem([[1, 2], [3, 4]])
        stats = SearchStats.with_trace(problem.game)
        er_search(problem, stats=stats)
        keys = {key for key, _ in stats.trace}
        assert hash_key(problem.game, ()) in keys
        assert hash_key(problem.game, (0,)) in keys and hash_key(problem.game, (1,)) in keys

    def test_trace_paths_follow_successor_order(self):
        # A traced search names every examined node by its position key,
        # whatever order sorting puts the records in.  Pinned bytes.
        from repro.search.stats import SearchStats

        tree = IncrementalGameTree(4, 5, seed=1, noise=0.3)
        stats = SearchStats.with_trace(tree)
        er_search(SearchProblem(tree, depth=5, sort_below_root=5), stats=stats)
        digest = hashlib.sha256(repr(sorted(stats.trace)).encode()).hexdigest()
        assert (digest, len(stats.trace)) == (
            "3be23f8cd474ab164596e8a9314a1108179bd5c6697a12ebad177dae2298a0a3",
            198,
        )
