"""Cross-cutting property-based fuzzing.

One strategy generates arbitrary explicit game trees; another generates
arbitrary parallel-ER configurations.  Every algorithm in the package
must produce the negmax value on every combination — the broadest
correctness net in the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.er_queues import SpecOrder
from repro.core.serial_er import er_search
from repro.costmodel import CostModel
from repro.games.base import hash_key
from repro.games.explicit import negmax_of_spec
from repro.search.alphabeta import alphabeta
from repro.search.minimal_tree import minimal_leaf_count_formula
from repro.search.negamax import negamax
from repro.search.negascout import negascout
from repro.search.transposition import TranspositionTable, alphabeta_tt

from conftest import explicit_problem

leaf = st.integers(min_value=-100, max_value=100)
tree_spec = st.recursive(leaf, lambda c: st.lists(c, min_size=1, max_size=4), max_leaves=30)

er_configs = st.builds(
    ERConfig,
    serial_depth=st.integers(min_value=0, max_value=6),
    parallel_refutation=st.booleans(),
    early_choice=st.booleans(),
    multiple_e_children=st.booleans(),
    deep_cutoff_checks=st.booleans(),
    max_e_children=st.integers(min_value=1, max_value=4),
    distributed_heap=st.booleans(),
    spec_order=st.sampled_from(list(SpecOrder)),
    chunk_units=st.sampled_from([50.0, 400.0, 10_000.0]),
)

cost_models = st.builds(
    CostModel,
    expand_base=st.floats(min_value=0.0, max_value=10.0),
    expand_per_child=st.floats(min_value=0.0, max_value=5.0),
    static_eval=st.floats(min_value=0.1, max_value=100.0),
    heap_op=st.floats(min_value=0.0, max_value=5.0),
    combine_step=st.floats(min_value=0.0, max_value=5.0),
    bookkeeping=st.floats(min_value=0.0, max_value=2.0),
)


class TestSerialAlgorithmsFuzz:
    @given(tree_spec)
    def test_every_serial_algorithm_agrees(self, spec):
        problem = explicit_problem(spec)
        truth = negmax_of_spec(spec)
        assert alphabeta(problem).value == truth
        assert alphabeta(problem, deep_cutoffs=False).value == truth
        assert er_search(problem).value == truth
        assert negascout(problem).value == truth
        assert alphabeta_tt(problem, TranspositionTable()).value == truth


class TestParallelERFuzz:
    @given(tree_spec, er_configs, st.integers(min_value=1, max_value=9))
    @settings(max_examples=60)
    def test_any_config_any_processor_count(self, spec, config, n):
        problem = explicit_problem(spec)
        result = parallel_er(problem, n, config=config)
        assert result.value == negmax_of_spec(spec)

    @given(tree_spec, cost_models)
    @settings(max_examples=30)
    def test_any_cost_model(self, spec, cost_model):
        """Costs affect the schedule, never the value."""
        problem = explicit_problem(spec)
        result = parallel_er(
            problem, 4, config=ERConfig(serial_depth=2), cost_model=cost_model
        )
        assert result.value == negmax_of_spec(spec)

    @given(tree_spec, er_configs)
    @settings(max_examples=30)
    def test_determinism_under_any_config(self, spec, config):
        problem = explicit_problem(spec)
        a = parallel_er(problem, 5, config=config)
        b = parallel_er(problem, 5, config=config)
        assert a.sim_time == b.sim_time
        assert a.stats.nodes_generated == b.stats.nodes_generated


def _nest(values, degree):
    """Fold a flat leaf list into a complete ``degree``-ary tree spec."""
    nodes = list(values)
    while len(nodes) > 1:
        nodes = [nodes[i : i + degree] for i in range(0, len(nodes), degree)]
    return nodes[0]


@st.composite
def uniform_trees(draw):
    """Complete d-ary trees — the shape the minimal-tree bound is stated for."""
    degree = draw(st.integers(min_value=2, max_value=3))
    height = draw(st.integers(min_value=1, max_value=3))
    count = degree**height
    values = draw(st.lists(leaf, min_size=count, max_size=count))
    return degree, height, _nest(values, degree)


class TestMinimalTreeBoundFuzz:
    """No correct algorithm can examine fewer leaves than the minimal tree
    (paper Section 2.2), and parallelism must never change the value."""

    @given(uniform_trees(), er_configs, st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_parallel_er_matches_negamax_above_the_bound(self, tree, config, n):
        degree, height, spec = tree
        problem = explicit_problem(spec)
        result = parallel_er(problem, n, config=config)
        assert result.value == negamax(problem).value
        assert result.stats.leaf_evals >= minimal_leaf_count_formula(degree, height)

    @given(uniform_trees())
    @settings(max_examples=30)
    def test_serial_searches_respect_the_bound(self, tree):
        degree, height, spec = tree
        problem = explicit_problem(spec)
        bound = minimal_leaf_count_formula(degree, height)
        truth = negamax(problem).value
        for result in (alphabeta(problem), er_search(problem)):
            assert result.value == truth
            assert result.stats.leaf_evals >= bound


class TestAccountingInvariantsFuzz:
    @given(tree_spec, er_configs, st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_time_accounting_closes(self, spec, config, n):
        """busy + lock-wait + starve + tail-idle == P * makespan."""
        problem = explicit_problem(spec)
        result = parallel_er(problem, n, config=config)
        report = result.report
        tail = sum(report.makespan - p.finish_time for p in report.processors)
        accounted = (
            report.total_busy + report.total_lock_wait + report.total_starve_wait + tail
        )
        assert abs(accounted - report.makespan * n) < 1e-6 * max(1.0, report.makespan * n)

    @given(tree_spec, st.integers(min_value=1, max_value=6))
    @settings(max_examples=30)
    def test_parallel_trace_covers_root_region(self, spec, n):
        problem = explicit_problem(spec)
        result = parallel_er(problem, n, config=ERConfig(serial_depth=3), trace=True)
        game = problem.game
        keys = {key for key, _ in result.stats.trace}
        assert hash_key(game, game.root()) in keys
        # The root's first child's subtree is always examined (mandatory work).
        children = game.children(game.root())
        if children:
            subtree, stack = set(), [children[0]]
            while stack:
                position = stack.pop()
                subtree.add(hash_key(game, position))
                stack.extend(game.children(position))
            assert keys & subtree