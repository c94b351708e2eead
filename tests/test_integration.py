"""Cross-module integration tests: every algorithm, every game, one truth.

The strongest correctness statement in the suite: for a battery of games
(synthetic and real), all seven search algorithms — negmax, both
alpha-beta variants, serial ER, parallel ER, and all four baselines —
must agree exactly on the root value.
"""

import pytest

from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.serial_er import er_search
from repro.games.base import SearchProblem
from repro.games.connect4 import ConnectFour
from repro.games.othello import O2_ROOT, Othello
from repro.games.random_tree import IncrementalGameTree, RandomGameTree
from repro.games.tictactoe import TicTacToe
from repro.parallel import mwf, naive_split, parallel_aspiration, pv_splitting, tree_splitting
from repro.parallel.threaded import threaded_er
from repro.search.alphabeta import alphabeta
from repro.search.aspiration import aspiration_search
from repro.search.negamax import negamax

PROBLEMS = [
    pytest.param(SearchProblem(RandomGameTree(3, 5, seed=17), depth=5), id="random-3x5"),
    pytest.param(SearchProblem(RandomGameTree(6, 3, seed=8), depth=3), id="random-6x3"),
    pytest.param(
        SearchProblem(IncrementalGameTree(4, 4, seed=2, noise=0.3), depth=4, sort_below_root=4),
        id="incremental-sorted",
    ),
    pytest.param(SearchProblem(TicTacToe(), depth=5), id="tictactoe-5"),
    pytest.param(SearchProblem(ConnectFour(width=5, height=4), depth=4), id="connect4-4"),
    pytest.param(SearchProblem(Othello(O2_ROOT), depth=2, sort_below_root=2), id="othello-2"),
]


@pytest.mark.parametrize("problem", PROBLEMS)
def test_all_algorithms_agree(problem):
    truth = negamax(problem).value
    assert alphabeta(problem).value == truth
    assert alphabeta(problem, deep_cutoffs=False).value == truth
    assert er_search(problem).value == truth
    assert aspiration_search(problem, guess=truth - 3, delta=10).result.value == truth
    assert parallel_er(problem, 5, config=ERConfig(serial_depth=2)).value == truth
    assert parallel_aspiration(problem, 3).value == truth
    assert mwf(problem, 3).value == truth
    assert tree_splitting(problem, 7).value == truth
    assert pv_splitting(problem, 7).value == truth
    assert naive_split(problem, 3).value == truth
    threaded_value, _ = threaded_er(problem, 3, config=ERConfig(serial_depth=2))
    assert threaded_value == truth


class TestEndToEndPipeline:
    def test_figure_pipeline_on_reduced_r3(self):
        """Exercise the full experiment pipeline the benchmarks rely on."""
        from repro.analysis import cached_curve

        curve = cached_curve("reduced", "R3", (1, 4))
        assert curve.points[1].speedup > 1.0
        assert curve.serial.alphabeta.value == curve.serial.er.value

    def test_loss_pipeline_consistency(self):
        """Loss fractions plus the split busy time account for the
        processor-time budget exactly."""
        from repro.analysis import loss_report, serial_baselines
        from repro.obs import critpath
        from repro.workloads import table3_suite

        spec = table3_suite("reduced")["R3"]
        base = serial_baselines(spec, trace=True)
        with critpath.recording() as recorder:
            result = parallel_er(
                spec.problem(), 4, config=ERConfig(serial_depth=spec.serial_depth), trace=True
            )
        report = loss_report(result, recorder.intervals, base.best_time, base.alphabeta.stats)
        busy = report.busy_fraction + report.speculative_fraction + report.overhead_fraction
        assert busy == pytest.approx(result.report.utilization, rel=1e-12)
        accounted = busy + report.starvation_fraction + report.interference_fraction
        assert accounted == pytest.approx(1.0, abs=1e-9)

    def test_er_beats_naive_split(self):
        """Sanity: the paper's algorithm must dominate the straw man."""
        problem = SearchProblem(RandomGameTree(4, 6, seed=31), depth=6)
        serial = alphabeta(problem).stats.cost
        er = parallel_er(problem, 8, config=ERConfig(serial_depth=4))
        naive = naive_split(problem, 8)
        assert er.speedup(serial) > naive.speedup(serial)
