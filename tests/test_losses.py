"""Tests for the Section 3.1 loss decomposition."""

from collections import Counter

import pytest

from repro.analysis.experiments import serial_baselines
from repro.analysis.losses import classify_work, loss_report
from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.serial_er import er_search
from repro.games.base import RootedGame, SearchProblem, hash_key
from repro.games.tictactoe import TicTacToe, position_from_string
from repro.obs import critpath
from repro.search.alphabeta import alphabeta
from repro.search.negamax import negamax
from repro.search.stats import SearchStats
from repro.workloads import table3_suite

from conftest import random_problem


def _trace(*keys):
    return [(key, 1.0) for key in keys]


class TestClassifyWork:
    def test_disjoint_sets(self):
        work = classify_work(_trace(1, 2), _trace(3, 4))
        assert work.mandatory_examined == 0
        assert work.speculative_examined == 2
        assert work.mandatory_missed == 2
        assert work.speculative_fraction == 1.0

    def test_identical_sets(self):
        keys = _trace(1, 2, 3)
        work = classify_work(keys, list(reversed(keys)))
        assert work.speculative_examined == 0
        assert work.expansion_ratio == 1.0
        assert work.speculative_fraction == 0.0

    def test_superset(self):
        work = classify_work(_trace(1), _trace(1, 2, 3))
        assert work.mandatory_examined == 1
        assert work.speculative_examined == 2
        assert work.expansion_ratio == 3.0

    def test_empty_parallel(self):
        work = classify_work(_trace(1), [])
        assert work.speculative_fraction == 0.0

    def test_empty_reference(self):
        work = classify_work([], _trace(1))
        assert work.expansion_ratio == 1.0


class _Reversed:
    """A game whose children come in the reverse of the wrapped order."""

    def __init__(self, game):
        self.game = game

    def root(self):
        return self.game.root()

    def children(self, position):
        return tuple(reversed(self.game.children(position)))

    def evaluate(self, position):
        return self.game.evaluate(position)

    def hash_key(self, position):
        return hash_key(self.game, position)


def _ttt_problem(board: str, to_move: int) -> SearchProblem:
    game = RootedGame(TicTacToe(), position_from_string(board, to_move))
    return SearchProblem(game, depth=9)


class TestKeyedByPosition:
    def test_child_order_does_not_make_work_speculative(self):
        # Tic-tac-toe branches unevenly, so child index i names different
        # moves (and different subtree sizes) under the two orders.
        problem = _ttt_problem("X.. .O. ...", 1)
        flipped = SearchProblem(_Reversed(problem.game), depth=problem.depth)
        reference = SearchStats.with_trace(problem.game)
        negamax(problem, stats=reference)
        parallel = SearchStats.with_trace(flipped.game)
        negamax(flipped, stats=parallel)
        work = classify_work(reference.trace, parallel.trace)
        assert work.parallel_total == work.reference_total > 1000
        assert work.speculative_fraction == 0.0
        assert work.mandatory_missed == 0

    def test_transpositions_count_with_multiplicity(self):
        problem = _ttt_problem("XO. ... ...", 1)
        full = SearchStats.with_trace(problem.game)
        negamax(problem, stats=full)
        counts = Counter(key for key, _ in full.trace)
        assert max(counts.values()) > 1  # X a, O b, X c transposes
        once = list({key: (key, cost) for key, cost in full.trace}.values())
        # Each repeat beyond the reference's count is speculative ...
        work = classify_work(once, full.trace)
        assert work.mandatory_examined == len(once)
        assert work.speculative_examined == len(full.trace) - len(once)
        # ... and each reference repeat the run skipped is missed, not speculative.
        work = classify_work(full.trace, once)
        assert work.speculative_examined == 0
        assert work.mandatory_missed == len(full.trace) - len(once)


class _Logged:
    """Forwards to a game, counting each position it expands (a
    ``children`` call) or evaluates at the horizon ply."""

    def __init__(self, game, depth):
        self.game = game
        self.depth = depth
        self.ply = {}
        self.examined = Counter()

    def root(self):
        root = self.game.root()
        self.ply[root] = 0
        return root

    def children(self, position):
        self.examined[hash_key(self.game, position)] += 1
        kids = self.game.children(position)
        for kid in kids:
            self.ply[kid] = self.ply[position] + 1
        return kids

    def evaluate(self, position):
        if self.ply[position] == self.depth:
            self.examined[hash_key(self.game, position)] += 1
        return self.game.evaluate(position)

    def hash_key(self, position):
        return hash_key(self.game, position)


def test_o1_speculative_count_matches_positions_outside_serial_er():
    """Reduced O1, P=1, serial depth 3 against serial ER itself: the
    classifier's speculative count is the run's examinations of positions
    beyond serial ER's own (with multiplicity), as logged by the game.
    Path naming read 98.1% speculative here."""
    spec = table3_suite("reduced")["O1"]
    base = spec.problem()

    def logged_problem():
        game = _Logged(base.game, base.depth)
        return SearchProblem(game, base.depth, base.sort_below_root), game

    problem, serial_log = logged_problem()
    reference = SearchStats.with_trace(problem.game)
    er_search(problem, stats=reference)
    problem, parallel_log = logged_problem()
    result = parallel_er(problem, 1, config=ERConfig(serial_depth=3), trace=True)

    work = classify_work(reference.trace, result.stats.trace)
    outside = sum(
        max(0, n - serial_log.examined[key]) for key, n in parallel_log.examined.items()
    )
    assert sum(parallel_log.examined.values()) == work.parallel_total
    assert work.speculative_examined == outside
    assert work.speculative_fraction < 0.1


class TestLossReport:
    @staticmethod
    def _run(problem, n, trace=True):
        with critpath.recording() as recorder:
            result = parallel_er(problem, n, config=ERConfig(serial_depth=3), trace=trace)
        return result, recorder.intervals

    def test_end_to_end(self):
        problem = random_problem(3, 5, seed=3)
        reference = SearchStats.with_trace(problem.game)
        serial = alphabeta(problem, stats=reference)
        result, intervals = self._run(problem, 4)
        report = loss_report(result, intervals, serial.cost, reference)
        assert report.n_processors == 4
        assert 0.0 <= report.starvation_fraction <= 1.0
        assert 0.0 <= report.interference_fraction <= 1.0
        assert 0.0 <= report.speculative_fraction <= 1.0
        assert report.check_accounting() == []
        # The parallel run must have visited most of the mandatory work.
        assert report.work["mandatory_examined"] > 0.5 * report.work["reference_examined"]

    def test_requires_traced_parallel_run(self):
        problem = random_problem(3, 4, seed=1)
        reference = SearchStats.with_trace(problem.game)
        serial = alphabeta(problem, stats=reference)
        untraced, intervals = self._run(problem, 2, trace=False)
        with pytest.raises(ValueError):
            loss_report(untraced, intervals, serial.cost, reference)

    def test_requires_traced_reference(self):
        problem = random_problem(3, 4, seed=1)
        plain = SearchStats()
        serial = alphabeta(problem, stats=plain)
        traced, intervals = self._run(problem, 2)
        with pytest.raises(ValueError):
            loss_report(traced, intervals, serial.cost, plain)

    def test_more_processors_more_speculation(self):
        problem = random_problem(4, 5, seed=9)
        reference = SearchStats.with_trace(problem.game)
        serial = alphabeta(problem, stats=reference)
        few = loss_report(*self._run(problem, 1), serial.cost, reference)
        many = loss_report(*self._run(problem, 12), serial.cost, reference)
        assert many.work["nodes_examined"] >= few.work["nodes_examined"]
        assert many.speculative_fraction >= few.speculative_fraction


@pytest.mark.parametrize("tree", ["R1", "R2", "R3", "O1", "O2", "O3"])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_reduced_table3_split_is_conserved(tree, n):
    """Mandatory + speculative + overhead + starvation + interference is
    all of processor-time, and every processor's row is all of its time."""
    spec = table3_suite("reduced")[tree]
    base = serial_baselines(spec, trace=True)
    with critpath.recording() as recorder:
        result = parallel_er(
            spec.problem(), n, config=ERConfig(serial_depth=spec.serial_depth), trace=True
        )
    snap = loss_report(result, recorder.intervals, base.best_time, base.alphabeta.stats)
    parts = (
        snap.busy_fraction,
        snap.speculative_fraction,
        snap.overhead_fraction,
        snap.starvation_fraction,
        snap.interference_fraction,
    )
    assert abs(sum(parts) - 1.0) <= 1e-9
    assert snap.check_accounting() == []
    for proc, metrics in zip(snap.processors, result.report.processors):
        assert proc.busy + proc.speculative + proc.overhead == pytest.approx(
            metrics.busy, rel=1e-12, abs=1e-9
        )
    assert snap.efficiency == pytest.approx(base.best_time / snap.processor_time)
