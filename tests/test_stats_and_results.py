"""Unit tests for work accounting and parallel-result arithmetic."""

import pytest

from repro.costmodel import CostModel
from repro.games.base import hash_key
from repro.games.explicit import ExplicitTree
from repro.parallel.base import ParallelResult
from repro.search.stats import OrderingPolicy, SearchStats, argsort_by_static_value
from repro.sim.metrics import ProcessorMetrics, SimReport


def make_result(makespan: float, n: int) -> ParallelResult:
    report = SimReport(
        makespan=makespan,
        processors=[ProcessorMetrics(busy=makespan, finish_time=makespan)] * n,
    )
    return ParallelResult(
        value=0.0, n_processors=n, report=report, stats=SearchStats(), algorithm="x"
    )


class TestSearchStats:
    def test_expand_charges_and_counts(self):
        model = CostModel(expand_base=2.0, expand_per_child=1.0)
        stats = SearchStats()
        charged = stats.on_expand((0,), 3, model)
        assert charged == 5.0
        assert stats.interior_visits == 1
        assert stats.nodes_generated == 3
        assert stats.cost == 5.0

    def test_leaf_charges(self):
        model = CostModel(static_eval=7.0)
        stats = SearchStats()
        assert stats.on_leaf((1,), model) == 7.0
        assert stats.leaf_evals == 1

    def test_ordering_charges(self):
        model = CostModel(static_eval=3.0)
        stats = SearchStats()
        assert stats.on_ordering(4, model) == 12.0
        assert stats.ordering_evals == 4

    def test_nodes_examined(self):
        stats = SearchStats(interior_visits=3, leaf_evals=5)
        assert stats.nodes_examined == 8

    def test_merge_counters(self):
        a = SearchStats(interior_visits=1, leaf_evals=2, cost=10.0, cutoffs=1)
        b = SearchStats(interior_visits=3, leaf_evals=4, cost=5.0, cutoffs=2)
        a.merge(b)
        assert a.interior_visits == 4
        assert a.leaf_evals == 6
        assert a.cost == 15.0
        assert a.cutoffs == 3

    def test_merge_traces(self):
        game = ExplicitTree([[1, 2], [3]])
        a = SearchStats.with_trace(game)
        b = SearchStats.with_trace(game)
        a.trace.append((10, 1.0))
        b.trace.append((11, 2.0))
        a.merge(b)
        assert a.trace == [(10, 1.0), (11, 2.0)]

    def test_merge_trace_into_untraced_is_ignored(self):
        a = SearchStats()
        b = SearchStats.with_trace(ExplicitTree([1]))
        b.trace.append((11, 2.0))
        a.merge(b)
        assert a.trace is None

    def test_trace_records_visits(self):
        game = ExplicitTree([[1, 2], [3]])
        stats = SearchStats.with_trace(game)
        stats.on_expand((0,), 2, CostModel())
        stats.on_leaf((0, 1), CostModel())
        stats.note_leaf((0, 0))
        assert stats.trace == [
            (hash_key(game, (0,)), 4.0),
            (hash_key(game, (0, 1)), CostModel().static_eval),
            (hash_key(game, (0, 0)), 0.0),
        ]


class TestOrderingHelpers:
    class FakeGame:
        def evaluate(self, child):
            return {"a": 3.0, "b": 1.0, "c": 2.0}[child]

    def test_argsort_by_static_value(self):
        order = argsort_by_static_value(self.FakeGame(), ["a", "b", "c"])
        assert order == [1, 2, 0]

    def test_ordering_policy_charges(self):
        stats = SearchStats()
        policy = OrderingPolicy(cost_model=CostModel(static_eval=2.0), stats=stats)
        order = policy.argsort(self.FakeGame(), ["a", "b", "c"])
        assert order == [1, 2, 0]
        assert stats.ordering_evals == 3
        assert stats.cost == 6.0


class TestParallelResult:
    def test_speedup_and_efficiency(self):
        result = make_result(makespan=50.0, n=4)
        assert result.speedup(200.0) == 4.0
        assert result.efficiency(200.0) == 1.0

    def test_zero_makespan_is_infinite_speedup(self):
        result = make_result(makespan=0.0, n=2)
        assert result.speedup(10.0) == float("inf")

    def test_sim_time_is_makespan(self):
        assert make_result(25.0, 1).sim_time == 25.0


class TestSimReportMath:
    def test_empty_report(self):
        report = SimReport(makespan=0.0, processors=[])
        assert report.utilization == 1.0
        assert report.starvation_fraction() == 0.0
        assert report.interference_fraction() == 0.0

    def test_fractions(self):
        procs = [
            ProcessorMetrics(busy=6.0, lock_wait=2.0, starve_wait=2.0, finish_time=10.0),
            ProcessorMetrics(busy=10.0, finish_time=10.0),
        ]
        report = SimReport(makespan=10.0, processors=procs)
        assert report.utilization == pytest.approx(16.0 / 20.0)
        assert report.interference_fraction() == pytest.approx(2.0 / 20.0)
        assert report.starvation_fraction() == pytest.approx(2.0 / 20.0)
