"""Tests for the recorded schedule and the ASCII Gantt renderer."""

import pytest

from repro.analysis.gantt import render_gantt
from repro.core.er_parallel import ERConfig, parallel_er
from repro.errors import SimulationError
from repro.obs import critpath, probe
from repro.obs.critpath import BUSY, LOCK_WAIT
from repro.sim import Compute, Engine, SimLock, Acquire, Release
from repro.sim.metrics import ProcessorMetrics, SimReport

from conftest import random_problem


def run_recorded(workers):
    with critpath.recording() as rec:
        report = Engine(workers).run()
    return report, rec.intervals


def spans(intervals, wid):
    return [(iv.kind, iv.start, iv.end) for iv in intervals if iv.wid == wid]


class TestTimelineRecording:
    def test_busy_interval(self):
        def worker():
            yield Compute(10.0)

        _, intervals = run_recorded([worker()])
        assert spans(intervals, 0) == [(BUSY, 0.0, 10.0)]

    def test_lock_wait_interval(self):
        lock = SimLock("l")

        def worker():
            yield Acquire(lock)
            yield Compute(5.0)
            yield Release(lock)

        _, intervals = run_recorded([worker(), worker()])
        assert (LOCK_WAIT, 0.0, 5.0) in spans(intervals, 1)

    def test_no_timeline_by_default(self):
        def worker():
            yield Compute(1.0)

        with critpath.recording() as rec:
            pass
        Engine([worker()]).run()
        assert probe.CURRENT is None
        assert rec.intervals == []

    def test_zero_cost_compute_not_recorded(self):
        def worker():
            yield Compute(0.0)
            yield Compute(2.0)

        _, intervals = run_recorded([worker()])
        assert len(spans(intervals, 0)) == 1


class TestRenderGantt:
    def test_basic_rendering(self):
        def worker(units):
            yield Compute(units)

        report, intervals = run_recorded([worker(10.0), worker(4.0)])
        text = render_gantt(report, intervals, width=20)
        lines = text.splitlines()
        assert lines[1].startswith("P0")
        assert "#" in lines[1]
        # The shorter worker's row ends in blanks (finished early).
        assert lines[2].rstrip().endswith("#") and lines[2][4:].count("#") < 15

    def test_processor_without_intervals_keeps_its_row(self):
        report = SimReport(
            makespan=5.0, processors=[ProcessorMetrics(busy=5.0), ProcessorMetrics()]
        )
        text = render_gantt(report, [], width=8)
        assert text.splitlines()[1:3] == ["P0  " + " " * 8, "P1  " + " " * 8]

    def test_width_validation(self):
        report = SimReport(makespan=1.0, processors=[])
        with pytest.raises(SimulationError):
            render_gantt(report, [], width=4)

    def test_end_to_end_on_parallel_er(self):
        problem = random_problem(3, 5, seed=3)
        with critpath.recording() as rec:
            result = parallel_er(problem, 4, config=ERConfig(serial_depth=3))
        text = render_gantt(result.report, rec.intervals, width=40)
        assert text.count("\n") == 4 + 1  # header + 4 processors + legend
        assert "#" in text

    def test_majority_rendering_ignores_slivers(self):
        """A tiny lock wait inside a long busy slice must not repaint it."""
        lock = SimLock("l")

        def hog():
            yield Acquire(lock)
            yield Compute(1.0)
            yield Release(lock)
            yield Compute(99.0)

        def waiter():
            yield Acquire(lock)
            yield Compute(100.0)
            yield Release(lock)

        report, intervals = run_recorded([hog(), waiter()])
        text = render_gantt(report, intervals, width=20)
        waiter_row = text.splitlines()[2]
        assert waiter_row.count("!") <= 1  # the 1-unit wait is a sliver
