"""Race detector: mutation-mode self-test, seeded injections, clean gates.

Three layers of evidence that the detector works:

1. :func:`repro.verify.racedetect.self_test` — the detector's own
   mutation-mode check (clean trace passes, three seeded mutations each
   caught).
2. Hand-built injection traces for every defect class the detector
   claims to find — each must surface the right ``Finding.kind``.
3. Clean-trace gates: fresh fixed-seed captures from the sim, threaded,
   and multiproc backends must analyze with zero findings, so the gates
   in CI fail if anyone reintroduces an inconsistently-locked access.
"""

from __future__ import annotations

import pytest

from repro.errors import LockOrderError
from repro.sim.engine import Engine
from repro.sim.locks import LockOrderGraph, SimLock
from repro.sim.ops import Acquire, Compute, Op, Release
from repro.verify import harness
from repro.verify.racedetect import analyze, self_test
from repro.verify.trace import (
    ACQUIRE,
    NOTIFY,
    READ,
    RELEASE,
    WAIT,
    WAKE,
    WRITE,
    Event,
)

# ---------------------------------------------------------------------------
# Layer 1: the detector's own mutation-mode self-test.
# ---------------------------------------------------------------------------


def test_self_test_passes() -> None:
    self_test()  # raises VerificationError on any failure


# ---------------------------------------------------------------------------
# Layer 2: seeded injection traces, one per defect class.
# ---------------------------------------------------------------------------


def _locked_section(task: int, lock: str = "L", obj: str = "counters.jobs") -> list[Event]:
    return [
        Event(ACQUIRE, task, lock),
        Event(READ, task, obj),
        Event(WRITE, task, obj),
        Event(RELEASE, task, lock),
    ]


def test_injected_missing_acquire_is_a_data_race() -> None:
    trace = _locked_section(1) + [
        # Task 2 touches the counter with no lock at all.
        Event(READ, 2, "counters.jobs"),
        Event(WRITE, 2, "counters.jobs"),
    ]
    report = analyze(trace)
    assert any(f.kind == "data-race" for f in report.findings)


def test_injected_reordered_release_is_caught() -> None:
    trace = [
        Event(ACQUIRE, 1, "L"),
        Event(RELEASE, 1, "L"),
        # The critical section now runs after the release.
        Event(WRITE, 1, "counters.jobs"),
        Event(RELEASE, 1, "L"),  # second release of an unheld lock
    ] + _locked_section(2)
    report = analyze(trace)
    kinds = {f.kind for f in report.findings}
    assert "unheld-release" in kinds or "data-race" in kinds


def test_injected_racy_counter_two_unlocked_writers() -> None:
    trace = [
        Event(WRITE, 1, "counters.pops"),
        Event(WRITE, 2, "counters.pops"),
        Event(WRITE, 1, "counters.pops"),
    ]
    report = analyze(trace)
    races = [f for f in report.findings if f.kind == "data-race"]
    assert races and any("counters.pops" in f.obj for f in races)


def test_injected_lock_order_inversion_is_caught() -> None:
    trace = [
        Event(ACQUIRE, 1, "A"),
        Event(ACQUIRE, 1, "B"),
        Event(RELEASE, 1, "B"),
        Event(RELEASE, 1, "A"),
        Event(ACQUIRE, 2, "B"),
        Event(ACQUIRE, 2, "A"),  # opposite nesting: deadlock window
        Event(RELEASE, 2, "A"),
        Event(RELEASE, 2, "B"),
    ]
    report = analyze(trace)
    assert any(f.kind == "lock-order" for f in report.findings)


def test_injected_stale_version_wait_is_a_lost_wakeup() -> None:
    trace = [
        Event(NOTIFY, 1, "work", version=1),
        # Waiter blocks having seen version 0 although the signal is at 1:
        # the wake-up it needs has already happened.
        Event(WAIT, 2, "work", seen_version=0, version=1),
        Event(WAKE, 2, "work"),
    ]
    report = analyze(trace)
    assert any(f.kind == "lost-wakeup" for f in report.findings)


def test_lockset_violation_reported_even_when_interleaving_ordered() -> None:
    """Scheduling is not synchronization: ordered-by-luck still flags."""
    trace = _locked_section(1) + [
        Event(ACQUIRE, 2, "M"),  # wrong lock — no common protection
        Event(WRITE, 2, "counters.jobs"),
        Event(RELEASE, 2, "M"),
    ]
    report = analyze(trace)
    assert any(
        f.kind == "data-race" and "counters.jobs" in f.obj for f in report.findings
    )


def test_relaxed_access_is_exempt() -> None:
    trace = [
        Event(WRITE, 1, "heap.primary"),
        Event(READ, 2, "heap.primary", relaxed=True),  # documented benign peek
    ]
    report = analyze(trace)
    assert report.ok


# ---------------------------------------------------------------------------
# Layer 3: clean-trace gates over every backend.
# ---------------------------------------------------------------------------


def test_sim_trace_is_clean() -> None:
    report = analyze(harness.capture_sim_trace())
    assert report.ok, report.summary()
    assert report.events > 1000  # the capture actually exercised the search


def test_sim_serial_depth_trace_is_clean() -> None:
    report = analyze(harness.capture_sim_serial_depth_trace())
    assert report.ok, report.summary()


def test_threaded_trace_is_clean() -> None:
    report = analyze(harness.capture_threaded_trace())
    assert report.ok, report.summary()
    assert report.tasks >= 2  # real threads actually participated


@pytest.mark.slow
def test_multiproc_trace_is_clean() -> None:
    report = analyze(harness.capture_multiproc_trace())
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# Satellite: the simulator itself aborts on lock-order inversions.
# ---------------------------------------------------------------------------


def test_lock_order_graph_reports_inversion() -> None:
    graph = LockOrderGraph()
    assert graph.record(["A"], "B") == []
    assert graph.record(["B"], "A") == ["B"]
    # Every inverted prior is returned, not just the first.
    assert graph.record(["C"], "A") == []
    assert graph.record(["A", "B", "D"], "C") == ["A", "B"]


def test_sim_engine_aborts_on_lock_order_inversion() -> None:
    a, b = SimLock("A"), SimLock("B")

    def forward():
        yield Acquire(a)
        yield Compute(5.0)
        yield Acquire(b)
        yield Release(b)
        yield Release(a)

    def backward():
        yield Acquire(b)
        yield Compute(1.0)
        yield Acquire(a)
        yield Release(a)
        yield Release(b)

    with pytest.raises(LockOrderError):
        Engine([forward(), backward()]).run()


def test_sim_engine_consistent_nesting_is_fine() -> None:
    a, b = SimLock("A"), SimLock("B")

    def worker(delay: float):
        yield Compute(delay)
        yield Acquire(a)
        yield Acquire(b)
        yield Compute(1.0)
        yield Release(b)
        yield Release(a)

    report = Engine([worker(0.0), worker(0.5)]).run()
    assert report.makespan > 0
