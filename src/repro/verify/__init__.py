"""Concurrency-correctness toolkit for the parallel ER problem heap.

Stress tests finding no races proves very little; this package turns the
heap protocol's correctness into a machine-checked claim with three
coordinated passes (DESIGN.md "Verification"):

* :mod:`repro.verify.trace` — shared-state access instrumentation.  The
  discrete-event engine, the threaded driver, the problem-heap queues,
  and the tree-mutation paths all emit :class:`~repro.verify.trace.Event`
  records, through the one instrumentation probe (:mod:`repro.obs.probe`),
  when a recorder is attached; with nothing attached each site is a
  single ``is None`` test.
* :mod:`repro.verify.racedetect` — an Eraser-style lockset analyzer
  combined with a vector-clock happens-before checker over those event
  traces.  Reports data races, lock-order inversions (potential
  deadlocks), unheld releases, and lost-wakeup windows.  Its
  :func:`~repro.verify.racedetect.self_test` runs in *mutation mode*:
  it deletes a lock acquisition from a known-clean trace and fails loudly
  unless the detector flags the resulting race.
* :mod:`repro.verify.staticcheck` — an AST lint enforcing the repo's
  concurrency and determinism invariants (locked shared mutations,
  engine accounting coverage of every sim op, no wall clock or unseeded
  randomness in ``sim``/``core``, picklable-by-construction multiproc
  boundary, sanctioned clock/RNG seams).
* :mod:`repro.verify.flow` — the whole-program companion: an
  interprocedural lockset + shared-state escape analysis over the
  parallel engine, its queues, and the cache subsystems, with
  lock-order cycle detection, protocol-conformance summaries, SARIF
  export, and a committed finding baseline.  Run via
  ``repro-gametree verify --deep``.

Everything is runnable three ways: ``repro-gametree verify`` from a
shell, ``pytest tests/test_verify_*.py`` locally, and the ``verify`` CI
job on every push (which adds ``mypy --strict`` and ``ruff``).
"""

from __future__ import annotations

from .flow import FlowFinding, analyze_repo, analyze_sources
from .racedetect import Finding, RaceDetector, RaceReport, analyze, self_test
from .staticcheck import LintFinding, check_file, check_repo
from .trace import Event, TraceRecorder, tracing

__all__ = [
    "Event",
    "TraceRecorder",
    "tracing",
    "Finding",
    "FlowFinding",
    "RaceDetector",
    "RaceReport",
    "analyze",
    "analyze_repo",
    "analyze_sources",
    "self_test",
    "LintFinding",
    "check_file",
    "check_repo",
]
