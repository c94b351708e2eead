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
* :mod:`repro.verify.flow` — the static side of the lock protocol: an
  interprocedural lockset + shared-state escape analysis over the
  parallel engine, its queues, and the cache subsystems, with
  lock-order cycle detection, protocol-conformance checks, a
  seeded-mutation self-test, SARIF export, and a committed finding
  baseline.
* :mod:`repro.verify.staticcheck` — an AST lint for the per-file
  invariants the flow analysis does not see: a picklable multiproc
  boundary, eval-parity test coverage, and determinism through
  sanctioned clock/RNG seams.

Everything is runnable three ways: ``repro-gametree verify`` from a
shell, ``pytest tests/test_verify_*.py`` locally, and the ``verify`` CI
job on every push (which adds ``mypy --strict`` and ``ruff``).

The package imports none of its submodules: the runtime imports
:mod:`repro.verify.trace` on every instrumented path, and must not pay
for loading the analysers.
"""
