"""Shared-state access instrumentation for the race detector.

The execution substrates (the discrete-event engine, the threaded
driver, and the worker generators they both drive) report every
synchronization operation and every access to instrumented shared state
through the one instrumentation probe (:mod:`repro.obs.probe`).  A
:class:`TraceRecorder` is one of the probe's four sinks, beside the
telemetry bus, the critical-path recorder and the span ring; with no
sink attached each site is one module-global ``is None`` test, so the
instrumentation is free on the hot path.  Under :func:`tracing` the
recorder appends :class:`Event` records that
:mod:`repro.verify.racedetect` analyzes offline.  Its vocabulary stays
minimal and lockset-friendly: the rich, timestamped telemetry payloads
go to the bus.

Task attribution: the simulator sets the current task id explicitly
(:func:`repro.obs.probe.set_task`) before resuming each worker, because
every simulated processor runs on one OS thread.  The threaded backend leaves it unset
and events fall back to ``threading.get_ident()``.  ``list.append`` is
atomic under the GIL, so threads may share one recorder.

Two access disciplines are distinguished (see ``racedetect``):

* plain accesses participate in both the lockset and the happens-before
  analysis;
* ``relaxed`` accesses are deliberate, documented benign races (e.g. the
  lock-free queue-length peek of the work-stealing pop) and are recorded
  for the report but exempt from race checking.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

ACQUIRE = "acquire"
RELEASE = "release"
READ = "read"
WRITE = "write"
WAIT = "wait"
NOTIFY = "notify"
WAKE = "wake"


@dataclass(frozen=True)
class Event:
    """One synchronization operation or shared-state access.

    Attributes:
        kind: one of :data:`ACQUIRE`, :data:`RELEASE`, :data:`READ`,
            :data:`WRITE`, :data:`WAIT`, :data:`NOTIFY`, :data:`WAKE`.
        task: simulated worker id or OS thread id.
        obj: lock name, signal name, or shared-state location.
        seen_version: for :data:`WAIT` — the signal version the waiter
            observed when it decided to block.
        version: for :data:`WAIT`/:data:`NOTIFY` — the signal version at
            the instant of the event.
        relaxed: deliberate benign race; exempt from race checking.
    """

    kind: str
    task: int
    obj: str
    seen_version: int = -1
    version: int = -1
    relaxed: bool = False


class TraceRecorder:
    """Accumulates events; attach with :func:`tracing`.

    The probe (:mod:`repro.obs.probe`) calls the recording methods below;
    ``task`` defaults to the explicit task id or, failing that, the OS
    thread id.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        #: Explicit task id (simulated worker); ``None`` = use thread id.
        self.task: Optional[int] = None

    def task_id(self) -> int:
        return self.task if self.task is not None else threading.get_ident()

    def _task(self, task: Optional[int]) -> int:
        return task if task is not None else self.task_id()

    def acquire(self, obj: str, task: Optional[int] = None) -> None:
        """A lock named ``obj`` was granted to the current (or given) task."""
        self.events.append(Event(ACQUIRE, self._task(task), obj))

    def release(self, obj: str, task: Optional[int] = None) -> None:
        """A lock named ``obj`` was released by the current (or given) task."""
        self.events.append(Event(RELEASE, self._task(task), obj))

    def access(self, obj: str, kind: str, relaxed: bool = False) -> None:
        """The current task read or wrote the shared location ``obj``."""
        self.events.append(Event(kind, self.task_id(), obj, relaxed=relaxed))

    def wait(
        self, obj: str, seen_version: int, version: int, task: Optional[int] = None
    ) -> None:
        """The task blocked on signal ``obj``.

        ``seen_version`` is the version observed when the task decided to
        wait; ``version`` is the signal's version at the instant of
        blocking.  A mismatch is a lost-wakeup window — the detector flags
        it (the real engine never blocks on a stale version; see
        ``sim.ops.WaitWork``).
        """
        self.events.append(Event(WAIT, self._task(task), obj, seen_version, version))

    def notify(self, obj: str, version: int, task: Optional[int] = None) -> None:
        """The task notified signal ``obj``, moving it to ``version``."""
        self.events.append(Event(NOTIFY, self._task(task), obj, version=version))

    def wake(self, obj: str, task: Optional[int] = None) -> None:
        """The task resumed from a wait on signal ``obj``."""
        self.events.append(Event(WAKE, self._task(task), obj))


@contextmanager
def tracing() -> Iterator[TraceRecorder]:
    """Record all instrumented activity within the block.

    Attaches a fresh recorder as the probe's ``trace`` sink; leaving the
    block restores whatever recorder was attached before.

    Yields:
        The recorder; read ``recorder.events`` after the block.
    """
    from ..obs import probe

    with probe.attached("trace", TraceRecorder()) as recorder:
        yield recorder
