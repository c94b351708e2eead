"""The one instrumentation hook: a probe that fans out to attached sinks.

Every instrumented site in the execution substrates (the discrete-event
engine, the threaded driver, the multiproc coordinator and workers, the
problem-heap queues, the caches, the service's metrics) reads one
module-global, :data:`CURRENT`, and makes at most one call on it.  With
nothing attached ``CURRENT`` is ``None``, so the disabled path is one
global load and an ``is None`` test per site.

Four sinks may be attached, each by its own context manager, in any
combination and nesting:

* ``trace`` — the race detector's :class:`~repro.verify.trace.TraceRecorder`
  (:func:`repro.verify.trace.tracing`): synchronization operations and
  shared-state accesses;
* ``bus`` — the telemetry :class:`~repro.obs.events.EventBus`
  (:func:`repro.obs.events.observing`), which forwards each event to its
  live registry feed when one is attached;
* ``schedule`` — the critical-path
  :class:`~repro.obs.critpath.ScheduleRecorder`
  (:func:`repro.obs.critpath.recording`): charged intervals with their
  dependency edges;
* ``ring`` — this process's :class:`~repro.obs.live.SpanRing`
  (:func:`repro.obs.live.install_ring`): wall-clock spans of the real
  backends.

A probe method forwards to whichever of its sinks are attached; each
sink receives exactly the stream it would receive alone.  The probe is
immutable: attaching or detaching a sink installs a new probe (or
``None``), so a site that loaded ``CURRENT`` keeps a consistent view for
the rest of its call.  Spans have two ends, so span sites read the
probe's ``ring`` and call it directly.

The sink modules attach through this one; their context managers import
it when entered, so this module can name their vocabularies.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from ..verify import trace as _trace
from . import critpath as _cp
from . import events as _events

if TYPE_CHECKING:  # pragma: no cover
    from .live import SpanRing

#: Sink slots, in the order a probe holds them.
SLOTS = ("trace", "bus", "schedule", "ring")


def node_label(path: Sequence[int]) -> str:
    """A tree node's name in every sink: ``"0/2/1"``, or ``"root"``."""
    return "/".join(map(str, path)) or "root"


class Probe:
    """The sinks attached right now; see the module docstring."""

    __slots__ = SLOTS

    def __init__(
        self,
        trace: Optional[_trace.TraceRecorder] = None,
        bus: Optional[_events.EventBus] = None,
        schedule: Optional[_cp.ScheduleRecorder] = None,
        ring: "Optional[SpanRing]" = None,
    ) -> None:
        self.trace = trace
        self.bus = bus
        self.schedule = schedule
        self.ring = ring

    # -- synchronization and shared state (race trace) ----------------------

    def access(self, obj: str, kind: str, relaxed: bool = False) -> None:
        """The current task read or wrote the shared location ``obj``."""
        if self.trace is not None:
            self.trace.access(obj, kind, relaxed)

    def node_access(self, path: Sequence[int], kind: str) -> None:
        """An access to a tree node's shared state."""
        if self.trace is not None:
            self.trace.access(f"node:{node_label(path)}", kind)

    def locked_access(self, lock: str, obj: str, kind: str) -> None:
        """One access to ``obj`` inside a critical section on ``lock``.

        Called with the real lock held, so the acquire, the access and
        the release reach the trace together, as one section.
        """
        trace = self.trace
        if trace is not None:
            trace.acquire(lock)
            trace.access(obj, kind)
            trace.release(lock)

    def acquire(self, lock: str, task: Optional[int] = None) -> None:
        if self.trace is not None:
            self.trace.acquire(lock, task)

    def release(self, lock: str, task: Optional[int] = None) -> None:
        if self.trace is not None:
            self.trace.release(lock, task)

    def wait(
        self, signal: str, seen_version: int, version: int, task: Optional[int] = None
    ) -> None:
        if self.trace is not None:
            self.trace.wait(signal, seen_version, version, task)

    def notify(self, signal: str, version: int, task: Optional[int] = None) -> None:
        if self.trace is not None:
            self.trace.notify(signal, version, task)

    def wake(self, signal: str, task: Optional[int] = None) -> None:
        if self.trace is not None:
            self.trace.wake(signal, task)

    # -- telemetry (event bus) ----------------------------------------------

    def emit(self, etype: str, task: Optional[int] = None, **data: object) -> None:
        if self.bus is not None:
            self.bus.emit(etype, task, **data)

    def node_event(self, etype: str, path: Sequence[int], **data: object) -> None:
        """A node lifecycle event; infinite values travel as strings so
        every payload stays strict-JSON-serializable."""
        if self.bus is None:
            return
        value = data.get("value")
        if isinstance(value, float) and math.isinf(value):
            data["value"] = str(value)
        self.bus.emit(etype, path=node_label(path), **data)

    # -- sites that feed several sinks --------------------------------------

    def queue_push(self, queue: str, depth: int) -> None:
        """A problem-heap push: the queue write and its new depth."""
        if self.trace is not None:
            self.trace.access(queue, _trace.WRITE)
        if self.bus is not None:
            self.bus.emit(_events.EV_QUEUE_DEPTH, queue=queue, depth=depth)

    def queue_pop(self, queue: str, depth: int, path: Sequence[int]) -> None:
        """A problem-heap pop that handed out the node at ``path``: the
        queue write, its new depth, and the heap hand-off."""
        if self.trace is not None:
            self.trace.access(queue, _trace.WRITE)
        if self.bus is not None:
            self.bus.emit(_events.EV_QUEUE_DEPTH, queue=queue, depth=depth)
        if self.schedule is not None:
            self.schedule.on_pop(queue, node_label(path))

    def dispatched(self, wid: int, op: Any, now: float) -> None:
        """The simulator dispatched ``op`` for processor ``wid`` at ``now``:
        count it under its declared metric, and record a positive busy
        charge as a critical-path interval."""
        if self.bus is not None:
            self.bus.count_op(op.metric)
        if self.schedule is not None and op.loss == _cp.BUSY and op.units > 0:
            self.schedule.on_busy(
                wid, now, now + op.units,
                tag=op.tag, node=op.node, cls=op.cls, parts=op.parts,
            )

    def unblocked(
        self, wid: int, kind: str, since: float, now: float, via: str, src: int
    ) -> None:
        """Processor ``wid``, blocked since ``since``, resumes at ``now``
        because ``src`` released lock ``via`` (``kind``
        :data:`~repro.obs.critpath.LOCK_WAIT`) or
        notified signal ``via`` (``kind`` :data:`~repro.obs.critpath.STARVE`)."""
        if self.schedule is not None and now > since:
            self.schedule.on_wait(wid, kind, since, now, via, src)
        if self.trace is not None:
            if kind == _cp.LOCK_WAIT:
                self.trace.acquire(via, wid)
            else:
                self.trace.wake(via, wid)


#: The active probe; ``None`` exactly when no sink is attached.  Read
#: directly by every instrumented module (``probe.CURRENT``).
CURRENT: Optional[Probe] = None


def attach(slot: str, sink: Any) -> Any:
    """Put ``sink`` in ``slot`` (``None`` detaches); returns the previous one."""
    global CURRENT
    sinks = {name: getattr(CURRENT, name, None) for name in SLOTS}
    previous = sinks[slot]
    sinks[slot] = sink
    CURRENT = Probe(**sinks) if any(s is not None for s in sinks.values()) else None
    return previous


@contextmanager
def attached(slot: str, sink: Any) -> Iterator[Any]:
    """Attach ``sink`` for the block; leaving it restores the outer sink."""
    previous = attach(slot, sink)
    try:
        yield sink
    finally:
        attach(slot, previous)


def set_task(task: Optional[int]) -> None:
    """Attribute subsequent trace and bus events to ``task`` (simulator use;
    ``None`` falls back to the OS thread id)."""
    p = CURRENT
    if p is not None:
        if p.trace is not None:
            p.trace.task = task
        if p.bus is not None:
            p.bus.task = task
