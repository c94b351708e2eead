"""Structured telemetry event bus shared by all three ER backends.

:mod:`repro.verify.trace` records *synchronization* events for the race
detector; this module records *semantic* telemetry: queue depths,
speculative-heap size, node lifecycle transitions, e/r-classification
flips, multiproc task flow, cache traffic, and engine move choices.
Both are sinks on the one instrumentation probe (:mod:`repro.obs.probe`),
beside the critical-path recorder and the span ring: every instrumented
site makes one probe call, and the probe hands each sink its own stream.
The race trace keeps a minimal, lockset-friendly vocabulary; the bus
carries rich payloads and timestamps.  With no sink attached a site
costs one module-global ``is None`` test.

Every event type is declared once, in :data:`EVENT_TYPES` with the
registry metric it feeds, and :meth:`EventBus.emit` rejects any other.

Timestamps come from the bus *clock*.  The discrete-event engine installs
its simulated clock for the duration of a run (one simulated unit per
tick); the threaded driver and the multiproc coordinator leave the
default wall clock (``time.perf_counter``) in place.  Exporters
(:mod:`repro.obs.export`) normalize either to Chrome trace-event
microseconds.

Task attribution mirrors :mod:`repro.verify.trace`: the simulator sets
the current task id explicitly before resuming each worker
(:func:`repro.obs.probe.set_task`); the threaded backend falls back to
``threading.get_ident()``.  ``list.append`` is atomic under the GIL, so
threads may share one bus.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

#: Depth of a problem-heap queue after a push or pop (`queue`, `depth`).
EV_QUEUE_DEPTH = "queue-depth"
#: A tree node came into existence (`path`, `ntype`).
EV_NODE_CREATED = "node-created"
#: A node was taken off the problem heap (`path`, `speculative`).
EV_NODE_POPPED = "node-popped"
#: A node combined or was cut off (`path`, `value`).
EV_NODE_DONE = "node-done"
#: An undecided node was classified (`path`, `flip` of "u->e" / "u->r").
EV_CLASS_FLIP = "class-flip"
#: The multiproc coordinator handed a subtree task to a worker
#: (`path`, `kind` of "eval" / "refute").
EV_TASK_SUBMIT = "task-submit"
#: A subtree task's result arrived (`path`, `applied`, `duration`, `worker`).
EV_TASK_RESULT = "task-result"
#: The game engine chose a move (`depth`, `cost`, `move_index`).
EV_ENGINE_CHOICE = "engine-choice"
#: A transposition-table probe at the parallel level (`stripe`, `hit`).
#: Serial-subtree probes are counted in the table's own counters but not
#: re-emitted per probe — they would dominate the event stream.
EV_TT_PROBE = "tt-probe"
#: A transposition-table store at the parallel level (`stripe`, `evicted`).
EV_TT_STORE = "tt-store"
#: A worker found its table stripe's lock already held (`stripe`, `op`) —
#: the cache's contribution to interference loss.
EV_TT_CONTENTION = "tt-contention"
#: An evaluation-cache probe at the parallel level (`stripe`, `hit`).
#: Serial-subtree probes stay in the cache's own counters, like TT ones.
EV_EVAL_PROBE = "eval-probe"
#: An evaluation-cache store at the parallel level (`stripe`, `evicted`).
EV_EVAL_STORE = "eval-store"
#: One batched static evaluation (`n` leaves amortized in the call).
EV_EVAL_BATCH = "eval-batch"
#: A worker found its eval-cache stripe's lock already held
#: (`stripe`, `op`) — the cache's contribution to interference loss.
EV_EVAL_CONTENTION = "eval-contention"
#: One element of an extracted critical path, synthesized after a run by
#: :func:`repro.obs.critpath.bus_events` (`kind`, `end`, `credit`, `tag`,
#: `node`) — never emitted live.
EV_CRIT_SEGMENT = "crit-segment"

#: Every event type the bus may carry, in documentation order, with the
#: registry metric it feeds (a counter, plus a time series for sampled
#: quantities; see :func:`repro.obs.registry.feed_event`).
EVENT_TYPES: Mapping[str, str] = {
    EV_QUEUE_DEPTH: "queue.depth",
    EV_NODE_CREATED: "nodes.created",
    EV_NODE_POPPED: "nodes.popped",
    EV_NODE_DONE: "nodes.done",
    EV_CLASS_FLIP: "nodes.class_flips",
    EV_TASK_SUBMIT: "tasks.submitted",
    EV_TASK_RESULT: "tasks.completed",
    EV_ENGINE_CHOICE: "engine.choices",
    EV_TT_PROBE: "tt.probes",
    EV_TT_STORE: "tt.stores",
    EV_TT_CONTENTION: "tt.contention",
    EV_EVAL_PROBE: "eval.probes",
    EV_EVAL_STORE: "eval.stores",
    EV_EVAL_BATCH: "eval.batches",
    EV_EVAL_CONTENTION: "eval.contention",
    EV_CRIT_SEGMENT: "critpath.segments",
}

#: The event types alone, in documentation order.
ALL_EVENT_TYPES: tuple[str, ...] = tuple(EVENT_TYPES)


@dataclass(frozen=True)
class ObsEvent:
    """One telemetry event.

    Attributes:
        etype: one of the ``EV_*`` constants above.
        ts: bus-clock timestamp (simulated units or wall seconds).
        task: worker/processor id, or an OS thread id, or -1 when the
            emitter runs outside any worker (e.g. the multiproc
            coordinator before the run starts).
        data: event-type-specific payload, JSON-serializable by
            construction (strings, numbers, booleans).
    """

    etype: str
    ts: float
    task: int
    data: Mapping[str, object] = field(default_factory=dict)


class EventBus:
    """Accumulates events; attach with :func:`observing`."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.events: list[ObsEvent] = []
        #: Simulator op dispatches per op metric (:meth:`count_op`);
        #: folded into a registry by :func:`repro.obs.registry.aggregate`.
        self.op_counts: dict[str, int] = {}
        #: Explicit task id (simulated worker); ``None`` = use thread id.
        self.task: Optional[int] = None
        self._clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        #: Optional live sink called with every emitted event, after it
        #: is appended (``None`` = record-only, the default).  Used by
        #: :class:`repro.obs.live.LiveFeed` to keep a metrics registry
        #: current *during* a run; the sink owns its thread safety.
        self._live_sink: Optional[Callable[[ObsEvent], None]] = None

    def task_id(self) -> int:
        return self.task if self.task is not None else threading.get_ident()

    def now(self) -> float:
        return self._clock()

    def use_clock(self, clock: Optional[Callable[[], float]]) -> Callable[[], float]:
        """Swap the time source (``None`` restores the wall clock).

        Returns:
            The previous source, so nested installers (the simulation
            engine inside :func:`repro.core.er_parallel.parallel_er`)
            can restore it rather than clobber the outer clock.
        """
        prev = self._clock
        self._clock = clock if clock is not None else time.perf_counter
        return prev

    def attach_live(self, sink: Optional[Callable[[ObsEvent], None]]) -> None:
        """Forward every subsequent event to ``sink`` (``None`` detaches).

        The sink runs inline on the emitting thread — keep it cheap and
        make it thread-safe; a raising sink would propagate into the
        instrumented code.
        """
        self._live_sink = sink

    def emit(self, etype: str, task: Optional[int] = None, **data: object) -> None:
        """Record one event stamped with the bus clock.

        Raises:
            ValueError: if ``etype`` is not in :data:`EVENT_TYPES`.
        """
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        event = ObsEvent(etype, self._clock(), task if task is not None else self.task_id(), data)
        self.events.append(event)
        if self._live_sink is not None:
            self._live_sink(event)

    def count_op(self, metric: str) -> None:
        """Tally one simulator op dispatch under the op's declared metric
        (``sim.ops.compute``, ...; see :mod:`repro.sim.ops`)."""
        self.op_counts[metric] = self.op_counts.get(metric, 0) + 1


@contextmanager
def observing(clock: Optional[Callable[[], float]] = None) -> Iterator[EventBus]:
    """Collect telemetry for everything run within the block.

    Attaches a fresh bus as the probe's ``bus`` sink; leaving the block
    restores whatever bus was attached before.

    Yields:
        The bus; read ``bus.events`` / ``bus.op_counts`` after the block.
    """
    from . import probe

    with probe.attached("bus", EventBus(clock)) as bus:
        yield bus
