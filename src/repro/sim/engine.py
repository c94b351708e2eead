"""Deterministic discrete-event engine driving simulated processors.

Workers are generators yielding :mod:`~repro.sim.ops` operations; the
engine interleaves them on a single event queue keyed ``(time, seq)``, so
every run is exactly reproducible — the substitution for the paper's
Sequent Symmetry (DESIGN.md §1).  Python executed between two yields is
atomic in simulated time; locks exist to *charge* contention, and blocked
time is split into interference (lock waits) and starvation (work waits).

The engine also polices the synchronization protocol as it runs: it
tracks each processor's held locks, aborts with
:class:`~repro.errors.LockOrderError` on the first acquisition-order
inversion (see :class:`~repro.sim.locks.LockOrderGraph`), and reports
what it does through the instrumentation probe (:mod:`repro.obs.probe`):
the acquire/release/wait/wake event stream the offline race detector
consumes, one dispatch tally per op for the telemetry bus, and every
charged interval together with its dependency edge (program order, lock
grant, work wake-up), which is exactly the DAG the critical-path walker
needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Generator, Iterable

from ..errors import DeadlockError, LockOrderError, SimulationError, WorkerProtocolError
from ..obs import critpath as _cp
from ..obs import probe as _probe
from .locks import LockOrderGraph, SimLock, WorkSignal
from .metrics import ProcessorMetrics, SimReport
from .ops import Acquire, Compute, Op, Release, WaitWork

Worker = Generator[Op, None, None]


class _State(Enum):
    READY = "ready"
    BLOCKED_LOCK = "blocked-lock"
    BLOCKED_WORK = "blocked-work"
    FINISHED = "finished"


@dataclass
class _Proc:
    worker: Worker
    state: _State = _State.READY
    blocked_since: float = 0.0
    metrics: ProcessorMetrics = field(default_factory=ProcessorMetrics)
    held: list[str] = field(default_factory=list)


class Engine:
    """Runs a fixed set of worker generators to completion.

    Args:
        workers: one generator per simulated processor.
        max_events: safety valve against runaway zero-cost loops.
    """

    def __init__(
        self,
        workers: Iterable[Worker],
        max_events: int = 50_000_000,
    ) -> None:
        self._procs = [_Proc(worker=w) for w in workers]
        if not self._procs:
            raise SimulationError("engine needs at least one worker")
        self._max_events = max_events
        self.now = 0.0
        #: Worker currently driven by the run loop; grant/wake calls made
        #: while it executes record it as the hand-off source (the
        #: dependency edge the critical-path walker follows).
        self._current = -1
        self._seq = 0
        self._queue: list[tuple[float, int, int]] = []
        self._events = 0
        self._running = False
        self._lock_order = LockOrderGraph()

    # -- scheduling primitives -------------------------------------------

    def _schedule(self, wid: int, at: float) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, wid))

    def _wake_from_signal(self, wid: int, signal: WorkSignal) -> None:
        proc = self._procs[wid]
        if proc.state is not _State.BLOCKED_WORK:
            raise SimulationError(f"worker {wid} woken but not waiting on {signal.name!r}")
        proc.metrics.starve_wait += self.now - proc.blocked_since
        p = _probe.CURRENT
        if p is not None:
            p.unblocked(
                wid, _cp.STARVE, proc.blocked_since, self.now, signal.name, self._current
            )
        proc.state = _State.READY
        self._schedule(wid, self.now)

    def _grant_lock(self, lock: SimLock, wid: int) -> None:
        lock.holder = wid
        proc = self._procs[wid]
        proc.held.append(lock.name)
        proc.metrics.lock_wait += self.now - proc.blocked_since
        p = _probe.CURRENT
        if p is not None:
            p.unblocked(
                wid, _cp.LOCK_WAIT, proc.blocked_since, self.now, lock.name, self._current
            )
        proc.state = _State.READY
        self._schedule(wid, self.now)

    # -- op handlers -------------------------------------------------------

    def _handle(self, wid: int, op: Op) -> None:
        proc = self._procs[wid]
        p = _probe.CURRENT
        if p is not None:
            p.dispatched(wid, op, self.now)
        if isinstance(op, Compute):
            proc.metrics.busy += op.units
            self._schedule(wid, self.now + op.units)
        elif isinstance(op, Acquire):
            lock = op.lock
            if lock.holder == wid:
                raise WorkerProtocolError(
                    f"worker {wid} re-acquired {lock.name!r} (non-reentrant)"
                )
            inverted = self._lock_order.record(proc.held, lock.name)
            if inverted:
                raise LockOrderError(
                    f"worker {wid} acquired {lock.name!r} while holding "
                    f"{inverted[0]!r}, but the opposite nesting also occurs"
                )
            if lock.holder is None and not lock.waiters:
                lock.holder = wid
                proc.held.append(lock.name)
                if p is not None:
                    p.acquire(lock.name, wid)
                self._schedule(wid, self.now)
            else:
                lock.waiters.append(wid)
                proc.state = _State.BLOCKED_LOCK
                proc.blocked_since = self.now
        elif isinstance(op, Release):
            lock = op.lock
            if lock.holder != wid:
                raise WorkerProtocolError(
                    f"worker {wid} released {lock.name!r} held by {lock.holder}"
                )
            lock.holder = None
            proc.held.remove(lock.name)
            if p is not None:
                p.release(lock.name, wid)
            if lock.waiters:
                self._grant_lock(lock, lock.waiters.popleft())
            self._schedule(wid, self.now)
        elif isinstance(op, WaitWork):
            op.signal._bind(self)
            if op.signal.version != op.seen_version:
                # Notified between the worker's check and its wait: resume
                # immediately rather than sleeping through the wakeup.
                if p is not None:
                    p.wake(op.signal.name, wid)
                self._schedule(wid, self.now)
            else:
                if p is not None:
                    p.wait(op.signal.name, op.seen_version, op.signal.version, wid)
                op.signal.waiters.append(wid)
                proc.state = _State.BLOCKED_WORK
                proc.blocked_since = self.now
        else:
            raise WorkerProtocolError(f"worker {wid} yielded unknown op {op!r}")

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimReport:
        """Drive all workers to completion; returns the run report.

        Raises:
            DeadlockError: if every unfinished worker is blocked forever.
            LockOrderError: on an acquisition-order inversion.
            SimulationError: if the event budget is exhausted.
        """
        if self._running:
            raise SimulationError("engine instances are single-use")
        self._running = True
        p = _probe.CURRENT
        if p is not None:
            # Order every worker's first step after the setup code that
            # built the shared state (the happens-before edge a thread
            # start would provide).
            p.notify("task-init", 0)
            for wid in range(len(self._procs)):
                p.wake("task-init", wid)
        for wid in range(len(self._procs)):
            self._schedule(wid, 0.0)

        bus = p.bus if p is not None else None
        prev_clock = None
        if bus is not None:
            # Telemetry emitted during this run is stamped in simulated
            # time, so traces line up with the recorded schedule.
            prev_clock = bus.use_clock(lambda: self.now)
        try:
            while self._queue:
                self._events += 1
                if self._events > self._max_events:
                    raise SimulationError(f"exceeded event budget of {self._max_events}")
                self.now, _, wid = heapq.heappop(self._queue)
                proc = self._procs[wid]
                if proc.state is _State.FINISHED:
                    continue
                self._current = wid
                _probe.set_task(wid)
                try:
                    op = proc.worker.send(None)
                except StopIteration:
                    proc.state = _State.FINISHED
                    proc.metrics.finish_time = self.now
                    continue
                self._handle(wid, op)
        finally:
            _probe.set_task(None)
            if bus is not None:
                bus.use_clock(prev_clock)

        unfinished = [i for i, p in enumerate(self._procs) if p.state is not _State.FINISHED]
        if unfinished:
            blocked = {
                i: self._procs[i].state.value for i in unfinished
            }
            raise DeadlockError(f"workers never finished: {blocked}")

        makespan = max((p.metrics.finish_time for p in self._procs), default=0.0)
        for p in self._procs:
            p.metrics.tail_idle = makespan - p.metrics.finish_time
        return SimReport(
            makespan=makespan,
            processors=[p.metrics for p in self._procs],
            events=self._events,
        )


def run_workers(workers: Iterable[Worker], max_events: int = 50_000_000) -> SimReport:
    """Convenience wrapper: build an engine, run it, return the report."""
    return Engine(workers, max_events=max_events).run()
