"""Real-thread execution of the parallel ER problem heap.

The simulated engine answers the paper's *performance* questions; this
module answers the *correctness-under-concurrency* one: the very same
worker generators that run on the discrete-event engine are driven here
by OS threads, with each simulation op interpreted against real
synchronization primitives:

* ``Compute``      -> nothing (the Python work already happened)
* ``Acquire/Release`` -> a real ``threading.Lock``
* ``WaitWork``     -> a ``threading.Condition`` wait (with a short timeout
  so a lost wakeup can never wedge the run)

Because CPython's GIL serializes bytecode, no speedup is expected or
measured — this exists to demonstrate that the heap/tree protocol is
correct under genuinely nondeterministic interleavings, which the test
suite exercises with many thread counts and seeds.

Two verification features mirror the simulator's (DESIGN.md
"Verification"):

* the driver records every nested acquisition in a shared
  :class:`~repro.sim.locks.LockOrderGraph` (under its own meta-lock) and
  raises :class:`~repro.errors.LockOrderError` *before* taking a lock
  that inverts an observed order — failing fast beats deadlocking a test
  run;
* with a :mod:`repro.verify.trace` recorder attached to the
  instrumentation probe, the driver emits
  acquire/release events attributed to the OS thread id — ``ACQUIRE``
  after the real acquire and ``RELEASE`` before the real release, so the
  recorded critical sections nest properly in the linearized event list
  (``list.append`` is atomic under the GIL).  Wait/wake events are *not*
  emitted: a timed-out ``Condition.wait`` resumes without any notify, so
  a wake edge would claim happens-before ordering that never happened;
  all real data handoffs are ordered by the locks.  A ``task-init``
  notify/wake pair orders each worker's first step after the setup code
  that built the shared state.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Generator, Optional

from ..cache.striped import AnyTT
from ..core.er_parallel import ERConfig, _Context, _worker
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import LockOrderError, SearchError, SimulationError
from ..games.base import SearchProblem
from ..obs import live as _live
from ..obs import probe as _probe
from ..search.stats import SearchStats
from ..sim.locks import LockOrderGraph, SimLock
from ..sim.ops import Acquire, Compute, Op, Release, WaitWork

#: Upper bound on a single WaitWork nap; keeps lost wakeups harmless.
_WAIT_SLICE_SECONDS = 0.002


@dataclass(frozen=True)
class ThreadTiming:
    """Measured wall-clock decomposition of one worker thread's life.

    ``busy`` is the residual of the thread's lifetime after lock waits
    (interference) and work waits (starvation) — under the GIL it is
    bytecode-interleaved "runnable" time, not parallel CPU time.
    """

    busy: float
    lock_wait: float
    starve_wait: float
    wall: float


@dataclass(frozen=True)
class ThreadedRun:
    """Full observable outcome of one real-thread run.

    ``trace`` is the merged span timeline when the run was traced
    (``trace="sampled"``/``"full"``), else ``None`` — same shape as the
    multiproc backend's, with zero clock offsets because every thread
    shares the process clock.
    """

    value: float
    stats: SearchStats
    wall_time: float
    timings: tuple[ThreadTiming, ...]
    counters: dict[str, int]
    trace: Optional[_live.LiveTrace] = None


class _ThreadedDriver:
    """Interprets one worker generator against real primitives."""

    def __init__(self, ctx: _Context, deadline: float, trace_mode: str = _live.TRACE_OFF) -> None:
        self.ctx = ctx
        self.deadline = deadline
        self.trace_mode = trace_mode
        # Lazily populated: the distributed-heap variant creates one lock
        # per processor.  dict.setdefault is atomic under the GIL, so two
        # threads racing to create the same entry agree on the winner.
        self.locks: dict[SimLock, threading.Lock] = {}
        self.condition = threading.Condition()
        self.errors: list[BaseException] = []
        #: Per-worker timing, keyed by worker id; each thread writes a
        #: distinct key, so GIL-atomic dict stores need no extra lock.
        self.timings: dict[int, ThreadTiming] = {}
        #: Per-worker span ring (traced runs only) — one ring per thread,
        #: written by that thread alone, so no synchronization is needed;
        #: GIL-atomic dict stores publish them like ``timings``.
        self.rings: dict[int, _live.SpanRing] = {}
        self._order = LockOrderGraph()
        self._order_lock = threading.Lock()

    def _real_lock(self, sim_lock: SimLock) -> threading.Lock:
        return self.locks.setdefault(sim_lock, threading.Lock())

    def wake_all(self) -> None:
        with self.condition:
            self.condition.notify_all()

    def _check_order(self, held: list[str], acquiring: str) -> None:
        with self._order_lock:
            inverted = self._order.record(held, acquiring)
        if inverted:
            raise LockOrderError(
                f"thread {threading.current_thread().name} acquired "
                f"{acquiring!r} while holding {inverted[0]!r}, but the opposite "
                "nesting also occurs"
            )

    def drive(self, worker: Generator[Op, None, None], wid: int = 0) -> None:
        held: list[str] = []
        lock_wait = 0.0
        starve_wait = 0.0
        ring = _live.ring_for_mode(self.trace_mode)
        if ring is not None:
            self.rings[wid] = ring
        t_start = time.perf_counter()
        p = _probe.CURRENT
        if p is not None:
            p.wake("task-init")
        try:
            for op in worker:
                if isinstance(op, Compute):
                    continue
                if isinstance(op, Acquire):
                    self._check_order(held, op.lock.name)
                    t0 = time.perf_counter()
                    self._real_lock(op.lock).acquire()
                    t1 = time.perf_counter()
                    lock_wait += t1 - t0
                    if ring is not None:
                        ring.record("lock", op.lock.name, t0, t1)
                    held.append(op.lock.name)
                    p = _probe.CURRENT
                    if p is not None:
                        p.acquire(op.lock.name)
                elif isinstance(op, Release):
                    lock = self._real_lock(op.lock)
                    p = _probe.CURRENT
                    if p is not None:
                        p.release(op.lock.name)
                    held.remove(op.lock.name)
                    lock.release()
                    # Work may have been published: give sleepers a poke.
                    self.wake_all()
                elif isinstance(op, WaitWork):
                    t0 = time.perf_counter()
                    with self.condition:
                        if op.signal.version == op.seen_version and not self.ctx.done:
                            self.condition.wait(timeout=_WAIT_SLICE_SECONDS)
                    t1 = time.perf_counter()
                    starve_wait += t1 - t0
                    if ring is not None:
                        ring.record("heap", "wait-work", t0, t1)
                else:  # pragma: no cover - protocol guard
                    raise SimulationError(f"threaded driver cannot run {op!r}")
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            self.errors.append(exc)
            self.ctx.done = True
            while held:  # do not wedge peers on an abandoned lock
                name = held.pop()
                for sim_lock, real in self.locks.items():
                    if sim_lock.name == name:
                        real.release()
                        break
            self.wake_all()
        finally:
            t_end = time.perf_counter()
            wall = t_end - t_start
            if ring is not None:
                ring.record("task", "drive", t_start, t_end)
            self.timings[wid] = ThreadTiming(
                busy=max(0.0, wall - lock_wait - starve_wait),
                lock_wait=lock_wait,
                starve_wait=starve_wait,
                wall=wall,
            )


def threaded_er_observed(
    problem: SearchProblem,
    n_threads: int,
    *,
    config: Optional[ERConfig] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    timeout: float = 60.0,
    tt: Optional[AnyTT] = None,
    eval_cache: Optional[AnyTT] = None,
    batch_eval: bool = False,
    trace: str = _live.TRACE_OFF,
) -> ThreadedRun:
    """Run parallel ER's problem-heap protocol on real OS threads.

    ``trace`` (``off``/``sampled``/``full``) attaches one bounded span
    ring per thread recording lock waits, work waits, and the thread's
    whole drive; the merged timeline lands on ``run.trace``.  Threads
    share one clock, so no offset calibration is involved.

    ``tt`` attaches a transposition table (:func:`repro.cache.make_tt`);
    the worker generators' table ops yield ``Acquire``/``Release`` on the
    per-stripe SimLocks, which this driver maps to real locks like any
    other, while the serial subtrees call the table's thread-safe
    ``probe``/``store`` directly.  ``eval_cache`` and ``batch_eval``
    attach the batched static-evaluation subsystem the same way: the
    parallel leaf path probes/stores the cache through its SimLock ops,
    and serial subtrees go through an :class:`~repro.eval.Evaluator`
    whose cache calls are internally thread-safe.

    Returns:
        A :class:`ThreadedRun` with the root value, merged stats, total
        wall time, per-thread busy/lock/starve timings, and the protocol
        counters — the shape :func:`repro.obs.snapshot.snapshot_from_threaded`
        consumes.  The value must equal the serial result — asserted
        across the test suite under many interleavings.

    Raises:
        SimulationError: if a worker thread raised or the run timed out.
        LockOrderError: if workers nested two locks in opposite orders.
    """
    if n_threads < 1:
        raise SearchError("need at least one thread")
    if config is None:
        config = ERConfig()
    ctx = _Context(
        problem, cost_model, config, trace=False, n_processors=n_threads,
        tt=tt, eval_cache=eval_cache, batch_eval=batch_eval,
    )
    if trace not in _live.TRACE_MODES:
        raise SearchError(
            f"unknown trace mode {trace!r}; expected one of {_live.TRACE_MODES}"
        )
    driver = _ThreadedDriver(ctx, timeout, trace)
    stats = [SearchStats() for _ in range(n_threads)]
    p = _probe.CURRENT
    if p is not None:
        # Happens-before edge from the setup above (root pushed, queues
        # built) to every worker's first step; each drive() emits the
        # matching wake.
        p.notify("task-init", 0)
    threads = [
        threading.Thread(
            target=driver.drive,
            args=(_worker(ctx, stats[i], pid=i), i),
            name=f"er-worker-{i}",
            daemon=True,
        )
        for i in range(n_threads)
    ]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        if thread.is_alive():
            ctx.done = True
            driver.wake_all()
            raise SimulationError("threaded ER timed out")
    wall_time = time.perf_counter() - t_start
    # Every worker has exited: only the root value is read from here on.
    ctx.release()
    if driver.errors:
        raise SimulationError(f"worker thread failed: {driver.errors[0]!r}") from driver.errors[0]
    if not ctx.done:
        raise SimulationError("threaded ER finished without combining the root")
    merged = SearchStats()
    for s in stats:
        merged.merge(s)
    timings = tuple(
        driver.timings.get(i, ThreadTiming(0.0, 0.0, 0.0, 0.0)) for i in range(n_threads)
    )
    counters = dict(ctx.counters)
    if tt is not None:
        counters.update(tt.counter_snapshot())
    if eval_cache is not None:
        counters.update(eval_cache.counter_snapshot())
    live_trace: Optional[_live.LiveTrace] = None
    if trace != _live.TRACE_OFF:
        spans_by_worker = {wid: ring.drain() for wid, ring in driver.rings.items()}
        live_trace = _live.LiveTrace(
            mode=trace,
            spans=_live.merge_spans(spans_by_worker, {}),
            pids={wid: os.getpid() for wid in driver.rings},
            dropped={wid: ring.dropped for wid, ring in driver.rings.items()},
            offsets={},
            self_cost_seconds=sum(r.self_cost_seconds for r in driver.rings.values()),
        )
    return ThreadedRun(
        value=ctx.root.value,
        stats=merged,
        wall_time=wall_time,
        timings=timings,
        counters=counters,
        trace=live_trace,
    )


def threaded_er(
    problem: SearchProblem,
    n_threads: int,
    *,
    config: Optional[ERConfig] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    timeout: float = 60.0,
    tt: Optional[AnyTT] = None,
    eval_cache: Optional[AnyTT] = None,
    batch_eval: bool = False,
) -> tuple[float, SearchStats]:
    """Compatibility wrapper over :func:`threaded_er_observed`.

    Returns:
        ``(root_value, merged_stats)``.
    """
    run = threaded_er_observed(
        problem, n_threads, config=config, cost_model=cost_model, timeout=timeout,
        tt=tt, eval_cache=eval_cache, batch_eval=batch_eval,
    )
    return run.value, run.stats
