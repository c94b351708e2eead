"""Live wall-clock tracing and runtime telemetry for the real backends.

The simulated backend's Section 3.1 decomposition is exact because the
engine owns the clock; the *real* backends (threaded, multiproc) used to
expose only end-of-run aggregates — ``ThreadTiming`` totals and
``MultiprocResult.per_worker`` busy splits.  This module closes that gap
with three pieces:

* **Span rings** (:class:`SpanRing`): bounded, preallocated ring buffers
  of ``(category, name, t_start, t_end)`` spans, one per OS worker.  A
  full ring overwrites its oldest span and counts the drop instead of
  growing, so a runaway producer can never balloon the process.  Each
  ring also measures the cost of its own recording
  (:attr:`SpanRing.self_cost_seconds`), which is how the instrumentation
  budget (≤5 % of untraced wall time, asserted by
  ``benchmarks/test_bench_trace_overhead.py``) is accounted rather than
  guessed.  The ``sampled`` trace mode records every
  :data:`SAMPLED_STRIDE`-th span per ring, which is what keeps the hot
  task/cache loops cheap when full fidelity is not needed.
* **Clock calibration** (:class:`OffsetEstimator`): worker spans are
  stamped with the worker's own ``perf_counter``.  On Linux that clock
  is CLOCK_MONOTONIC and shared across processes, but the merge does not
  *assume* it: every task round-trip ``(submit, start, end, receive)``
  bounds the worker-to-coordinator offset to the interval
  ``[submit - start, receive - end]``, intervals intersect across tasks,
  and :func:`merge_spans` rebases each worker's spans by the estimate —
  so all spans land on one coordinator timeline even where the clock
  domains genuinely differ.
* **Live metrics** (:class:`LiveFeed`): an event-bus sink that folds
  each :class:`~repro.obs.events.ObsEvent` into a
  :class:`~repro.obs.registry.MetricsRegistry` *as it is emitted* (via
  :func:`repro.obs.registry.feed_event`, the same code path the post-hoc
  :func:`~repro.obs.registry.aggregate` uses), behind one lock so any
  thread may read a consistent snapshot mid-run.  ``repro-gametree top``
  and the Prometheus exporter (:mod:`repro.obs.promtext`) read from it
  while a search is still running.

Trace data crosses the process boundary on the existing result channel:
workers drain their ring into every task outcome, and a best-effort
drain-on-exit flush collects whatever recorded after the last result.

The one wall-clock seam is :func:`wall_clock` (sanctioned by VER008);
everything else takes time through an injected clock or as a value.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import events as _events
from . import probe as _probe
from . import registry as _registry

__all__ = [
    "TRACE_OFF",
    "TRACE_SAMPLED",
    "TRACE_FULL",
    "TRACE_MODES",
    "SpanRec",
    "SpanRing",
    "WorkerSpan",
    "LiveTrace",
    "LiveFeed",
    "OffsetEstimator",
    "COORDINATOR",
    "TAG_SEPARATOR",
    "install_ring",
    "uninstall_ring",
    "ring_for_mode",
    "merge_spans",
    "render_top",
    "split_span_name",
    "tag_span_name",
    "wall_clock",
]

#: Accepted values of every ``--trace`` flag and ``trace=`` parameter.
TRACE_OFF = "off"
TRACE_SAMPLED = "sampled"
TRACE_FULL = "full"
TRACE_MODES = (TRACE_OFF, TRACE_SAMPLED, TRACE_FULL)

#: Spans a ring holds before overwriting its oldest (per OS worker).
DEFAULT_RING_CAPACITY = 4096

#: In ``sampled`` mode, record one span out of every this-many begun.
SAMPLED_STRIDE = 16

#: Synthetic worker id of coordinator-side spans (heap waits, its own
#: shared-table probes); real workers are indexed 0..n-1.
COORDINATOR = -1

#: One recorded span: ``(category, name, t_start, t_end)`` in the
#: recording process's monotonic seconds.  Categories in use: ``task``
#: (one subtree search), ``tt`` / ``eval`` (shared-cache probe/store),
#: ``heap`` (coordinator/worker waits for work).
SpanRec = tuple[str, str, float, float]


def wall_clock() -> float:
    """The one sanctioned wall-clock seam of this module (VER008)."""
    return time.perf_counter()


#: Separates a span's base name from its request tag.  None of the base
#: names in use ("eval", "refute", "iteration", "request", cache ops)
#: contain it, so the first occurrence splits unambiguously.
TAG_SEPARATOR = "@"


def tag_span_name(name: str, tag: str) -> str:
    """Attach a request tag (``request_id/span_id``) to a span name.

    The tag rides inside the existing ``SpanRec`` name field, so tagged
    spans cross the worker result channel with zero wire changes — the
    coordinator recovers identity with :func:`split_span_name`.
    """
    if TAG_SEPARATOR in name:
        raise ValueError(f"span name {name!r} already carries a tag")
    return f"{name}{TAG_SEPARATOR}{tag}"


def split_span_name(name: str) -> tuple[str, Optional[str]]:
    """``(base_name, tag)``; tag is ``None`` for untagged spans."""
    base, sep, tag = name.partition(TAG_SEPARATOR)
    return (base, tag if sep else None)


class SpanRing:
    """Bounded ring buffer of spans with self-measured recording cost.

    The slot list is preallocated once; recording overwrites slots in
    place and never grows the buffer, so a saturated ring costs O(1)
    per span and a fixed amount of memory for the life of the worker.

    Args:
        capacity: slot count; once exceeded the oldest span is
            overwritten and :attr:`dropped` incremented.
        stride: record one span per ``stride`` calls to :meth:`begin`
            (1 = every span; :data:`SAMPLED_STRIDE` for ``sampled``
            mode).  Pre-measured spans via :meth:`record` are also
            strided so the hot task loop pays the same discount.
        clock: injectable time source (tests pass a fake); defaults to
            :func:`wall_clock`.
    """

    __slots__ = (
        "capacity",
        "_slots",
        "_count",
        "_total",
        "_dropped",
        "_tick",
        "_stride",
        "_clock",
        "self_cost_seconds",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        *,
        stride: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        if stride < 1:
            raise ValueError("ring stride must be positive")
        self.capacity = capacity
        self._slots: list[Optional[SpanRec]] = [None] * capacity
        #: Spans stored since the last drain (wraps drive overwrites).
        self._count = 0
        #: Lifetime totals; survive :meth:`drain` so workers can ship
        #: cumulative values with every result.
        self._total = 0
        self._dropped = 0
        self._tick = 0
        self._stride = stride
        self._clock: Callable[[], float] = clock if clock is not None else wall_clock
        #: Accumulated seconds spent inside :meth:`end`/:meth:`record`
        #: themselves (clock read + slot store).  Measured per span —
        #: sampling this and scaling up would amplify scheduler
        #: preemptions landing in the measured window.  The paired
        #: :meth:`begin` clock read is of the same order, so doubling
        #: this is a fair estimate of total recording cost.
        self.self_cost_seconds = 0.0

    # -- recording ----------------------------------------------------------

    def begin(self) -> float:
        """Start a span: its start timestamp, or ``-1.0`` if sampled out.

        A negative token makes the matching :meth:`end` a no-op, so
        call sites need no mode check beyond ``ring is not None``.
        """
        self._tick += 1
        if self._tick % self._stride:
            return -1.0
        return self._clock()

    def end(self, cat: str, name: str, token: float) -> None:
        """Close the span opened by :meth:`begin` (no-op when sampled out)."""
        if token < 0.0:
            return
        t_end = self._clock()
        count = self._count
        if count >= self.capacity:
            self._dropped += 1
        self._slots[count % self.capacity] = (cat, name, token, t_end)
        self._count = count + 1
        self._total += 1
        self.self_cost_seconds += self._clock() - t_end

    def record(self, cat: str, name: str, t_start: float, t_end: float) -> None:
        """Store a span whose endpoints were already measured.

        Subject to the same sampling stride as :meth:`begin`, so hot
        call sites that happen to have timestamps in hand (the multiproc
        task loop) pay the same discount in ``sampled`` mode.
        """
        self._tick += 1
        if self._tick % self._stride:
            return
        t0 = self._clock()
        count = self._count
        if count >= self.capacity:
            self._dropped += 1
        self._slots[count % self.capacity] = (cat, name, t_start, t_end)
        self._count = count + 1
        self._total += 1
        self.self_cost_seconds += self._clock() - t0

    # -- introspection ------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Spans stored over the ring's lifetime (including overwritten)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Spans lost to overwriting, over the ring's lifetime."""
        return self._dropped

    def drain(self) -> list[SpanRec]:
        """Remove and return the buffered spans, oldest first.

        Drop and self-cost counters survive the drain — they describe
        the ring's lifetime, and the multiproc workers ship them with
        every result so the coordinator sees cumulative values.
        """
        out = self.peek()
        self._slots = [None] * self.capacity
        self._count = 0
        return out

    def peek(self) -> list[SpanRec]:
        """The buffered spans, oldest first, *without* clearing them.

        The flight recorder uses this to snapshot a live ring while the
        overrunning request is still in flight — a drain there would
        steal spans from the run's own end-of-run trace.
        """
        held = min(self._count, self.capacity)
        start = (self._count - held) % self.capacity
        out: list[SpanRec] = []
        for i in range(held):
            span = self._slots[(start + i) % self.capacity]
            if span is not None:
                out.append(span)
        return out

    def snapshot_counters(self) -> tuple[int, float]:
        """``(dropped, self_cost_seconds)`` — shipped alongside drains."""
        return self._dropped, self.self_cost_seconds


def ring_for_mode(
    mode: str,
    *,
    capacity: int = DEFAULT_RING_CAPACITY,
    clock: Optional[Callable[[], float]] = None,
) -> Optional[SpanRing]:
    """A ring configured for ``mode``, or ``None`` for ``off``."""
    if mode not in TRACE_MODES:
        raise ValueError(f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}")
    if mode == TRACE_OFF:
        return None
    stride = SAMPLED_STRIDE if mode == TRACE_SAMPLED else 1
    return SpanRing(capacity, stride=stride, clock=clock)


def install_ring(mode: str, *, capacity: int = DEFAULT_RING_CAPACITY) -> Optional[SpanRing]:
    """Attach (and return) this process's span ring for ``mode``.

    The ring is the ``ring`` sink of the one instrumentation probe
    (:mod:`repro.obs.probe`); span sites (the shared-cache probe/store,
    the multiproc task loop) read it from there, so with no sink
    attached they pay one module-global load.  Worker processes attach
    theirs in the pool initializer; the multiproc coordinator attaches
    its own for the duration of a run.  ``off`` detaches.
    """
    ring = ring_for_mode(mode, capacity=capacity)
    _probe.attach("ring", ring)
    return ring


def uninstall_ring() -> None:
    """Detach this process's span ring."""
    _probe.attach("ring", None)


# ---------------------------------------------------------------------------
# Clock-offset calibration.
# ---------------------------------------------------------------------------


class OffsetEstimator:
    """Bounds one worker clock's offset from the coordinator clock.

    For a task submitted at coordinator time ``c0``, executed on the
    worker clock over ``[w0, w1]``, and received back at coordinator
    time ``c1``, the true offset δ (coordinator = worker + δ) satisfies
    ``c0 <= w0 + δ`` and ``w1 + δ <= c1``, i.e. δ lies in
    ``[c0 - w0, c1 - w1]``.  Observing many tasks intersects the
    intervals; :attr:`offset` is then 0 when the intersection allows it
    (the common same-clock-domain case, where snapping to zero beats
    adding estimator noise) and the interval midpoint otherwise.
    """

    __slots__ = ("lo", "hi", "observations")

    def __init__(self) -> None:
        self.lo = float("-inf")
        self.hi = float("inf")
        self.observations = 0

    def observe(self, c_submit: float, w_start: float, w_end: float, c_receive: float) -> None:
        """Tighten the bounds with one task round-trip."""
        self.lo = max(self.lo, c_submit - w_start)
        self.hi = min(self.hi, c_receive - w_end)
        self.observations += 1

    @property
    def width(self) -> float:
        """Remaining uncertainty of the offset, in seconds."""
        return self.hi - self.lo

    @property
    def offset(self) -> float:
        """Best estimate of δ (coordinator = worker + δ)."""
        if not self.observations:
            return 0.0
        lo, hi = self.lo, self.hi
        if lo <= 0.0 <= hi:
            return 0.0
        if lo > hi:
            # Inconsistent bounds (clock drift within the run, or
            # scheduler noise on tiny tasks): split the difference.
            return (lo + hi) / 2.0
        return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Merged timeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpan:
    """One span rebased onto the coordinator timeline."""

    worker: int
    cat: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def merge_spans(
    spans_by_worker: Mapping[int, Sequence[SpanRec]],
    offsets: Mapping[int, float],
) -> tuple[WorkerSpan, ...]:
    """Rebase every worker's spans onto the coordinator clock and sort."""
    merged: list[WorkerSpan] = []
    for worker, spans in spans_by_worker.items():
        delta = offsets.get(worker, 0.0)
        for cat, name, t_start, t_end in spans:
            merged.append(WorkerSpan(worker, cat, name, t_start + delta, t_end + delta))
    merged.sort(key=lambda s: (s.start, s.worker, s.end))
    return tuple(merged)


@dataclass(frozen=True)
class LiveTrace:
    """The merged wall-clock trace of one real-backend run.

    Attributes:
        mode: the trace mode the run used (``sampled`` or ``full``).
        spans: every collected span, on the coordinator timeline.
        pids: OS pid per worker index (coordinator's own pid under
            :data:`COORDINATOR`), so exported timelines can label one
            row per OS worker.
        dropped: per-worker spans lost to ring overwrites.
        offsets: per-worker clock offset applied during the merge.
        self_cost_seconds: summed self-measured recording cost across
            every ring (coordinator included) — the numerator of the
            instrumentation-overhead budget.
    """

    mode: str
    spans: tuple[WorkerSpan, ...]
    pids: dict[int, int] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)
    offsets: dict[int, float] = field(default_factory=dict)
    self_cost_seconds: float = 0.0

    def workers(self) -> list[int]:
        """Worker ids with at least one span or a known pid, sorted."""
        ids = {span.worker for span in self.spans} | set(self.pids)
        return sorted(ids)

    def busy_seconds(self, cat: str = "task") -> dict[int, float]:
        """Summed span seconds per worker for one category."""
        out: dict[int, float] = {}
        for span in self.spans:
            if span.cat == cat:
                out[span.worker] = out.get(span.worker, 0.0) + span.duration
        return out

    @property
    def total_dropped(self) -> int:
        """Spans lost to ring overwrites, summed across every worker."""
        return sum(self.dropped.values())

    def overhead_fraction(self, wall_time: float) -> float:
        """Self-measured recording cost as a fraction of the run's wall time."""
        if wall_time <= 0.0:
            return 0.0
        return self.self_cost_seconds / wall_time


# ---------------------------------------------------------------------------
# Live metrics feed.
# ---------------------------------------------------------------------------


class LiveFeed:
    """Thread-safe incremental registry feed for an event bus.

    Attach to a bus with ``bus.attach_live(feed.on_event)``: every
    emitted event is folded into the registry immediately (same
    :func:`repro.obs.registry.feed_event` path as the post-hoc
    aggregation), so ``repro-gametree top`` and the Prometheus endpoint
    can read consistent metrics *while the search runs* instead of
    reconstructing them afterwards.
    """

    def __init__(self, registry: Optional[_registry.MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else _registry.MetricsRegistry()
        self._lock = threading.Lock()
        self.n_events = 0

    def on_event(self, event: _events.ObsEvent) -> None:
        with self._lock:
            _registry.feed_event(self.registry, event)
            self.n_events += 1

    def collect(self) -> dict[str, _registry.MetricValue]:
        """A consistent snapshot of every metric, safe mid-run."""
        with self._lock:
            return self.registry.collect()


# ---------------------------------------------------------------------------
# Terminal live view (``repro-gametree top``).
# ---------------------------------------------------------------------------


def _as_float(value: object, default: float = 0.0) -> float:
    return float(value) if isinstance(value, (int, float)) else default


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    metrics: Mapping[str, _registry.MetricValue],
    *,
    workload: str,
    backend: str,
    n_workers: int,
    elapsed: float,
    done: bool = False,
) -> str:
    """Render one frame of the live view from a registry snapshot.

    Pure function of the metrics mapping (as returned by
    :meth:`LiveFeed.collect`), so it is unit-testable without a running
    search; the CLI loop owns screen clearing and refresh pacing.
    """
    submitted = _as_float(metrics.get("tasks.submitted"))
    completed = _as_float(metrics.get("tasks.completed"))
    in_flight = max(0.0, submitted - completed)
    state = "done" if done else "running"
    lines = [
        f"repro-gametree top — {workload} {backend} P={n_workers}  "
        f"[{state}, {elapsed:6.2f}s]",
        f"tasks: submitted={submitted:.0f} completed={completed:.0f} "
        f"in-flight={in_flight:.0f}   nodes done={_as_float(metrics.get('nodes.done')):.0f}",
    ]
    depth_parts = []
    for key in sorted(metrics):
        if key.startswith("queue.depth.") and key.endswith(".current"):
            queue = key[len("queue.depth.") : -len(".current")]
            depth_parts.append(f"{queue}={_as_float(metrics.get(key)):.0f}")
    if depth_parts:
        lines.append("queue depth: " + "  ".join(depth_parts))
    cache_parts = []
    for prefix in ("tt", "eval"):
        hits = _as_float(metrics.get(f"{prefix}.hits"))
        misses = _as_float(metrics.get(f"{prefix}.misses"))
        if hits or misses:
            rate = hits / (hits + misses) if hits + misses else 0.0
            cache_parts.append(f"{prefix}: {hits:.0f}/{hits + misses:.0f} ({rate:.0%})")
    if cache_parts:
        lines.append("cache hits: " + "  ".join(cache_parts))

    lines.append("")
    lines.append(f"{'worker':>8s}  {'busy s':>8s}  {'wasted s':>8s}  utilization")
    denominator = elapsed if elapsed > 0 else 1.0
    for worker in range(n_workers):
        busy = _as_float(metrics.get(f"workers.w{worker}.busy_applied_seconds"))
        wasted = _as_float(metrics.get(f"workers.w{worker}.busy_wasted_seconds"))
        lines.append(
            f"{f'w{worker}':>8s}  {busy:8.3f}  {wasted:8.3f}  "
            f"{_bar((busy + wasted) / denominator)}"
        )
    return "\n".join(lines) + "\n"


def spans_as_events(spans: Iterable[WorkerSpan]) -> list[_events.ObsEvent]:
    """View merged spans as bus events (for JSONL export and diffing)."""
    return [
        _events.ObsEvent(
            "live-span",
            span.start,
            span.worker,
            {"cat": span.cat, "name": span.name, "end": span.end},
        )
        for span in spans
    ]
