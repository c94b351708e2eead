"""Metrics registry: counters, gauges, histograms, time-series samplers.

One naming scheme and one aggregation path for quantities that used to
live in three places — :class:`~repro.sim.metrics.ProcessorMetrics`,
:class:`~repro.search.stats.SearchStats`, and the parallel drivers'
ad-hoc counter dicts.  :func:`aggregate` folds an event bus into a
registry; :mod:`repro.obs.snapshot` then freezes registry + per-backend
reports into one comparable :class:`~repro.obs.snapshot.Snapshot`.

Metric names are declared where their sources are: each simulator op
class names its counter (:mod:`repro.sim.ops`), and each bus event type
its metric (:data:`repro.obs.events.EVENT_TYPES`), so no op or event can
exist without deciding how it is accounted.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union, overload

from . import events

MetricValue = Union[float, int, dict[str, float], list[tuple[float, float]]]


@dataclass
class Counter:
    """Monotonically increasing tally."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Streaming summary of an observed distribution.

    With ``bounds`` set (ascending upper bucket edges), the histogram
    additionally counts observations per bucket, and :meth:`summary`
    exposes Prometheus-style cumulative ``le:<bound>`` keys — which is
    what lets :mod:`repro.obs.promtext` render a real ``histogram``
    family (with ``+Inf`` implied by ``count``) instead of a summary.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    bounds: tuple[float, ...] = ()
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly ascending")
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        if not self.count:
            out = {"count": 0.0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        else:
            out = {
                "count": float(self.count),
                "total": self.total,
                "mean": self.mean,
                "min": self.minimum,
                "max": self.maximum,
            }
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            cumulative += bucket
            out[f"le:{bound:g}"] = float(cumulative)
        return out


class SampleView(Sequence[tuple[float, float]]):
    """Read-only ``(ts, value)`` view over a :class:`TimeSeries`' columns.

    Indexing yields one pair, slicing a list of pairs; the view tracks
    the series as it grows.
    """

    __slots__ = ("_ts", "_values")

    def __init__(self, ts: array[float], values: array[float]) -> None:
        self._ts = ts
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    @overload
    def __getitem__(self, index: int) -> tuple[float, float]: ...

    @overload
    def __getitem__(self, index: slice) -> list[tuple[float, float]]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[tuple[float, float], list[tuple[float, float]]]:
        if isinstance(index, slice):
            return list(zip(self._ts[index], self._values[index]))
        return self._ts[index], self._values[index]

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self._ts, self._values)


class TimeSeries:
    """Timestamped samples of one evolving quantity (e.g. a queue depth).

    Samples live in two ``array('d')`` columns, 16 bytes each, with a
    running peak, so a scrape costs O(1).  The series is unbounded:
    readers address samples by absolute index (``samples[a:b]`` between
    two marks), which trimming would shift.
    """

    def __init__(self) -> None:
        self._ts: array[float] = array("d")
        self._values: array[float] = array("d")
        self._peak = 0.0
        self.samples = SampleView(self._ts, self._values)

    def sample(self, ts: float, value: float) -> None:
        if not self._values or value > self._peak:
            self._peak = value
        self._ts.append(ts)
        self._values.append(value)

    @property
    def peak(self) -> float:
        return self._peak

    @property
    def last(self) -> float:
        return self._values[-1] if self._values else 0.0


class MetricsRegistry:
    """Get-or-create store of named metrics, one namespace per run."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, *, bounds: tuple[float, ...] = ()
    ) -> Histogram:
        """Get or create a histogram; ``bounds`` only applies on creation."""
        return self._histograms.setdefault(name, Histogram(bounds=bounds))

    def timeseries(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries()
        return series

    def collect(self) -> dict[str, MetricValue]:
        """Flatten every metric to plain JSON-serializable values."""
        out: dict[str, MetricValue] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        for name, series in self._series.items():
            out[name] = {
                "peak": series.peak,
                "last": series.last,
                "samples": float(len(series.samples)),
            }
        return out


def feed_event(registry: MetricsRegistry, event: events.ObsEvent) -> None:
    """Fold one event into a registry.

    This is the single accounting path for bus events: the post-hoc
    :func:`aggregate` and the live incremental feed
    (:class:`repro.obs.live.LiveFeed`) both call it, so a metric visible
    mid-run via ``repro-gametree top`` is byte-for-byte the metric the
    snapshot and ledger see after the run.

    Every event bumps its mapped counter; queue-depth events additionally
    feed one time series per queue (so snapshots can report peak depth),
    and task results feed a duration histogram plus per-worker
    busy-applied / busy-wasted second counters.
    """
    metric = events.EVENT_TYPES[event.etype]
    registry.counter(metric).inc()
    if event.etype == events.EV_QUEUE_DEPTH:
        queue = str(event.data.get("queue", "unknown"))
        depth = float(event.data.get("depth", 0))  # type: ignore[arg-type]
        registry.timeseries(f"{metric}.{queue}").sample(event.ts, depth)
        registry.gauge(f"{metric}.{queue}.current").set(depth)
    elif event.etype == events.EV_TASK_RESULT:
        duration = float(event.data.get("duration", 0.0))  # type: ignore[arg-type]
        registry.histogram("tasks.duration_seconds").observe(duration)
        worker = event.data.get("worker")
        if isinstance(worker, int) and worker >= 0:
            bucket = (
                "busy_applied_seconds"
                if bool(event.data.get("applied", True))
                else "busy_wasted_seconds"
            )
            registry.counter(f"workers.w{worker}.{bucket}").inc(duration)
    elif event.etype == events.EV_TT_PROBE:
        outcome = "tt.hits" if bool(event.data.get("hit", False)) else "tt.misses"
        registry.counter(outcome).inc()
    elif event.etype == events.EV_TT_STORE:
        if bool(event.data.get("evicted", False)):
            registry.counter("tt.evictions").inc()
    elif event.etype == events.EV_EVAL_PROBE:
        outcome = "eval.hits" if bool(event.data.get("hit", False)) else "eval.misses"
        registry.counter(outcome).inc()
    elif event.etype == events.EV_EVAL_BATCH:
        leaves = float(event.data.get("n", 0))  # type: ignore[arg-type]
        registry.histogram("eval.batch_leaves").observe(leaves)


def aggregate(bus: events.EventBus) -> MetricsRegistry:
    """Fold one observed run into a registry.

    Same per-event accounting as the live feed — both delegate to
    :func:`feed_event` — plus the simulator op-dispatch tallies that only
    exist post-hoc on the bus.
    """
    registry = MetricsRegistry()
    for metric, count in sorted(bus.op_counts.items()):
        registry.counter(metric).inc(count)
    for event in bus.events:
        feed_event(registry, event)
    return registry
