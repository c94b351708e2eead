"""Exact critical-path extraction over the simulated ER schedule.

The discrete-event engine charges every simulated microsecond to exactly
one interval per processor — busy (a ``Compute``), interference (a lock
wait), or starvation (a work wait) — and the telemetry invariants pin
the tiling: ``accounted == finish_time`` and ``accounted + tail_idle ==
makespan`` per processor (see :mod:`repro.sim.metrics`).  A
:class:`ScheduleRecorder` attached during a run captures those
intervals *with their dependency edges*:

* program order: on one processor, each interval starts where the
  previous one ended;
* lock hand-off: a lock-wait interval ends at the instant the releasing
  processor executed ``Release`` — the releaser is recorded as ``src``;
* work hand-off: a starvation interval ends at the instant the notifying
  processor called ``notify_all`` — again recorded as ``src``
  (the engine's wake-ups; see :mod:`repro.sim.locks`);
* heap hand-off: queue pops in :mod:`repro.core.er_queues` record which
  queue served each tree node, so blame rows can name the origin.

:func:`extract` walks this record *backwards* from the makespan: inside
a busy interval it follows program order; at the end of a wait interval
it jumps to the ``src`` processor, because that hand-off — not the
waiter's own history — is what the finish time actually depends on.
Wait intervals contribute zero path time (they are concurrent with the
``src`` processor's busy time); busy credits telescope, so the path
length equals the makespan *exactly*, by construction — asserted, not
approximated.  Everything here is pure arithmetic over the recorded
floats, so reports and overlays are byte-deterministic at a fixed seed.

The recorder is the one record of the simulated schedule: the Gantt
chart (:mod:`repro.analysis.gantt`), the Perfetto schedule tracks
(:mod:`repro.obs.export`) and the §3.1 loss split
(:mod:`repro.analysis.losses`) all read its intervals.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..errors import SimulationError
from . import events as _events

#: Interval kinds: a processor-instant is busy, lock-blocked or starving.
BUSY = "busy"
LOCK_WAIT = "lock"
STARVE = "starve"

#: Fractional cost decomposition attached to mixed charges:
#: ``(("static_eval", 40.0), ("expansion", 10.0))`` — raw weights,
#: normalised at attribution time.
Parts = tuple[tuple[str, float], ...]

#: Tag used when a busy charge carries no primitive annotation.
UNTAGGED = "(untagged)"


@dataclass(frozen=True)
class Interval:
    """One charged interval on one simulated processor.

    For ``kind == BUSY`` the charge metadata (``tag``/``node``/``cls``/
    ``parts``/``keys``) comes from the ``Compute`` op; for waits, ``tag`` names
    the lock or signal waited on and ``src`` the processor whose
    release/notify ended the wait.
    """

    wid: int
    kind: str
    start: float
    end: float
    tag: str = ""
    node: str = ""
    cls: str = ""
    parts: Parts = ()
    keys: tuple[tuple[int, float], ...] = ()
    src: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class ScheduleRecorder:
    """Collects the dependency-annotated schedule of one sim run.

    Attach via :func:`recording`; the engine and the ER queues feed it
    as the ``schedule`` sink of the one instrumentation probe
    (:mod:`repro.obs.probe`), beside the race trace, the event bus and
    the span ring.
    """

    def __init__(self) -> None:
        self.intervals: list[Interval] = []
        #: node path -> name of the queue that last served it.
        self.node_queue: dict[str, str] = {}

    def on_busy(
        self,
        wid: int,
        start: float,
        end: float,
        tag: str = "",
        node: str = "",
        cls: str = "",
        parts: Parts = (),
        keys: tuple[tuple[int, float], ...] = (),
    ) -> None:
        """Record a positive-length ``Compute`` charge."""
        self.intervals.append(
            Interval(wid=wid, kind=BUSY, start=start, end=end, tag=tag,
                     node=node, cls=cls, parts=parts, keys=keys)
        )

    def on_wait(
        self, wid: int, kind: str, start: float, end: float, via: str, src: int
    ) -> None:
        """Record a positive-length lock or work wait ended by ``src``."""
        self.intervals.append(
            Interval(wid=wid, kind=kind, start=start, end=end, tag=via, src=src)
        )

    def on_pop(self, queue: str, node: str) -> None:
        """Record which heap queue handed out a tree node."""
        self.node_queue[node] = queue


def by_processor(intervals: Iterable[Interval]) -> dict[int, list[Interval]]:
    """Group recorded intervals per processor, keeping recording order."""
    out: dict[int, list[Interval]] = {}
    for iv in intervals:
        out.setdefault(iv.wid, []).append(iv)
    return out


@contextmanager
def recording() -> Iterator[ScheduleRecorder]:
    """Attach a fresh :class:`ScheduleRecorder` for the enclosed run.

    Raises:
        SimulationError: if a recorder is already attached; one schedule
            has one recorder.
    """
    from . import probe

    current = probe.CURRENT
    if current is not None and current.schedule is not None:
        raise SimulationError("a schedule recorder is already installed")
    with probe.attached("schedule", ScheduleRecorder()) as recorder:
        yield recorder


@dataclass(frozen=True)
class PathStep:
    """One traversed element of the critical path, in forward time order.

    Busy steps carry ``credit`` — the slice of the interval that lies on
    the path (usually the whole interval).  Wait steps are zero-credit
    hand-off markers: the path jumps *to* this processor from
    ``interval.src`` at ``interval.end``.
    """

    interval: Interval
    credit: float


@dataclass(frozen=True)
class CriticalPath:
    """The exact longest dependency chain through one sim schedule."""

    makespan: float
    steps: tuple[PathStep, ...]
    #: node path -> serving queue name (from the recorder's pop log).
    node_queue: Mapping[str, str] = field(default_factory=dict)

    @property
    def length(self) -> float:
        """Total busy credit on the path; equals ``makespan`` exactly."""
        return sum(s.credit for s in self.busy_steps)

    @property
    def busy_steps(self) -> tuple[PathStep, ...]:
        return tuple(s for s in self.steps if s.interval.kind == BUSY)

    @property
    def handoffs(self) -> tuple[PathStep, ...]:
        return tuple(s for s in self.steps if s.interval.kind != BUSY)

    def handoff_counts(self) -> dict[str, int]:
        """Lock/starve hand-offs traversed, keyed by loss class."""
        counts = {"lock": 0, "starve": 0}
        for step in self.handoffs:
            counts[step.interval.kind] += 1
        return counts

    def by_primitive(self) -> dict[str, float]:
        """Path time per cost primitive; mixed charges split by ``parts``."""
        out: dict[str, float] = {}
        for step in self.busy_steps:
            iv = step.interval
            if iv.parts:
                total = sum(w for _, w in iv.parts)
                if total > 0:
                    for name, weight in iv.parts:
                        out[name] = out.get(name, 0.0) + step.credit * (weight / total)
                    continue
            tag = iv.tag or UNTAGGED
            out[tag] = out.get(tag, 0.0) + step.credit
        return out

    def by_node(self) -> dict[str, float]:
        """Path time per tree node (infrastructure charges -> ``(infra)``)."""
        out: dict[str, float] = {}
        for step in self.busy_steps:
            node = step.interval.node or "(infra)"
            out[node] = out.get(node, 0.0) + step.credit
        return out

    def by_class(self) -> dict[str, float]:
        """Path time per e/r classification at charge time."""
        out: dict[str, float] = {}
        for step in self.busy_steps:
            cls = step.interval.cls or "(infra)"
            out[cls] = out.get(cls, 0.0) + step.credit
        return out

    def composition(self) -> dict[str, float]:
        """Flat, ledger-friendly summary (stable key names).

        ``primitive.*`` entries sum to ``length``; ``handoffs.*`` count
        the hand-off edges the path traversed.
        """
        flat: dict[str, float] = {"length": self.length, "makespan": self.makespan}
        for name, value in sorted(self.by_primitive().items()):
            flat[f"primitive.{name}"] = value
        for kind, count in sorted(self.handoff_counts().items()):
            flat[f"handoffs.{kind}"] = float(count)
        return flat


def extract(recorder: ScheduleRecorder, makespan: float) -> CriticalPath:
    """Walk the recorded schedule backwards from ``makespan`` to time 0.

    Raises:
        SimulationError: if the record does not tile the schedule (which
            would mean the engine hooks and the accounting invariants
            disagree — a bug, not a data condition).
    """
    eps = 1e-9 * max(1.0, makespan)
    by_wid = by_processor(recorder.intervals)
    for ivs in by_wid.values():
        ivs.sort(key=lambda iv: (iv.start, iv.end))
    starts = {wid: [iv.start for iv in ivs] for wid, ivs in by_wid.items()}
    # Monotone per-processor consumption pointer: re-entering a processor
    # may only look strictly earlier than what the path already consumed,
    # which rules out cycles among zero-length hand-offs at one instant.
    pointer = {wid: len(ivs) for wid, ivs in by_wid.items()}

    if makespan <= eps or not by_wid:
        return CriticalPath(makespan=makespan, steps=(),
                            node_queue=dict(recorder.node_queue))

    # Start on the processor whose last interval ends at the makespan
    # (lowest wid on ties, deterministically).
    wid = min(
        (w for w, ivs in sorted(by_wid.items()) if abs(ivs[-1].end - makespan) <= eps),
        default=-1,
    )
    if wid < 0:
        raise SimulationError("no recorded interval reaches the makespan")

    steps: list[PathStep] = []
    t = makespan
    while t > eps:
        ivs = by_wid.get(wid)
        if not ivs:
            raise SimulationError(f"critical path fell off processor {wid} at t={t}")
        # Rightmost interval with start < t, clamped below the pointer.
        idx = min(bisect_left(starts[wid], t) - 1, pointer[wid] - 1)
        if idx < 0 or ivs[idx].end < t - eps:
            raise SimulationError(
                f"schedule gap on processor {wid} before t={t}: "
                "recorded intervals do not tile the run"
            )
        iv = ivs[idx]
        pointer[wid] = idx
        if iv.kind == BUSY:
            steps.append(PathStep(interval=iv, credit=t - iv.start))
            t = iv.start
        else:
            if iv.src < 0:
                raise SimulationError(f"wait interval without a waker: {iv!r}")
            steps.append(PathStep(interval=iv, credit=0.0))
            wid = iv.src  # the hand-off is the binding dependency
    steps.reverse()
    return CriticalPath(makespan=makespan, steps=tuple(steps),
                        node_queue=dict(recorder.node_queue))


def bus_events(path: CriticalPath) -> list[_events.ObsEvent]:
    """Render the path as telemetry events (``EV_CRIT_SEGMENT``).

    Useful for JSONL export alongside a run's live event stream; the
    Chrome-trace overlay in :mod:`repro.obs.export` draws from the path
    directly instead.
    """
    out: list[_events.ObsEvent] = []
    for step in path.steps:
        iv = step.interval
        out.append(
            _events.ObsEvent(
                etype=_events.EV_CRIT_SEGMENT,
                ts=iv.start,
                task=iv.wid,
                data={
                    "kind": iv.kind,
                    "end": iv.end,
                    "credit": step.credit,
                    "tag": iv.tag,
                    "node": iv.node,
                },
            )
        )
    return out


def _fmt(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _share(value: float, total: float) -> str:
    if total <= 0:
        return "0.0%"
    return f"{100.0 * value / total:.1f}%"


def render_report(
    path: CriticalPath,
    *,
    title: str = "",
    top: int = 10,
) -> str:
    """Deterministic plain-text blame report for one critical path."""
    lines: list[str] = []
    header = "critical path"
    if title:
        header += f": {title}"
    lines.append(header)
    exact = abs(path.length - path.makespan) <= 1e-9 * max(1.0, path.makespan)
    lines.append(
        f"  path length {_fmt(path.length)} "
        + ("== makespan (exact)" if exact else f"!= makespan {_fmt(path.makespan)}")
    )
    counts = path.handoff_counts()
    lines.append(
        f"  segments {len(path.busy_steps)}"
        f"  lock hand-offs {counts['lock']}"
        f"  starve hand-offs {counts['starve']}"
    )

    lines.append("attribution by primitive (path time, share of makespan):")
    prim = path.by_primitive()
    for name, value in sorted(prim.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:<14} {_fmt(value):>14}  {_share(value, path.makespan):>6}")

    lines.append("attribution by e/r class:")
    for name, value in sorted(path.by_class().items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {name:<14} {_fmt(value):>14}  {_share(value, path.makespan):>6}")

    lines.append(f"blame by node (top {top}):")
    nodes = path.by_node()
    for name, value in sorted(nodes.items(), key=lambda kv: (-kv[1], kv[0]))[:top]:
        via = path.node_queue.get(name, "")
        suffix = f"  via {via}" if via else ""
        lines.append(f"  {name:<18} {_fmt(value):>14}  {_share(value, path.makespan):>6}{suffix}")

    lines.append(f"longest path segments (top {top}):")
    longest = sorted(
        path.busy_steps,
        key=lambda s: (-s.credit, s.interval.start, s.interval.wid),
    )[:top]
    for step in longest:
        iv = step.interval
        tag = iv.tag or UNTAGGED
        node = f" node {iv.node}" if iv.node else ""
        cls = f" [{iv.cls}]" if iv.cls else ""
        mix = ""
        if iv.parts:
            total = sum(w for _, w in iv.parts)
            if total > 0:
                mix = " (" + ", ".join(
                    f"{name} {_share(w, total)}" for name, w in iv.parts
                ) + ")"
        lines.append(
            f"  [{_fmt(iv.start):>12}, {_fmt(iv.end):>12}] "
            f"P{iv.wid} {tag}{node}{cls}{mix}"
        )

    lines.append("hand-off chain (first %d traversed):" % top)
    for step in path.handoffs[:top]:
        iv = step.interval
        lines.append(
            f"  t={_fmt(iv.end):>12}  P{iv.src} -> P{iv.wid} via {iv.kind}:{iv.tag}"
            f"  (waited {_fmt(iv.duration)})"
        )
    return "\n".join(lines) + "\n"
