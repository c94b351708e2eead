"""Exporters: Chrome trace-event JSON (Perfetto) and JSONL.

The ASCII Gantt chart (:mod:`repro.analysis.gantt`) is good for a quick
terminal look; for deep dives the same schedule is better explored in
`Perfetto <https://ui.perfetto.dev>`_ or ``chrome://tracing``, which both
load the Chrome trace-event JSON format emitted here:

* per-processor ``"X"`` (complete) events for the busy / lock-wait /
  starve-wait intervals a :class:`~repro.obs.critpath.ScheduleRecorder`
  captured, the one record of the simulated schedule (one track per
  processor);
* ``"C"`` (counter) events for queue depths from the event bus;
* ``"i"`` (instant) events for node lifecycle, classification flips, and
  task flow;
* ``"M"`` (metadata) events naming the process and processor tracks.

With a :class:`~repro.obs.critpath.CriticalPath` supplied, a second
Perfetto process group (pid 1, "critical-path") overlays the extracted
path: one ``"X"`` row per path segment on the owning processor's lane,
one ``"i"`` marker per traversed lock/starve hand-off — so the exact
chain that bounds the makespan renders right under the full schedule.

Timestamps are Chrome-trace microseconds.  Simulated time maps one unit
to one microsecond, so the trace is byte-stable for a fixed seed; wall
clocks are rebased to the earliest event so traces start near zero.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from ..sim.metrics import SimReport
from . import events as _events
from .critpath import BUSY as _CP_BUSY
from .critpath import UNTAGGED, CriticalPath, Interval, by_processor
from .live import COORDINATOR, LiveTrace, WorkerSpan, split_span_name
from .reqtrace import RequestTrace
from .snapshot import SECONDS, SIM_UNITS

#: Chrome-trace category names per event origin.
_CAT_PROC = "processor"
_CAT_NODES = "nodes"
_CAT_TASKS = "tasks"
_CAT_ENGINE = "engine"
_CAT_CRITPATH = "critpath"
_CAT_REQUEST = "request"

#: Perfetto process id of the critical-path overlay group.
_CRITPATH_PID = 1

#: Perfetto process id of the first per-request track of a service
#: trace; request ``i`` (by arrival order) renders at ``base + i``.
_REQUEST_PID_BASE = 1000

#: Perfetto process ids of the live wall-clock span groups: one pid per
#: OS worker at ``_LIVE_PID_BASE + index``, the coordinator one below.
#: The base leaves room under it for future overlay groups like pid 1.
_LIVE_PID_BASE = 100

#: Stable Perfetto thread id per span category within a worker group.
_LIVE_TIDS: Mapping[str, int] = {"task": 0, "tt": 1, "eval": 2, "heap": 3, "lock": 4}

_INSTANT_CATEGORIES: Mapping[str, str] = {
    _events.EV_NODE_CREATED: _CAT_NODES,
    _events.EV_NODE_POPPED: _CAT_NODES,
    _events.EV_NODE_DONE: _CAT_NODES,
    _events.EV_CLASS_FLIP: _CAT_NODES,
    _events.EV_TASK_SUBMIT: _CAT_TASKS,
    _events.EV_TASK_RESULT: _CAT_TASKS,
    _events.EV_ENGINE_CHOICE: _CAT_ENGINE,
}

TraceEvent = dict[str, object]


def _scale_for(time_unit: str) -> float:
    """Microseconds per bus-clock tick."""
    return 1e6 if time_unit == SECONDS else 1.0


def _schedule_events(report: SimReport, intervals: Iterable[Interval]) -> list[TraceEvent]:
    by_pid = by_processor(intervals)
    out: list[TraceEvent] = []
    for pid in range(report.n_processors):
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": pid,
                "args": {"name": f"P{pid}"},
            }
        )
        for iv in by_pid.get(pid, []):
            out.append(
                {
                    "ph": "X",
                    "name": iv.kind,
                    "cat": _CAT_PROC,
                    "pid": 0,
                    "tid": pid,
                    "ts": iv.start,
                    "dur": iv.end - iv.start,
                }
            )
    return out


def _critpath_events(path: CriticalPath) -> list[TraceEvent]:
    """Overlay rows for one extracted critical path (pid 1 group)."""
    out: list[TraceEvent] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _CRITPATH_PID,
            "tid": 0,
            "args": {"name": "critical-path"},
        }
    ]
    for pid in sorted({s.interval.wid for s in path.steps}):
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _CRITPATH_PID,
                "tid": pid,
                "args": {"name": f"P{pid} (on path)"},
            }
        )
    for step in path.steps:
        iv = step.interval
        if iv.kind == _CP_BUSY:
            out.append(
                {
                    "ph": "X",
                    "name": iv.tag or UNTAGGED,
                    "cat": _CAT_CRITPATH,
                    "pid": _CRITPATH_PID,
                    "tid": iv.wid,
                    "ts": iv.end - step.credit,
                    "dur": step.credit,
                    "args": {"node": iv.node, "cls": iv.cls},
                }
            )
        else:
            out.append(
                {
                    "ph": "i",
                    "name": f"handoff {iv.kind}:{iv.tag}",
                    "cat": _CAT_CRITPATH,
                    "pid": _CRITPATH_PID,
                    "tid": iv.wid,
                    "ts": iv.end,
                    "s": "t",
                    "args": {"src": iv.src, "waited": iv.end - iv.start},
                }
            )
    return out


def _live_pid(worker: int) -> int:
    return _LIVE_PID_BASE - 1 if worker == COORDINATOR else _LIVE_PID_BASE + worker


def _live_events(trace: LiveTrace, *, scale: float, offset: float) -> list[TraceEvent]:
    """One Perfetto process group per OS worker of a traced real run.

    Workers become pid rows ``worker 0..n-1`` (coordinator just below),
    labelled with their OS pid; within a group each span category gets
    its own named thread lane.  Spans arrive already merged onto the
    coordinator timeline, so the rows line up even across processes.
    """
    out: list[TraceEvent] = []
    used: dict[int, set[str]] = {}
    for span in trace.spans:
        used.setdefault(span.worker, set()).add(span.cat)
    for worker in trace.workers():
        pid = _live_pid(worker)
        label = "coordinator" if worker == COORDINATOR else f"worker {worker}"
        os_pid = trace.pids.get(worker)
        if os_pid is not None:
            label += f" (os pid {os_pid})"
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for cat in sorted(used.get(worker, set()), key=lambda c: _LIVE_TIDS.get(c, 9)):
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": _LIVE_TIDS.get(cat, 9),
                    "args": {"name": cat},
                }
            )
    for span in trace.spans:
        out.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": f"live-{span.cat}",
                "pid": _live_pid(span.worker),
                "tid": _LIVE_TIDS.get(span.cat, 9),
                "ts": (span.start - offset) * scale,
                "dur": span.duration * scale,
            }
        )
    return out


def _bus_events(
    events: Iterable[_events.ObsEvent], *, scale: float, offset: float
) -> list[TraceEvent]:
    out: list[TraceEvent] = []
    for event in events:
        ts = (event.ts - offset) * scale
        if event.etype == _events.EV_QUEUE_DEPTH:
            queue = str(event.data.get("queue", "unknown"))
            out.append(
                {
                    "ph": "C",
                    "name": f"depth {queue}",
                    "cat": _CAT_PROC,
                    "pid": 0,
                    "tid": 0,
                    "ts": ts,
                    "args": {"depth": event.data.get("depth", 0)},
                }
            )
        else:
            out.append(
                {
                    "ph": "i",
                    "name": event.etype,
                    "cat": _INSTANT_CATEGORIES.get(event.etype, "misc"),
                    "pid": 0,
                    "tid": event.task,
                    "ts": ts,
                    "s": "t",
                    "args": dict(event.data),
                }
            )
    return out


def render_chrome_trace(
    events: Iterable[_events.ObsEvent],
    *,
    report: Optional[SimReport] = None,
    schedule: Iterable[Interval] = (),
    time_unit: str = SIM_UNITS,
    metadata: Optional[Mapping[str, object]] = None,
    critpath: Optional[CriticalPath] = None,
    live: Optional[LiveTrace] = None,
) -> str:
    """Render one run as deterministic Chrome trace-event JSON.

    Args:
        events: bus events of the run (may be empty).
        report: engine report of a simulated run; its processor count
            names one schedule track per processor.
        schedule: the run's recorded intervals
            (:attr:`~repro.obs.critpath.ScheduleRecorder.intervals`),
            drawn on those tracks.
        time_unit: denomination of the event timestamps —
            :data:`~repro.obs.snapshot.SIM_UNITS` maps one unit to one
            microsecond and keeps absolute times (byte-stable for a
            fixed seed); :data:`~repro.obs.snapshot.SECONDS` rebases to
            the earliest event and scales to microseconds.
        metadata: extra key/values stored in the trace envelope.
        critpath: extracted critical path to overlay as a second process
            group (simulated time only — timestamps are used unscaled).
        live: merged wall-clock span timeline of a traced real-backend
            run — rendered as one Perfetto process group per OS worker
            (wall-clock time only; shares the rebasing offset with the
            bus events so both layers line up).

    Returns:
        JSON text with sorted keys and no incidental whitespace, so a
        fixed-seed simulated run renders byte-identically.
    """
    event_list = list(events)
    offset = 0.0
    if time_unit == SECONDS:
        starts = [event.ts for event in event_list]
        if live is not None:
            starts.extend(span.start for span in live.spans)
        if starts:
            offset = min(starts)
    trace_events: list[TraceEvent] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "er-search"},
        }
    ]
    if report is not None:
        trace_events.extend(_schedule_events(report, schedule))
    trace_events.extend(_bus_events(event_list, scale=_scale_for(time_unit), offset=offset))
    if critpath is not None:
        trace_events.extend(_critpath_events(critpath))
    if live is not None:
        trace_events.extend(_live_events(live, scale=_scale_for(time_unit), offset=offset))
    payload: dict[str, object] = {
        "displayTimeUnit": "ms",
        "metadata": dict(metadata) if metadata else {},
        "traceEvents": trace_events,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_chrome_trace(
    path: Union[str, Path],
    events: Iterable[_events.ObsEvent],
    *,
    report: Optional[SimReport] = None,
    schedule: Iterable[Interval] = (),
    time_unit: str = SIM_UNITS,
    metadata: Optional[Mapping[str, object]] = None,
    critpath: Optional[CriticalPath] = None,
    live: Optional[LiveTrace] = None,
) -> Path:
    """Write :func:`render_chrome_trace` output to ``path``; returns it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        render_chrome_trace(
            events, report=report, schedule=schedule, time_unit=time_unit,
            metadata=metadata, critpath=critpath, live=live,
        ),
        encoding="utf-8",
    )
    return target


def _request_stage_events(
    trace: RequestTrace, *, pid: int, scale: float, offset: float
) -> list[TraceEvent]:
    """The synthetic stage lane (tid 0) of one request's track.

    Stages are laid end to end from ``arrived_at`` in pipeline order —
    admission, queue wait, one slice per deepening iteration, reply
    serialization, then the explicit ``unattributed`` remainder.  Because
    the decomposition conserves, the lane spans *exactly*
    ``[arrived_at, finished_at]``: any gap would be a conservation bug,
    so the track doubles as a visual audit of the identity.
    """
    timing = trace.timing
    slices: list[tuple[str, float]] = [
        ("admission", timing.admission_s),
        ("queue_wait", timing.queue_wait_s),
    ]
    slices.extend(
        (f"iteration d{index + 1}", seconds)
        for index, seconds in enumerate(timing.iterations_s)
    )
    slices.append(("reply_serialize", timing.reply_serialize_s))
    slices.append(("unattributed", timing.unattributed_s))
    out: list[TraceEvent] = []
    cursor = trace.arrived_at
    for name, seconds in slices:
        out.append(
            {
                "ph": "X",
                "name": name,
                "cat": _CAT_REQUEST,
                "pid": pid,
                "tid": 0,
                "ts": (cursor - offset) * scale,
                "dur": max(0.0, seconds) * scale,
            }
        )
        cursor += seconds
    return out


def render_service_trace(
    traces: Iterable[RequestTrace],
    *,
    worker_spans: Optional[Mapping[str, Iterable[WorkerSpan]]] = None,
    span_pids: Optional[Mapping[int, int]] = None,
    metadata: Optional[Mapping[str, object]] = None,
) -> str:
    """Render a service run as per-request Perfetto tracks.

    Each :class:`~repro.obs.reqtrace.RequestTrace` becomes its own
    Perfetto process group (pids from :data:`_REQUEST_PID_BASE`, arrival
    order): thread 0 carries the conserved stage decomposition laid end
    to end over ``[arrived_at, finished_at]``, and — when the pool ran
    with tracing on — one extra thread per engine worker shows that
    worker's tagged spans for *this* request, threaded across OS
    processes (``worker_spans`` keyed by ``request_id``, already merged
    onto the server clock by the pool's offset estimators; ``span_pids``
    labels worker lanes with their OS pid).

    Timestamps are wall-clock seconds rebased to the earliest request
    arrival and scaled to Chrome-trace microseconds.
    """
    trace_list = sorted(traces, key=lambda t: (t.arrived_at, t.request_id))
    by_request: dict[str, list[WorkerSpan]] = {
        request_id: list(spans)
        for request_id, spans in (worker_spans or {}).items()
    }
    pids = dict(span_pids or {})
    starts = [trace.arrived_at for trace in trace_list]
    for spans in by_request.values():
        starts.extend(span.start for span in spans)
    offset = min(starts) if starts else 0.0
    scale = 1e6
    events: list[TraceEvent] = []
    for index, trace in enumerate(trace_list):
        pid = _REQUEST_PID_BASE + index
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": (
                        f"request {trace.request_id}/{trace.span_id} "
                        f"(prio {trace.priority}, {trace.status})"
                    )
                },
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "stages"},
            }
        )
        events.extend(
            _request_stage_events(trace, pid=pid, scale=scale, offset=offset)
        )
        request_spans = by_request.get(trace.request_id, [])
        for worker in sorted({span.worker for span in request_spans}):
            label = f"engine worker {worker}"
            os_pid = pids.get(worker)
            if os_pid is not None:
                label += f" (os pid {os_pid})"
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": 1 + worker,
                    "args": {"name": label},
                }
            )
        for span in request_spans:
            base, tag = split_span_name(span.name)
            args: dict[str, object] = {"tag": tag or ""}
            os_pid = pids.get(span.worker)
            if os_pid is not None:
                args["os_pid"] = os_pid
            events.append(
                {
                    "ph": "X",
                    "name": base,
                    "cat": f"live-{span.cat}",
                    "pid": pid,
                    "tid": 1 + span.worker,
                    "ts": (span.start - offset) * scale,
                    "dur": span.duration * scale,
                    "args": args,
                }
            )
    payload: dict[str, object] = {
        "displayTimeUnit": "ms",
        "metadata": dict(metadata) if metadata else {},
        "traceEvents": events,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_service_trace(
    path: Union[str, Path],
    traces: Iterable[RequestTrace],
    *,
    worker_spans: Optional[Mapping[str, Iterable[WorkerSpan]]] = None,
    span_pids: Optional[Mapping[int, int]] = None,
    metadata: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write :func:`render_service_trace` output to ``path``; returns it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        render_service_trace(
            traces, worker_spans=worker_spans, span_pids=span_pids,
            metadata=metadata,
        ),
        encoding="utf-8",
    )
    return target


def render_jsonl(events: Iterable[_events.ObsEvent]) -> str:
    """One JSON object per line, in emission order (machine diffing)."""
    lines = [
        json.dumps(
            {"etype": e.etype, "ts": e.ts, "task": e.task, "data": dict(e.data)},
            sort_keys=True,
            separators=(",", ":"),
        )
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: Union[str, Path], events: Iterable[_events.ObsEvent]) -> Path:
    """Write :func:`render_jsonl` output to ``path``; returns it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_jsonl(events), encoding="utf-8")
    return target
