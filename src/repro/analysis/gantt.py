"""ASCII Gantt charts of simulated parallel schedules.

Renders an engine run recorded with ``record_timeline=True`` as one text
row per processor, showing at a glance *where* the Section 3.1 losses
live: the starving tail of a refutation chain, the lock convoy at a hot
combine, the idle processors before speculation kicks in.

Legend: ``#`` busy · ``.`` starving (empty heap) · ``!`` blocked on a
lock · `` `` (space) idle after the processor's last event.

With a :class:`~repro.obs.critpath.CriticalPath` supplied, every
processor row gains a marker row underneath: ``^`` under each time
slice the critical path runs through on that processor, so the chain of
work that bounds the makespan is visible hopping between lanes.

For an interactive, zoomable view of the same schedule — plus queue
depths and node-lifecycle instants — export a Chrome trace with
``repro-gametree explain --trace-out PATH`` (:mod:`repro.obs.export`)
and load it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError
from ..obs.critpath import CriticalPath
from ..sim.metrics import ProcessorMetrics, SimReport

_GLYPHS = {"busy": "#", "starve": ".", "lock": "!"}
_PRECEDENCE = {"lock": 3, "busy": 2, "starve": 1}


def _row(metrics: ProcessorMetrics, makespan: float, width: int) -> str:
    if metrics.timeline is None:
        raise SimulationError(
            "no timeline recorded; run with record_timeline=True"
        )
    if makespan <= 0:
        return " " * width
    # Each cell shows the state that occupied the majority of its time
    # slice, so a 1-unit lock wait cannot paint over a 500-unit slice.
    bucket = makespan / width
    occupancy = [{"busy": 0.0, "starve": 0.0, "lock": 0.0} for _ in range(width)]
    for kind, start, end in metrics.timeline:
        first = min(width - 1, int(start / bucket))
        last = min(width - 1, int(max(start, end - 1e-12) / bucket))
        for i in range(first, last + 1):
            lo = max(start, i * bucket)
            hi = min(end, (i + 1) * bucket)
            if hi > lo:
                occupancy[i][kind] += hi - lo
    cells = []
    for slots in occupancy:
        total = sum(slots.values())
        if total < bucket * 0.25:
            cells.append(" ")
            continue
        # Majority state, ties broken toward the louder signal.
        kind = max(slots, key=lambda k: (slots[k], _PRECEDENCE[k]))
        cells.append(_GLYPHS[kind])
    return "".join(cells)


def _critpath_row(critpath: CriticalPath, pid: int, makespan: float, width: int) -> str:
    """``^`` under every time slice the critical path credits to ``pid``.

    Any-overlap bucketing (unlike the majority-vote schedule cells): a
    critical segment shorter than one bucket still marks it, because a
    missing marker would misread as "the path skips this lane here".
    """
    if makespan <= 0:
        return " " * width
    bucket = makespan / width
    cells = [" "] * width
    for step in critpath.steps:
        iv = step.interval
        if iv.wid != pid or step.credit <= 0:
            continue
        start = iv.end - step.credit
        first = min(width - 1, int(start / bucket))
        last = min(width - 1, int(max(start, iv.end - 1e-12) / bucket))
        for i in range(first, last + 1):
            cells[i] = "^"
    return "".join(cells)


def render_gantt(
    report: SimReport, width: int = 72, *, critpath: Optional[CriticalPath] = None
) -> str:
    """Render every processor's schedule as one line of ``width`` chars.

    Args:
        report: engine report recorded with ``record_timeline=True``.
        width: chart width in characters.
        critpath: extracted critical path to overlay — adds one ``^``
            marker row under each processor row.
    """
    if width < 8:
        raise SimulationError("gantt width must be at least 8 characters")
    lines = [
        f"t=0 {'-' * (width - 8)} t={report.makespan:.0f}",
    ]
    for pid, metrics in enumerate(report.processors):
        lines.append(f"P{pid:<2d} {_row(metrics, report.makespan, width)}")
        if critpath is not None:
            lines.append(f"    {_critpath_row(critpath, pid, report.makespan, width)}")
    legend = "legend: # busy   . starving   ! lock-blocked   (blank) finished"
    if critpath is not None:
        legend += "   ^ critical path"
    lines.append(legend)
    return "\n".join(lines)
