"""Per-processor and per-run accounting produced by the engine.

The paper decomposes imperfect efficiency into starvation, interference,
and speculative loss (Section 3.1).  The first two are timing phenomena
and come straight out of the engine: time blocked on :class:`WaitWork` is
starvation, time blocked on :class:`Acquire` is interference.  Speculative
loss is semantic: :mod:`repro.analysis.losses` splits busy time by the
positions each charge examined.

The exact-tiling invariants (``accounted == finish_time`` and
``accounted + tail_idle == makespan``, checked to 1e-9 by the snapshot
layer) are also what makes :mod:`repro.obs.critpath` sound: every
instant of every processor's schedule belongs to exactly one recorded
interval, so the backward critical-path walk can never fall into an
unaccounted gap and its busy credits telescope to the makespan exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Timeline interval kinds (when the engine records timelines).
BUSY = "busy"
LOCK_WAIT = "lock"
STARVE = "starve"


@dataclass
class ProcessorMetrics:
    """Time accounting for one simulated processor.

    ``timeline`` is populated only when the engine runs with
    ``record_timeline=True``: a list of ``(kind, start, end)`` intervals
    with kind one of :data:`BUSY`, :data:`LOCK_WAIT`, :data:`STARVE`,
    consumed by :func:`repro.analysis.gantt.render_gantt`.
    """

    busy: float = 0.0
    lock_wait: float = 0.0
    starve_wait: float = 0.0
    finish_time: float = 0.0
    #: Idle time between this processor's last op and the run's makespan
    #: (filled in by the engine at the end of a run).  Without it,
    #: ``accounted`` silently undercounts the run: a processor that
    #: finishes early is starved for work even though no wait op charged
    #: it.  Invariant: ``accounted == finish_time`` and
    #: ``accounted + tail_idle == makespan``.
    tail_idle: float = 0.0
    timeline: list[tuple[str, float, float]] | None = None

    @property
    def accounted(self) -> float:
        return self.busy + self.lock_wait + self.starve_wait


@dataclass
class SimReport:
    """Outcome of one engine run."""

    makespan: float
    processors: list[ProcessorMetrics] = field(default_factory=list)
    events: int = 0

    @property
    def n_processors(self) -> int:
        return len(self.processors)

    @property
    def total_busy(self) -> float:
        return sum(p.busy for p in self.processors)

    @property
    def total_lock_wait(self) -> float:
        return sum(p.lock_wait for p in self.processors)

    @property
    def total_starve_wait(self) -> float:
        return sum(p.starve_wait for p in self.processors)

    @property
    def utilization(self) -> float:
        """Fraction of processor-time spent busy (1.0 = no idling at all)."""
        denominator = self.makespan * max(1, self.n_processors)
        if denominator == 0:
            return 1.0
        return self.total_busy / denominator

    def starvation_fraction(self) -> float:
        """Share of total processor-time lost to empty-heap waits.

        Includes the tail idleness of processors that finished before the
        makespan — they are starved for work by definition.
        """
        denominator = self.makespan * max(1, self.n_processors)
        if denominator == 0:
            return 0.0
        tail = sum(self.makespan - p.finish_time for p in self.processors)
        return (self.total_starve_wait + tail) / denominator

    def interference_fraction(self) -> float:
        """Share of total processor-time lost to lock waits."""
        denominator = self.makespan * max(1, self.n_processors)
        if denominator == 0:
            return 0.0
        return self.total_lock_wait / denominator
