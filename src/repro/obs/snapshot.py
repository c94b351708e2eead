"""The one comparable record of a parallel run, for any backend.

The paper's evaluation decomposes lost efficiency into starvation,
interference, and speculative loss (Section 3.1, Figures 10-13).  Before
this module each backend reported that decomposition in its own shape —
:class:`~repro.sim.metrics.SimReport` for the simulator, ad-hoc counter
dicts for the threaded driver, and
:class:`~repro.parallel.multiproc.MultiprocResult` for the process pool.
A :class:`Snapshot` normalizes all three into per-processor
busy / speculative / overhead / starvation / interference / tail-idle
rows plus the shared protocol counters and work stats, which is what the
run ledger (:mod:`repro.obs.ledger`) persists and compares.

Accounting semantics per backend:

* **sim** — exact.  Every simulated instant of a processor's life up to
  its ``finish_time`` is busy, lock-blocked, or work-blocked, so
  ``busy + speculative + overhead + interference + starvation ==
  finish_time`` to float round-off, and ``tail_idle`` covers the gap to
  the makespan.  A classified traced run (:mod:`repro.analysis.losses`)
  splits busy time into mandatory work (``busy``), speculative loss and
  overhead; otherwise (:attr:`Snapshot.separated` false, as on the real
  backends, ROADMAP item 4) ``busy`` holds all of it.
* **threaded** — measured.  The driver times each thread's lock waits
  and work waits with the wall clock; busy is the remainder of the
  thread's lifetime.  Sums match each thread's measured lifetime, not
  the makespan, and carry scheduler noise.
* **multiproc** — measured.  Worker busy time comes from task
  timestamps per worker process; the coordinator's starvation integral
  and the IPC residual are spread evenly across workers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Optional

from ..search.stats import SearchStats
from . import events as _events
from . import registry as _registry

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..analysis.losses import WorkClassification
    from ..parallel.base import ParallelResult
    from ..parallel.multiproc import MultiprocResult
    from ..parallel.threaded import ThreadedRun

#: Time units a snapshot can be denominated in.
SIM_UNITS = "sim-units"
SECONDS = "seconds"


@dataclass(frozen=True)
class ProcBreakdown:
    """Where one processor's time went, in the snapshot's time unit."""

    pid: int
    busy: float
    starvation: float
    interference: float
    speculative: float
    tail_idle: float
    finish_time: float
    overhead: float = 0.0

    @property
    def accounted(self) -> float:
        """Busy, overhead and every loss category (excluding the idle tail)."""
        return self.busy + self.overhead + self.starvation + self.interference + self.speculative

    def to_dict(self) -> dict[str, float]:
        return {name: float(value) for name, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "ProcBreakdown":
        names = {f.name for f in fields(cls)}
        values = {name: float(value) for name, value in data.items() if name in names}
        return cls(**{**values, "pid": int(values["pid"])})  # type: ignore[arg-type]


@dataclass(frozen=True)
class Snapshot:
    """Normalized outcome of one parallel run, any backend."""

    backend: str
    time_unit: str
    workload: str
    n_processors: int
    makespan: float
    value: float
    processors: tuple[ProcBreakdown, ...]
    counters: dict[str, float] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, _registry.MetricValue] = field(default_factory=dict)
    #: Critical-path composition from
    #: :meth:`repro.obs.critpath.CriticalPath.composition` (sim backend
    #: only; empty when no path was extracted).  Flat ``primitive.*`` /
    #: ``handoffs.*`` keys so the ledger can diff composition shifts.
    critpath: dict[str, float] = field(default_factory=dict)

    # -- derived fractions (denominator: processor-time of the run) --------

    @property
    def processor_time(self) -> float:
        return self.makespan * max(1, self.n_processors)

    def _fraction(self, amount: float) -> float:
        total = self.processor_time
        return amount / total if total > 0 else 0.0

    @property
    def busy_fraction(self) -> float:
        return self._fraction(sum(p.busy for p in self.processors))

    @property
    def starvation_fraction(self) -> float:
        """Empty-heap waits plus the idle tails (the paper's convention)."""
        return self._fraction(sum(p.starvation + p.tail_idle for p in self.processors))

    @property
    def interference_fraction(self) -> float:
        return self._fraction(sum(p.interference for p in self.processors))

    @property
    def speculative_fraction(self) -> float:
        return self._fraction(sum(p.speculative for p in self.processors))

    @property
    def overhead_fraction(self) -> float:
        return self._fraction(sum(p.overhead for p in self.processors))

    @property
    def separated(self) -> bool:
        """Whether busy time was split into mandatory, speculative and overhead."""
        return "speculative_examined" in self.work

    @property
    def efficiency(self) -> Optional[float]:
        """Best serial time over processor-time, when the run recorded it."""
        serial = self.work.get("serial_cost")
        return None if serial is None else self._fraction(serial)

    # -- invariants ---------------------------------------------------------

    def check_accounting(self, rel_tolerance: float = 1e-9) -> list[str]:
        """Verify the per-processor time decomposition; [] when it holds.

        For the simulated backend the decomposition is exact:
        ``accounted == finish_time`` and
        ``accounted + tail_idle == makespan`` within float round-off.
        Wall-clock backends only promise non-negative categories and
        totals bounded by the run's processor-time.
        """
        problems: list[str] = []
        for proc in self.processors:
            problems += [f"P{proc.pid}: negative {k}" for k, v in asdict(proc).items() if v < 0]
        if self.time_unit != SIM_UNITS:
            return problems
        tol = rel_tolerance * max(1.0, self.makespan)
        for proc in self.processors:
            if abs(proc.accounted - proc.finish_time) > tol:
                problems.append(
                    f"P{proc.pid}: busy+losses {proc.accounted!r} != "
                    f"finish_time {proc.finish_time!r}"
                )
            if abs(proc.accounted + proc.tail_idle - self.makespan) > tol:
                problems.append(
                    f"P{proc.pid}: accounted+tail {proc.accounted + proc.tail_idle!r} "
                    f"!= makespan {self.makespan!r}"
                )
        return problems

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "backend": self.backend,
            "time_unit": self.time_unit,
            "workload": self.workload,
            "n_processors": self.n_processors,
            "makespan": self.makespan,
            "value": self.value,
            "processors": [p.to_dict() for p in self.processors],
            "counters": dict(self.counters),
            "work": dict(self.work),
            "metrics": dict(self.metrics),
            "fractions": {
                "busy": self.busy_fraction,
                "starvation": self.starvation_fraction,
                "interference": self.interference_fraction,
                "speculative": self.speculative_fraction,
                "overhead": self.overhead_fraction,
            },
        }
        # Omitted when empty so pre-critpath records and golden bytes
        # stay unchanged.
        if self.critpath:
            out["critpath"] = dict(self.critpath)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Snapshot":
        processors = tuple(
            ProcBreakdown.from_dict(row)  # type: ignore[arg-type]
            for row in data.get("processors", [])  # type: ignore[union-attr]
        )
        return cls(
            backend=str(data["backend"]),
            time_unit=str(data["time_unit"]),
            workload=str(data.get("workload", "")),
            n_processors=int(data["n_processors"]),  # type: ignore[arg-type]
            makespan=float(data["makespan"]),  # type: ignore[arg-type]
            value=float(data["value"]),  # type: ignore[arg-type]
            processors=processors,
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            work=dict(data.get("work", {})),  # type: ignore[arg-type]
            metrics=dict(data.get("metrics", {})),  # type: ignore[arg-type]
            critpath=dict(data.get("critpath", {})),  # type: ignore[arg-type]
        )


def render_split(snap: Snapshot) -> str:
    """The run's processor-time split (summing to processors x makespan)
    and, when recorded, its efficiency and the unclamped remainder,
    mandatory share minus efficiency.  An unsplit run says speculative
    work was not separated rather than print a zero never measured."""
    procs = snap.processors
    rows = {
        "mandatory" if snap.separated else "busy": sum(p.busy for p in procs),
        "speculative": sum(p.speculative for p in procs),
        "overhead": sum(p.overhead for p in procs),
        "starvation": sum(p.starvation + p.tail_idle for p in procs),
        "interference": sum(p.interference for p in procs),
    }
    total = snap.processor_time
    lines = [
        f"time split ({snap.n_processors} processors x {snap.makespan:.6f} "
        f"{snap.time_unit} = {total:.6f}):"
    ]
    for name, amount in rows.items():
        if not snap.separated and name == "speculative":
            lines.append(f"  {name:<13s} not separated (item 4)")
        elif snap.separated or name != "overhead":
            lines.append(f"  {name:<13s}{amount:>18.6f}  {amount / total:.3f}")
    accounted = sum(rows.values())
    lines.append(f"  {'sum':<13s}{accounted:>18.6f}  {accounted / total:.3f}")
    if snap.efficiency is not None:
        remainder = snap.busy_fraction - snap.efficiency
        lines.append(f"efficiency {snap.efficiency:.6f}  remainder {remainder:+.6f}")
    return "\n".join(lines) + "\n"


def work_dict(stats: SearchStats) -> dict[str, float]:
    """The comparable work counters of one run's merged stats."""
    names = (
        "interior_visits", "leaf_evals", "ordering_evals", "nodes_generated",
        "nodes_examined", "cutoffs", "tt_probes", "tt_stores", "cost",
    )
    return {name: float(getattr(stats, name)) for name in names}


def _metrics_from(bus: Optional[_events.EventBus]) -> dict[str, _registry.MetricValue]:
    if bus is None:
        return {}
    return _registry.aggregate(bus).collect()


# ---------------------------------------------------------------------------
# Per-backend builders.
# ---------------------------------------------------------------------------


def snapshot_from_sim(
    result: "ParallelResult",
    *,
    workload: str = "",
    bus: Optional[_events.EventBus] = None,
    critpath: Optional[dict[str, float]] = None,
    split: "Optional[WorkClassification]" = None,
    serial_time: Optional[float] = None,
) -> Snapshot:
    """Freeze a simulated run (exact decomposition, simulated units).

    ``critpath`` takes a flat composition dict
    (:meth:`repro.obs.critpath.CriticalPath.composition`) when the run
    was recorded under a schedule recorder.  ``split`` (the run's
    :func:`~repro.analysis.losses.classify_work`) divides busy time and
    joins ``work`` with ``serial_time``, the best serial algorithm's cost.
    """
    rows = []
    for pid, m in enumerate(result.report.processors):
        mandatory, speculative, overhead = (
            (m.busy, 0.0, 0.0) if split is None else split.busy.get(pid, (0.0, 0.0, 0.0))
        )
        rows.append(
            ProcBreakdown(
                pid=pid,
                busy=mandatory,
                starvation=m.starve_wait,
                interference=m.lock_wait,
                speculative=speculative,
                tail_idle=m.tail_idle,
                finish_time=m.finish_time,
                overhead=overhead,
            )
        )
    work = work_dict(result.stats)
    if split is not None:
        work["mandatory_examined"] = float(split.mandatory_examined)
        work["speculative_examined"] = float(split.speculative_examined)
        work["reference_examined"] = float(split.reference_total)
    if serial_time is not None:
        work["serial_cost"] = float(serial_time)
    return Snapshot(
        backend="sim",
        time_unit=SIM_UNITS,
        workload=workload,
        n_processors=result.n_processors,
        makespan=result.report.makespan,
        value=result.value,
        processors=tuple(rows),
        counters={k: float(v) for k, v in result.extras.items()},
        work=work,
        metrics=_metrics_from(bus),
        critpath=dict(critpath) if critpath else {},
    )


def _nonneg(amount: float) -> float:
    """Clamp a measured quantity to zero.

    Wall-clock micro-runs can hand the builders degenerate inputs —
    ``wall_time == 0`` from timer quantization, per-thread walls a hair
    past the run wall — which would otherwise surface as negative (and,
    divided through, NaN-prone) loss rows.  Measured categories are
    physically non-negative, so clamping is correction, not distortion.
    """
    return amount if amount > 0.0 else 0.0


def snapshot_from_threaded(
    run: "ThreadedRun",
    *,
    workload: str = "",
    bus: Optional[_events.EventBus] = None,
) -> Snapshot:
    """Freeze a real-thread run (measured decomposition, wall seconds)."""
    processors = tuple(
        ProcBreakdown(
            pid=pid,
            busy=_nonneg(t.busy),
            starvation=_nonneg(t.starve_wait),
            interference=_nonneg(t.lock_wait),
            speculative=0.0,
            tail_idle=_nonneg(run.wall_time - t.wall),
            finish_time=_nonneg(t.wall),
        )
        for pid, t in enumerate(run.timings)
    )
    return Snapshot(
        backend="threaded",
        time_unit=SECONDS,
        workload=workload,
        n_processors=len(run.timings),
        makespan=_nonneg(run.wall_time),
        value=run.value,
        processors=processors,
        counters={k: float(v) for k, v in run.counters.items()},
        work=work_dict(run.stats),
        metrics=_metrics_from(bus),
    )


def snapshot_from_multiproc(
    result: "MultiprocResult",
    *,
    workload: str = "",
    bus: Optional[_events.EventBus] = None,
) -> Snapshot:
    """Freeze a multiprocess run (measured decomposition, wall seconds).

    Worker busy time comes from per-task timestamps, attributed by the
    stable worker indices ``MultiprocResult.per_worker`` is keyed with
    (the OS pid stays inside the value dict); the coordinator-integrated
    starvation and the IPC residual have no per-worker attribution and
    are spread evenly.  Time on tasks whose result arrived moot stays in
    busy and is counted apart as ``busy_wasted_seconds``.
    """
    n = result.n_workers
    starve_each = _nonneg(result.starvation_seconds) / n
    interfere_each = _nonneg(result.interference_seconds) / n
    rows: list[ProcBreakdown] = []
    for index in range(n):
        split = result.per_worker.get(index)
        busy = _nonneg(float(split["applied"]) + float(split["wasted"])) if split else 0.0
        rows.append(
            ProcBreakdown(
                pid=index,
                busy=busy,
                starvation=starve_each,
                interference=interfere_each,
                speculative=0.0,
                tail_idle=0.0,
                finish_time=_nonneg(result.wall_time),
            )
        )
    counters = {k: float(v) for k, v in result.extras.items() if isinstance(v, (int, float))}
    counters["busy_applied_seconds"] = result.busy_applied_seconds
    counters["busy_wasted_seconds"] = result.busy_wasted_seconds
    counters["starvation_seconds"] = result.starvation_seconds
    counters["interference_seconds"] = result.interference_seconds
    return Snapshot(
        backend="multiproc",
        time_unit=SECONDS,
        workload=workload,
        n_processors=n,
        makespan=_nonneg(result.wall_time),
        value=result.value,
        processors=tuple(rows),
        counters=counters,
        work=work_dict(result.stats),
        metrics=_metrics_from(bus),
    )
