"""Efficiency-loss decomposition (paper Section 3.1).

A simulated run's processor-time (processors x makespan) splits exactly
into **mandatory** work (busy examining positions serial alpha-beta, the
paper's reference, also examines), **speculative** loss (busy examining
positions beyond those), **overhead** (busy examining no position: heap,
bookkeeping, combine and table operations), **starvation** (empty heap,
idle tails) and **interference** (lock waits).  :func:`classify_work` is
the one classifier of work.  It names work by position
(:func:`~repro.games.base.hash_key`), never by path: child indices name
different moves in two searches that order children differently.

Counting rule: transpositions count with multiplicity.  A position the
reference examines ``r`` times and the parallel run ``p`` times gives
``min(p, r)`` mandatory and ``p - min(p, r)`` speculative examinations,
so each of its ``p`` examinations is ``min(p, r) / p`` mandatory.

Time rule: each busy charge of a traced run names the positions it
examined (``Compute.keys``, kept on the schedule recorder's intervals);
one naming none is overhead.  Any other gives its table share (``parts``
weights of ``tt_probe``, ``tt_store``, ``eval_cache``) to overhead and
splits the rest by its positions' costs; a serial-subtree chunk by its
whole subtree's, as ``parts`` splits it by primitive.  A serial search
abandoned part-way ran to completion before its time was charged, so
all its positions count and each charged chunk splits the same way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from ..obs.critpath import BUSY, Interval
from ..obs.events import EventBus
from ..parallel.base import ParallelResult
from ..search.stats import KeyTrace, SearchStats

if TYPE_CHECKING:  # pragma: no cover - the snapshot layer loads on first use
    from ..obs.snapshot import Snapshot

#: ``Compute.parts`` primitives that are table operations (overhead).
TABLE_PARTS = ("tt_probe", "tt_store", "eval_cache")


class BusySplit(NamedTuple):
    """One processor's busy time: mandatory + speculative + overhead."""

    mandatory: float
    speculative: float
    overhead: float


@dataclass(frozen=True)
class WorkClassification:
    """A parallel run's examinations (and busy time) against the reference."""

    mandatory_examined: int
    speculative_examined: int
    reference_total: int
    mandatory_missed: int
    busy: dict[int, BusySplit] = field(default_factory=dict)  # by processor id

    @property
    def parallel_total(self) -> int:
        return self.mandatory_examined + self.speculative_examined

    @property
    def speculative_fraction(self) -> float:
        """Share of the parallel run's examinations that were speculative."""
        if self.parallel_total == 0:
            return 0.0
        return self.speculative_examined / self.parallel_total

    @property
    def expansion_ratio(self) -> float:
        """Parallel examinations over reference examinations (>1: extra work).

        Below 1 is possible: a parallel run can achieve cutoffs serial
        alpha-beta does not, the paper's "greater than perfect
        efficiency" anomaly.
        """
        if self.reference_total == 0:
            return 1.0
        return self.parallel_total / self.reference_total


def classify_work(
    reference: KeyTrace, parallel: KeyTrace, intervals: Iterable[Interval] = ()
) -> WorkClassification:
    """Classify the ``parallel`` trace's examinations against ``reference``
    and split the busy time of the run's recorded ``intervals`` (module
    docstring: counting and time rules)."""
    ref_counts = Counter(key for key, _ in reference)
    par_counts = Counter(key for key, _ in parallel)
    share = {key: min(n, ref_counts[key]) / n for key, n in par_counts.items()}
    n_mandatory = sum(min(n, ref_counts[key]) for key, n in par_counts.items())
    return WorkClassification(
        mandatory_examined=n_mandatory,
        speculative_examined=len(parallel) - n_mandatory,
        reference_total=len(reference),
        mandatory_missed=len(reference) - n_mandatory,
        busy=_split_busy(intervals, share),
    )


def _split_busy(intervals: Iterable[Interval], share: dict[int, float]) -> dict[int, BusySplit]:
    rows: dict[int, list[float]] = {}
    weighed: dict[int, float] = {}  # a serial search's chunks share one keys tuple
    for iv in intervals:
        if iv.kind != BUSY:
            continue
        row = rows.setdefault(iv.wid, [0.0, 0.0, 0.0])
        total = sum(weight for _, weight in iv.parts)
        table = sum(w for name, w in iv.parts if name in TABLE_PARTS) / total if total else 0.0
        work = iv.duration * (1.0 - table) if iv.keys else 0.0
        if id(iv.keys) not in weighed:
            weighed[id(iv.keys)] = _mandatory_share(iv.keys, share)
        row[0] += work * weighed[id(iv.keys)]
        row[1] += work - work * weighed[id(iv.keys)]
        row[2] += iv.duration - work
    return {wid: BusySplit(*row) for wid, row in rows.items()}


def _mandatory_share(keys: tuple[tuple[int, float], ...], share: dict[int, float]) -> float:
    """Cost-weighted mandatory share of one charge's examinations (by
    count when all were free)."""
    total = sum(cost for _, cost in keys)
    if total > 0:
        return sum(cost * share.get(key, 0.0) for key, cost in keys) / total
    return sum(share.get(key, 0.0) for key, _ in keys) / max(1, len(keys))


def loss_report(
    result: ParallelResult,
    intervals: Iterable[Interval],
    serial_time: float,
    reference_stats: SearchStats,
    *,
    workload: str = "",
    bus: Optional[EventBus] = None,
) -> "Snapshot":
    """The Section 3.1 snapshot of a ``trace=True`` simulated run, given
    its ``intervals`` (:func:`repro.obs.critpath.recording`), the best
    serial algorithm's cost and serial alpha-beta's traced stats.

    Raises:
        ValueError: if either side was run without tracing.
    """
    if result.stats.trace is None:
        raise ValueError("parallel run must be executed with trace=True")
    if reference_stats.trace is None:
        raise ValueError("reference stats must be collected with a trace")
    from ..obs.snapshot import snapshot_from_sim

    work = classify_work(reference_stats.trace, result.stats.trace, intervals)
    return snapshot_from_sim(
        result, workload=workload, bus=bus, split=work, serial_time=serial_time
    )

