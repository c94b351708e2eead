"""Synthetic traffic: deterministic request traces and the serving report.

The ``profile-service`` command needs a reproducible load, so
:func:`generate_trace` derives a request sequence entirely from a seed:
which workload, which position (random walks from the root, with a
tunable fraction of *repeats* — the traffic shape that makes a warm
shared transposition table pay), which priority, and which deadlines.
:func:`run_trace` drives a trace through an in-process
:class:`~repro.serve.server.SearchService`, and :func:`run_trace_client`
through a remote one over TCP; both fold the replies into a
:class:`TrafficReport` — ok-reply throughput plus nearest-rank
p50/p95/p99 latency percentiles.

:func:`render_decomposition` prints the per-stage latency table of a
run and :func:`latency_fields` feeds the run ledger's ``latency`` block.
:func:`service_snapshot` renders an in-process run as a
:class:`~repro.obs.snapshot.Snapshot` (backend ``serve``, wall-clock
seconds) whose accounting ``profile-service`` checks.

The service's benchmark is perfbench's ``serve-hot`` workload; this
module is not imported by :mod:`repro.serve` itself.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .client import ServiceClient

from ..errors import ServeError
from ..games.base import Game
from ..obs.snapshot import SECONDS, ProcBreakdown, Snapshot, work_dict
from .api import (
    PRIORITIES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    SearchReply,
    SearchRequest,
)
from .server import SearchService, ServeWorkload

__all__ = [
    "STAGE_ORDER",
    "TrafficReport",
    "TrafficSpec",
    "generate_trace",
    "latency_fields",
    "percentile",
    "render_decomposition",
    "run_trace",
    "run_trace_client",
    "service_snapshot",
    "stage_samples",
    "stage_stats",
]

#: Decomposition stages in pipeline order — the rows of the
#: ``profile-service`` table and the keys of the ledger ``latency``
#: block (plus the ``end_to_end`` total).
STAGE_ORDER = ("admission", "queue_wait", "iterations", "reply_serialize", "unattributed")


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of a synthetic request trace — fully determined by ``seed``.

    Attributes:
        workloads: catalog names to draw from.
        n_requests: trace length.
        seed: the only source of randomness.
        max_depth: iterative-deepening depth for every request.  One
            depth per trace keeps cross-request transposition-table
            reuse exact (entries stored by one request are probed at
            the same depths by the next — see the parity battery).
        max_path_len: longest random walk from a workload root when
            minting a fresh position.
        repeat_fraction: probability a request re-asks a position the
            trace already issued — the knob that separates warm-cache
            serving from a stream of never-seen positions.
        deadline_s / deadline_fraction: this fraction of requests
            carries this deadline.
        priority_weights: relative weights for (low, normal, high).
    """

    workloads: tuple[str, ...]
    n_requests: int
    seed: int = 0
    max_depth: int = 3
    max_path_len: int = 2
    repeat_fraction: float = 0.5
    deadline_s: Optional[float] = None
    deadline_fraction: float = 0.0
    priority_weights: tuple[float, float, float] = (1.0, 2.0, 1.0)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ServeError("a traffic spec needs at least one workload")
        if self.n_requests < 1:
            raise ServeError("n_requests must be positive")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ServeError("repeat_fraction must be in [0, 1]")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServeError("deadline_fraction must be in [0, 1]")


def _fresh_path(rng: random.Random, game: Game, max_len: int) -> tuple[int, ...]:
    """Random walk from the root, stopping before any childless position."""
    path: list[int] = []
    position = game.root()
    for _ in range(rng.randint(0, max_len)):
        children = game.children(position)
        if not children:
            break
        # Only step somewhere searchable: the destination must itself
        # have legal moves, or the request would be unanswerable.
        step = rng.randrange(len(children))
        candidate = children[step]
        if not game.children(candidate):
            break
        path.append(step)
        position = candidate
    return tuple(path)


def generate_trace(
    spec: TrafficSpec, catalog: Mapping[str, ServeWorkload]
) -> list[SearchRequest]:
    """Materialize a deterministic request list from a spec.

    The same (spec, catalog) always yields the same trace, so warm and
    cold benchmark arms serve *identical* request sequences.
    """
    for name in spec.workloads:
        if name not in catalog:
            raise ServeError(f"traffic spec names unknown workload {name!r}")
    rng = random.Random(spec.seed)
    games = {name: catalog[name].make_game() for name in spec.workloads}
    issued: list[tuple[str, tuple[int, ...]]] = []
    requests: list[SearchRequest] = []
    for index in range(spec.n_requests):
        if issued and rng.random() < spec.repeat_fraction:
            workload, path = issued[rng.randrange(len(issued))]
        else:
            workload = spec.workloads[rng.randrange(len(spec.workloads))]
            path = _fresh_path(rng, games[workload], spec.max_path_len)
            issued.append((workload, path))
        priority = rng.choices(PRIORITIES, weights=spec.priority_weights)[0]
        deadline = (
            spec.deadline_s
            if spec.deadline_s is not None and rng.random() < spec.deadline_fraction
            else None
        )
        requests.append(
            SearchRequest(
                request_id=f"t{index:06d}",
                workload=workload,
                path=path,
                max_depth=spec.max_depth,
                deadline_s=deadline,
                priority=priority,
            )
        )
    return requests


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of an ascending sequence."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ServeError(f"percentile {q!r} out of range")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


@dataclass(frozen=True)
class TrafficReport:
    """What one trace run measured.

    ``rps`` is ``ok`` replies per wall second, as perfbench counts
    throughput; shed and error replies are counted but never served.
    ``samples`` is the count of latency observations behind the
    percentiles (``ok`` replies only).  With fewer than 3 samples the
    nearest-rank p50/p95/p99 collapse onto the same order statistics,
    so :meth:`render` reports ``n`` and flags the degenerate case
    instead of printing three indistinguishable numbers silently.

    ``replies`` keeps the raw per-request replies so the stage
    decomposition (:func:`render_decomposition`, :func:`latency_fields`)
    can be derived from the same run the summary describes.
    """

    requests: int
    admitted: int
    completed: int
    ok: int
    shed: int
    errors: int
    anytime: int
    wall_s: float
    rps: float
    p50_s: float
    p95_s: float
    p99_s: float
    samples: int = 0
    replies: tuple[SearchReply, ...] = ()

    def render(self, title: str) -> str:
        """Human-readable run summary for benchmark result files."""
        lines = [
            title,
            "-" * len(title),
            f"requests   {self.requests}",
            f"admitted   {self.admitted}",
            f"completed  {self.completed} (ok {self.ok}, errors {self.errors}, "
            f"anytime {self.anytime})",
            f"shed       {self.shed}",
            f"wall       {self.wall_s:.3f} s",
            f"throughput {self.rps:.1f} req/s",
            f"latency    p50 {self.p50_s * 1e3:.1f} ms | "
            f"p95 {self.p95_s * 1e3:.1f} ms | p99 {self.p99_s * 1e3:.1f} ms "
            f"(n={self.samples})",
        ]
        if 0 < self.samples < 3:
            lines.append(
                f"           [degenerate: only {self.samples} latency "
                "sample(s); nearest-rank p50/p95/p99 are not distinct]"
            )
        return "\n".join(lines)


def _fold_replies(
    trace: Sequence[SearchRequest],
    replies: Sequence[SearchReply],
    wall: float,
    admitted: int,
) -> TrafficReport:
    ok = [r for r in replies if r.status == STATUS_OK]
    shed = sum(1 for r in replies if r.status == STATUS_SHED)
    errors = sum(1 for r in replies if r.status == STATUS_ERROR)
    latencies = sorted(r.latency_s for r in ok)
    return TrafficReport(
        requests=len(trace),
        admitted=admitted,
        completed=len(ok) + errors,
        ok=len(ok),
        shed=shed,
        errors=errors,
        anytime=sum(1 for r in ok if r.anytime),
        wall_s=wall,
        rps=len(ok) / wall,
        p50_s=percentile(latencies, 50),
        p95_s=percentile(latencies, 95),
        p99_s=percentile(latencies, 99),
        samples=len(latencies),
        replies=tuple(replies),
    )


async def run_trace(service: SearchService, trace: Sequence[SearchRequest]) -> TrafficReport:
    """Serve a whole trace concurrently through the in-process path.

    All requests are submitted at once — admission control, not the
    caller, decides what runs, queues, or sheds — and the clock covers
    first submission to last reply.
    """
    if service.scheduler is None:
        raise ServeError("service must be started before running traffic")
    admitted_before = service.scheduler.counters["admitted"]
    t0 = time.perf_counter()
    replies: list[SearchReply] = await asyncio.gather(
        *(service.handle(request) for request in trace)
    )
    wall = max(time.perf_counter() - t0, 1e-9)
    admitted = service.scheduler.counters["admitted"] - admitted_before
    return _fold_replies(trace, replies, wall, admitted)


async def run_trace_client(
    client: "ServiceClient", trace: Sequence[SearchRequest]
) -> TrafficReport:
    """Drive a trace over the wire against a remote service.

    Same measurement as :func:`run_trace`, with the admitted count
    recovered from the server's ``stats`` op (delta around the run).
    """
    before = await client.stats()
    t0 = time.perf_counter()
    replies: list[SearchReply] = await asyncio.gather(
        *(client.search(request) for request in trace)
    )
    wall = max(time.perf_counter() - t0, 1e-9)
    after = await client.stats()
    admitted = int(str(after.get("admitted", 0))) - int(str(before.get("admitted", 0)))
    return _fold_replies(trace, replies, wall, admitted)


# ---------------------------------------------------------------------------
# Latency decomposition over a run's replies.
# ---------------------------------------------------------------------------


def stage_samples(replies: Sequence[SearchReply]) -> dict[str, list[float]]:
    """Per-stage latency samples from replies carrying a ``timing`` block.

    Keys are :data:`STAGE_ORDER` plus ``end_to_end``; shed replies (and
    replies from pre-tracing servers) carry no block and contribute
    nothing, so every stage has the same sample count.
    """
    out: dict[str, list[float]] = {stage: [] for stage in STAGE_ORDER}
    out["end_to_end"] = []
    for reply in replies:
        timing = reply.timing
        if timing is None:
            continue
        for stage, seconds in timing.stage_seconds().items():
            out[stage].append(seconds)
        out["end_to_end"].append(timing.end_to_end_s)
    return out


def stage_stats(
    samples: Mapping[str, Sequence[float]]
) -> dict[str, dict[str, float]]:
    """mean/p50/p95/p99 seconds per stage (nearest-rank percentiles)."""
    stats: dict[str, dict[str, float]] = {}
    for stage, values in samples.items():
        ordered = sorted(values)
        n = len(ordered)
        stats[stage] = {
            "mean_s": sum(ordered) / n if n else 0.0,
            "p50_s": percentile(ordered, 50),
            "p95_s": percentile(ordered, 95),
            "p99_s": percentile(ordered, 99),
        }
    return stats


def latency_fields(replies: Sequence[SearchReply]) -> dict[str, object]:
    """Keyword arguments for :func:`repro.obs.ledger.latency_block`."""
    samples = stage_samples(replies)
    return {
        "samples": len(samples["end_to_end"]),
        "stages": stage_stats(samples),
    }


def render_decomposition(replies: Sequence[SearchReply], title: str) -> str:
    """The p50/p95/p99 stage-decomposition table of one run.

    Answers "which stage dominates tail latency": one row per
    decomposition stage plus the conserved ``end_to_end`` total, and a
    closing line naming the stage with the largest p99.
    """
    samples = stage_samples(replies)
    stats = stage_stats(samples)
    n = len(samples["end_to_end"])
    lines = [title, "-" * len(title), f"decomposed requests: {n}"]
    if n == 0:
        lines.append("(no replies carried a timing block)")
        return "\n".join(lines)
    header = (
        f"{'stage':>16s}  {'mean ms':>9s}  {'p50 ms':>9s}  "
        f"{'p95 ms':>9s}  {'p99 ms':>9s}"
    )
    lines.append(header)
    for stage in STAGE_ORDER + ("end_to_end",):
        row = stats[stage]
        lines.append(
            f"{stage:>16s}  {row['mean_s'] * 1e3:9.3f}  {row['p50_s'] * 1e3:9.3f}  "
            f"{row['p95_s'] * 1e3:9.3f}  {row['p99_s'] * 1e3:9.3f}"
        )
    dominant = max(STAGE_ORDER, key=lambda stage: stats[stage]["p99_s"])
    lines.append(
        f"dominant tail stage: {dominant} "
        f"(p99 {stats[dominant]['p99_s'] * 1e3:.3f} ms)"
    )
    if n < 3:
        lines.append(
            f"[degenerate: only {n} sample(s); percentiles are not distinct]"
        )
    return "\n".join(lines)


def service_snapshot(
    service: SearchService, report: TrafficReport, *, workload: str
) -> Snapshot:
    """Normalize a traffic run into the ledger's :class:`Snapshot` shape.

    Wall-clock semantics like the multiproc backend: per-worker busy
    seconds come from task timestamps; workers that never got a task
    appear as all-idle rows, and loss categories the service does not
    measure are zero.
    """
    pool = service.pool
    if pool is None:
        raise ServeError("service has no pool to snapshot")
    processors = []
    for index in range(pool.n_workers):
        split = pool.per_worker.get(index, {"pid": float(-1 - index), "applied": 0.0})
        processors.append(
            ProcBreakdown(
                pid=int(split["pid"]),
                busy=min(split["applied"], report.wall_s),
                starvation=0.0,
                interference=0.0,
                speculative=0.0,
                tail_idle=max(0.0, report.wall_s - split["applied"]),
                finish_time=report.wall_s,
            )
        )
    counters: dict[str, float] = {
        name: float(count)
        for name, count in (service.scheduler.counters if service.scheduler else {}).items()
    }
    for name, count in pool.counters.items():
        counters[f"pool_{name}"] = float(count)
    return Snapshot(
        backend="serve",
        time_unit=SECONDS,
        workload=workload,
        n_processors=pool.n_workers,
        makespan=report.wall_s,
        value=0.0,
        processors=tuple(processors),
        counters=counters,
        work=work_dict(pool.stats),
    )
