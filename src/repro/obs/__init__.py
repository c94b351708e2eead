"""Unified telemetry for the ER backends (sim, threaded, multiproc).

Everything starts at one instrumentation hook.  :mod:`repro.obs.probe`
holds one nullable global, ``probe.CURRENT``; every instrumented site in
the engine, the queues, the caches, the drivers and the service loads it
once and makes at most one call on it, and the probe fans that call out
to whichever of its four sinks are attached:

* the race detector's trace recorder (:mod:`repro.verify.trace`);
* the structured event bus (:mod:`repro.obs.events`: queue depths, node
  lifecycle, classification flips, task flow, cache traffic), with its
  live registry feed;
* the critical-path schedule recorder (:mod:`repro.obs.critpath`);
* this process's span ring (:mod:`repro.obs.live`).

New telemetry is a new sink on that probe, not a new hook.  On top of
the sinks sit the layers that read what they collected:

* :mod:`repro.obs.registry` — counters / gauges / histograms /
  time-series; op and event metric names are declared with the ops
  (:mod:`repro.sim.ops`) and event types (``events.EVENT_TYPES``);
* :mod:`repro.obs.snapshot` — the one comparable record of a run: a
  per-processor busy / starvation / interference / speculative / tail
  breakdown with the protocol counters and work stats attached;
* :mod:`repro.obs.critpath` and :mod:`repro.obs.whatif` — exact
  critical-path extraction over the simulated schedule (per-node blame,
  per-primitive makespan attribution) and the causal what-if engine
  that re-runs fixed-seed workloads under perturbed cost models;
* :mod:`repro.obs.export` and :mod:`repro.obs.ledger` — Chrome
  trace-event JSON (Perfetto, with optional critical-path overlay) +
  JSONL exporters, and the persistent run ledger with regression
  comparison over counters, fractions, and critical-path composition;
* :mod:`repro.obs.live` and :mod:`repro.obs.promtext` — wall-clock
  tracing of the real backends (per-worker span rings, cross-process
  clock-offset calibration, the live metrics feed behind
  ``repro-gametree top``) and the Prometheus text exporter + HTTP
  endpoint for the metrics registry.

Only the bus and the registry are imported at package load: the engine
and queue modules import this package from the bottom of the dependency
graph, so the heavier layers (which import the backends) must be pulled
in explicitly (``from repro.obs import snapshot``).
"""

from __future__ import annotations

from .events import (
    ALL_EVENT_TYPES,
    EV_CLASS_FLIP,
    EV_CRIT_SEGMENT,
    EV_ENGINE_CHOICE,
    EV_NODE_CREATED,
    EV_NODE_DONE,
    EV_NODE_POPPED,
    EV_QUEUE_DEPTH,
    EV_TASK_RESULT,
    EV_TASK_SUBMIT,
    EVENT_TYPES,
    EventBus,
    ObsEvent,
    observing,
)
from .registry import MetricsRegistry, aggregate

__all__ = [
    "ALL_EVENT_TYPES",
    "EV_CLASS_FLIP",
    "EV_CRIT_SEGMENT",
    "EV_ENGINE_CHOICE",
    "EV_NODE_CREATED",
    "EV_NODE_DONE",
    "EV_NODE_POPPED",
    "EV_QUEUE_DEPTH",
    "EV_TASK_RESULT",
    "EV_TASK_SUBMIT",
    "EVENT_TYPES",
    "EventBus",
    "MetricsRegistry",
    "ObsEvent",
    "aggregate",
    "observing",
    "self_check",
]


def self_check() -> list[str]:
    """End-to-end exercise of the telemetry pipeline on a tiny sim run.

    Used by ``repro-gametree verify --obs``: runs a fixed-seed simulated
    search under an event bus, then checks the snapshot accounting
    invariant, the Chrome trace structure, and the ledger record schema.
    Returns a list of problems (empty = everything holds).
    """
    import json

    from ..core.er_parallel import parallel_er
    from ..games.base import SearchProblem
    from ..games.random_tree import RandomGameTree
    from . import critpath, export, ledger, snapshot
    from .events import observing as _observing

    problems: list[str] = []
    problem = SearchProblem(RandomGameTree(3, 5, seed=7), depth=5)
    with _observing() as bus, critpath.recording() as rec:
        result = parallel_er(problem, 4)
    path = critpath.extract(rec, result.sim_time)
    if path.length != result.sim_time:
        problems.append(
            f"critical-path length {path.length!r} != makespan {result.sim_time!r}"
        )
    snap = snapshot.snapshot_from_sim(result, workload="selfcheck", bus=bus)
    problems.extend(snap.check_accounting())
    if not bus.events:
        problems.append("event bus recorded no events during a parallel run")

    trace_text = export.render_chrome_trace(
        bus.events, report=result.report, schedule=rec.intervals
    )
    try:
        payload = json.loads(trace_text)
    except json.JSONDecodeError as exc:  # pragma: no cover - would be a bug
        problems.append(f"chrome trace is not valid JSON: {exc}")
    else:
        if not isinstance(payload.get("traceEvents"), list) or not payload["traceEvents"]:
            problems.append("chrome trace has no traceEvents")

    record = ledger.make_record(snap, workload="selfcheck", scale="reduced", seed=7)
    problems.extend(ledger.validate_record(record))
    report = ledger.compare_records(record, record)
    if report.regressions:
        problems.append("self-comparison of one record reported regressions")
    return problems
