"""Command-line entry points: regenerate any paper exhibit from a shell.

Examples::

    repro-gametree figure 11                 # ER efficiency, random trees
    repro-gametree figure 12 --scale paper   # Othello node counts, full size
    repro-gametree serial --tree O1          # serial AB vs serial ER
    repro-gametree baselines                 # Section 4 algorithm claims
    repro-gametree explain --workload R3 --P 4   # loss split, critical path, what-if
    repro-gametree explain --P 8 --gantt --skip-whatif  # schedule chart of the run
    repro-gametree explain --backend multiproc --trace full --trace-out run.json
    repro-gametree top --backend multiproc -P 4  # live dashboard of a real run
    repro-gametree demo                      # 30-second tour
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .obs.critpath import ScheduleRecorder
    from .obs.events import EventBus
    from .obs.live import LiveTrace
    from .obs.snapshot import Snapshot
    from .serve import ServeConfig
    from .sim.metrics import SimReport

from .analysis.experiments import (
    cached_curve,
    er_config_for,
    figure10,
    figure11,
    format_efficiency_table,
    format_nodes_table,
    format_speedup_summary,
    serial_baselines,
)
from .cache import CACHE_MODES, make_eval_cache, make_tt
from .core.er_parallel import parallel_er
from .costmodel import DEFAULT_COST_MODEL
from .games.base import SearchProblem
from .games.random_tree import IncrementalGameTree, RandomGameTree, SyntheticOrderedTree
from .parallel import mwf, parallel_aspiration, pv_splitting, tree_splitting
from .search.alphabeta import alphabeta
from .workloads.suite import PROCESSOR_COUNTS, TreeSpec, table3_suite


def _cmd_figure(args: argparse.Namespace) -> int:
    counts = tuple(args.processors) if args.processors else PROCESSOR_COUNTS
    number = args.number
    if number in (10, 12):
        curves = figure10(args.scale, counts)
    elif number in (11, 13):
        curves = figure11(args.scale, counts)
    else:
        print(f"unknown figure {number}; this paper has figures 10-13", file=sys.stderr)
        return 2
    if number in (10, 11):
        print(f"Figure {number} — efficiency of parallel ER ({args.scale} scale)")
        print(format_efficiency_table(curves))
    else:
        print(f"Figure {number} — nodes generated ({args.scale} scale)")
        print(format_nodes_table(curves))
    print()
    print(format_speedup_summary(curves))
    return 0


def _cmd_serial(args: argparse.Namespace) -> int:
    spec = table3_suite(args.scale)[args.tree]
    base = serial_baselines(spec)
    print(f"{spec.name} ({spec.description}), value = {base.alphabeta.value}")
    for name, result in (("alpha-beta", base.alphabeta), ("serial ER", base.er)):
        s = result.stats
        print(
            f"  {name:10s}: cost={s.cost:10.0f}  nodes={s.nodes_generated:7d}  "
            f"leaves={s.leaf_evals:7d}  ordering-evals={s.ordering_evals:6d}"
        )
    print(f"  best serial: {base.best_name}")
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    counts = tuple(args.processors) if args.processors else (1, 2, 4, 8, 16)
    print("Parallel aspiration (Baudet) on a strongly ordered tree:")
    problem = SearchProblem(IncrementalGameTree(4, 8, seed=2, noise=0.5), depth=8)
    serial = alphabeta(problem).stats.cost
    for k in counts:
        r = parallel_aspiration(problem, k)
        print(f"  k={k:3d}  speedup={r.speedup(serial):5.2f}")
    print("Tree-splitting (Fishburn) on a best-first tree (expect ~c*sqrt(k)):")
    problem = SearchProblem(SyntheticOrderedTree(4, 8, seed=3), depth=8)
    serial = alphabeta(problem).stats.cost
    for k in counts:
        r = tree_splitting(problem, k)
        print(f"  k={k:3d}  speedup={r.speedup(serial):5.2f}")
    print("PV-splitting (Marsland) on a strongly ordered tree:")
    problem = SearchProblem(
        IncrementalGameTree(6, 6, seed=4, noise=0.3), depth=6, sort_below_root=6
    )
    serial = alphabeta(problem).stats.cost
    for k in counts:
        r = pv_splitting(problem, k)
        print(f"  k={k:3d}  speedup={r.speedup(serial):5.2f}")
    print("MWF (Akl et al.) on a random tree (expect a plateau):")
    problem = SearchProblem(RandomGameTree(8, 4, seed=5), depth=4)
    serial = alphabeta(problem, deep_cutoffs=False).stats.cost
    for k in counts:
        r = mwf(problem, k)
        print(f"  k={k:3d}  speedup={r.speedup(serial):5.2f}")
    return 0


def _config_json(config: object) -> dict[str, object]:
    """Flatten a config/cost-model dataclass to JSON-safe values."""
    out: dict[str, object] = {}
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        return out
    for field_info in dataclasses.fields(config):
        value = getattr(config, field_info.name)
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[field_info.name] = value
        else:
            out[field_info.name] = str(value)
    return out


def _observed_run(
    spec: TreeSpec,
    backend: str,
    count: int,
    tt_mode: str = "off",
    eval_mode: str = "off",
    batch: bool = False,
    trace: str = "off",
) -> "tuple[EventBus, Snapshot, SimReport | None, LiveTrace | None, ScheduleRecorder | None]":
    """Run one tree on one backend under a telemetry bus.

    Returns ``(bus, snapshot, sim_report, live, schedule)``.  On the
    simulated backend the traced run is recorded under a schedule
    recorder, ``schedule``, which the critical path, the Perfetto tracks
    and the Gantt rows all read, and the snapshot splits its busy time
    (:mod:`repro.analysis.losses`); ``live`` is the
    merged wall-clock span timeline when a real backend ran with
    ``trace`` enabled.  Each call builds a fresh eval cache, so the
    telemetry run is self-contained.
    """
    from .analysis.losses import loss_report
    from .obs import critpath, observing
    from .obs import snapshot as obs_snapshot

    problem = spec.problem()
    config = er_config_for(spec)
    with observing() as bus:
        if backend == "sim":
            with critpath.recording() as recorder:
                result = parallel_er(
                    problem, count, config=config, tt=make_tt(tt_mode),
                    eval_cache=make_eval_cache(eval_mode), batch_eval=batch,
                    trace=True,
                )
            base = serial_baselines(spec, trace=True)
            snap = loss_report(
                result, recorder.intervals, base.best_time, base.alphabeta.stats,
                workload=spec.name, bus=bus,
            )
            return bus, snap, result.report, None, recorder
        if backend == "threaded":
            from .parallel.threaded import threaded_er_observed

            run = threaded_er_observed(
                problem, count, config=config, tt=make_tt(tt_mode),
                eval_cache=make_eval_cache(eval_mode), batch_eval=batch, trace=trace,
            )
            snap = obs_snapshot.snapshot_from_threaded(run, workload=spec.name, bus=bus)
            return bus, snap, None, run.trace, None
        from .parallel.multiproc import multiproc_er

        mp_result = multiproc_er(
            problem, count, config=config, tt_mode=tt_mode,
            eval_cache_mode=eval_mode, batch_eval=batch, trace=trace,
        )
        snap = obs_snapshot.snapshot_from_multiproc(mp_result, workload=spec.name, bus=bus)
        return bus, snap, None, mp_result.trace, None


def _write_ledger_record(
    spec: TreeSpec,
    snap: "Snapshot",
    directory: str,
    scale: str,
    tt_mode: str = "off",
    eval_mode: str = "off",
    batch: bool = False,
    live: "LiveTrace | None" = None,
    critpath: "dict[str, float] | None" = None,
    whatif: "list[dict[str, float | str]] | None" = None,
) -> Path:
    """Validate and write one run's record; ``critpath`` is a path's
    :meth:`~repro.obs.critpath.CriticalPath.composition` and ``whatif``
    the :func:`~repro.obs.whatif.to_records` points of a sweep."""
    from .obs import ledger

    trace_summary = None
    if live is not None:
        trace_summary = ledger.trace_block(
            live.mode,
            len(live.spans),
            live.total_dropped,
            live.overhead_fraction(snap.makespan),
        )
    if critpath:
        snap = dataclasses.replace(snap, critpath=critpath)
    record = ledger.make_record(
        snap,
        workload=spec.name,
        scale=scale,
        seed=spec.seed,
        config={
            "serial_depth": spec.serial_depth,
            "sort_below_root": spec.sort_below_root,
            "tt": tt_mode,
            "eval_cache": eval_mode,
            "batch_eval": batch,
        },
        cost_model=_config_json(DEFAULT_COST_MODEL),
        whatif=whatif,
        trace=trace_summary,
    )
    problems = ledger.validate_record(record)
    if problems:
        raise SystemExit("ledger record invalid: " + "; ".join(problems))
    return ledger.write_record(record, directory)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over one running real-backend search.

    The search runs on a worker thread with a :class:`LiveFeed` attached
    to the telemetry bus, so the metrics registry updates *while* the
    coordinator emits events; the foreground loop re-renders the
    dashboard every ``--interval`` seconds until the search returns.
    With ``--prom-port`` the same registry is additionally served as a
    Prometheus ``/metrics`` endpoint for the run's duration.
    """
    import threading as _threading
    import time as _time

    from .obs import events as obs_events
    from .obs import live as obs_live
    from .obs.registry import MetricsRegistry

    spec = table3_suite(args.scale)[args.tree]
    config = er_config_for(spec)
    count = args.processors_single
    registry = MetricsRegistry()
    feed = obs_live.LiveFeed(registry)
    outcome: dict[str, object] = {}

    def run_search() -> None:
        try:
            if args.backend == "threaded":
                from .parallel.threaded import threaded_er_observed

                run = threaded_er_observed(
                    spec.problem(), count, config=config, tt=make_tt(args.tt),
                    eval_cache=make_eval_cache(args.eval_cache), trace=args.trace,
                )
                outcome["value"] = run.value
                outcome["wall"] = run.wall_time
                outcome["live"] = run.trace
            else:
                from .parallel.multiproc import multiproc_er

                result = multiproc_er(
                    spec.problem(), count, config=config, tt_mode=args.tt,
                    eval_cache_mode=args.eval_cache, trace=args.trace,
                )
                outcome["value"] = result.value
                outcome["wall"] = result.wall_time
                outcome["live"] = result.trace
        except BaseException as exc:  # re-raised after the render loop
            outcome["error"] = exc

    t0 = _time.perf_counter()

    def show(done: bool) -> None:
        frame = obs_live.render_top(
            feed.collect(), workload=spec.name, backend=args.backend,
            n_workers=count, elapsed=_time.perf_counter() - t0, done=done,
        )
        if args.plain:
            print(frame)
        else:
            # Home + clear-to-end redraws in place without scrollback spam.
            print("\x1b[H\x1b[2J" + frame, end="", flush=True)

    server = None
    with obs_events.observing() as bus:
        bus.attach_live(feed.on_event)
        if args.prom_port is not None:
            from .obs.promtext import MetricsServer

            server = MetricsServer(feed.collect, port=args.prom_port).start()
            print(f"serving metrics at {server.url}")
        worker = _threading.Thread(target=run_search, name="repro-top-search", daemon=True)
        worker.start()
        try:
            while worker.is_alive():
                show(done=False)
                worker.join(timeout=args.interval)
        finally:
            bus.attach_live(None)
            if server is not None:
                server.stop()
    show(done=True)
    error = outcome.get("error")
    if error is not None:
        raise error  # type: ignore[misc]
    print(f"value {outcome['value']!r} in {outcome['wall']:.3f}s wall")
    live = outcome.get("live")
    if isinstance(live, obs_live.LiveTrace) and live.spans:
        wall = float(outcome["wall"])  # type: ignore[arg-type]
        print(
            f"trace: {len(live.spans)} spans, {live.total_dropped} dropped, "
            f"overhead {live.overhead_fraction(wall):.2%}"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Where did the time go?  One run on any backend, explained.

    The run happens once under the telemetry bus.  Every backend prints
    the snapshot's busy / starvation / interference / speculative split
    and fails on an accounting violation.  The simulated run is also
    recorded under a :class:`~repro.obs.critpath.ScheduleRecorder`: its
    critical path must equal the makespan exactly, it prints the blame
    report (and with ``--gantt`` the schedule chart), and the what-if
    sweep re-runs the same fixed-seed workload under perturbed cost
    models to print predicted-vs-actual speedups.  ``--trace-out`` writes
    the Perfetto file plus the raw events beside it, ``--ledger-dir``
    one ledger record.
    """
    from .costmodel import CostModel
    from .obs import critpath, export, whatif
    from .obs.snapshot import render_split

    sim = args.backend == "sim"
    if sim and args.trace != "off":
        print("explain: --trace applies to the real backends only", file=sys.stderr)
        return 2
    if args.gantt and not sim:
        print("explain: --gantt needs the sim backend's recorded schedule", file=sys.stderr)
        return 2
    spec = table3_suite(args.scale)[args.tree]
    count = args.processors_single
    bus, snap, report, live, schedule = _observed_run(
        spec, args.backend, count, eval_mode=args.eval_cache,
        batch=args.batch_eval, trace=args.trace,
    )
    print(f"{spec.name} {args.backend} P={count} ({args.scale} scale): {len(bus.events)} events")
    if live is not None:
        print(
            f"live spans: {len(live.spans)} across {len(live.workers())} rows, "
            f"{live.total_dropped} dropped, "
            f"overhead {live.overhead_fraction(snap.makespan):.2%} of wall time"
        )
    print(render_split(snap), end="")
    problems = snap.check_accounting()
    for problem in problems:
        print(f"accounting violation: {problem}", file=sys.stderr)
    if problems:
        return 1

    points: list[whatif.WhatIfPoint] = []
    cp = None
    if schedule is not None and report is not None:
        from .analysis.gantt import render_gantt

        cp = critpath.extract(schedule, report.makespan)
        print()
        title = f"{spec.name} sim P={count} ({args.scale} scale)"
        print(critpath.render_report(cp, title=title, top=args.top), end="")
        if cp.length != cp.makespan:
            print(
                f"explain: path length {cp.length!r} != makespan {cp.makespan!r}",
                file=sys.stderr,
            )
            return 1
        if args.gantt:
            print()
            print(render_gantt(report, schedule.intervals, critpath=cp))
        if not args.skip_whatif:
            config = er_config_for(spec)

            def rerun(cm: CostModel) -> float:
                # A fresh cache per re-run: every point of the sweep starts
                # from the same cold-cache state as the base run, and the
                # cache's own op costs scale with the perturbed model.
                return parallel_er(
                    spec.problem(), count, config=config, cost_model=cm,
                    eval_cache=make_eval_cache(args.eval_cache, cost_model=cm),
                    batch_eval=args.batch_eval,
                ).sim_time

            points = whatif.sweep(
                rerun,
                cp.by_primitive(),
                cp.makespan,
                primitives=args.whatif,
                factors=args.factors,
                cost_model=DEFAULT_COST_MODEL,
            )
            print()
            print(whatif.render_table(points), end="")

    if args.trace_out:
        path = export.write_chrome_trace(
            args.trace_out,
            bus.events,
            report=report,
            schedule=schedule.intervals if schedule is not None else (),
            time_unit=snap.time_unit,
            critpath=cp,
            live=live,
            metadata={
                "workload": spec.name,
                "backend": args.backend,
                "n_processors": count,
                "scale": args.scale,
                "seed": spec.seed,
                "trace_mode": args.trace,
            },
        )
        jsonl_path = export.write_jsonl(f"{path}.jsonl", bus.events)
        print(f"trace: {path}  (open at https://ui.perfetto.dev or chrome://tracing)")
        print(f"jsonl: {jsonl_path}")
    if args.ledger_dir:
        record_path = _write_ledger_record(
            spec, snap, args.ledger_dir, args.scale, eval_mode=args.eval_cache,
            batch=args.batch_eval, live=live,
            critpath=cp.composition() if cp is not None else None,
            whatif=whatif.to_records(points) if points else None,
        )
        print(f"ledger: {record_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Diff two ledger records (by file path or git SHA prefix)."""
    from .obs import ledger

    try:
        baseline = ledger.resolve(args.baseline, args.ledger_dir)
        candidate = ledger.resolve(args.candidate, args.ledger_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for name, record in (("baseline", baseline), ("candidate", candidate)):
        problems = ledger.validate_record(record)
        if problems:
            print(f"compare: {name} record invalid: {'; '.join(problems)}", file=sys.stderr)
            return 2
    report = ledger.compare_records(baseline, candidate, tolerance=args.tolerance)
    print(report.format())
    if not report.ok and not args.warn_only:
        return 1
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    """Compare one tree's parallel backends against serial ER.

    ``--backend sim`` reports simulated-time speedup (the paper's
    exhibits); ``--backend threaded`` and ``--backend multiproc`` report
    real wall-clock, of which only multiproc can beat 1.0 under CPython.
    With ``--obs``, each processor count is additionally run under the
    telemetry bus and persisted as a ledger record.
    """
    import time as _time

    from .parallel.multiproc import (
        format_scaling_table,
        measure_serial_seconds,
        scaling_run,
    )
    from .parallel.threaded import threaded_er

    spec = table3_suite(args.scale)[args.tree]
    counts = tuple(args.processors) if args.processors else (1, 2, 4, 8)
    status = 0
    if args.backend == "sim":
        if args.tt == "off" and args.eval_cache == "off" and not args.batch_eval:
            curve = cached_curve(args.scale, args.tree, counts)
            print(f"{spec.name} — simulated backend (discrete-event engine)")
            print(format_efficiency_table({args.tree: curve}))
            print(format_speedup_summary({args.tree: curve}))
        else:
            status = _sim_cache_sweep(
                spec, args.tt, counts, eval_mode=args.eval_cache, batch=args.batch_eval
            )
    elif args.backend == "threaded":
        problem = spec.problem()
        config = er_config_for(spec)
        tt = make_tt(args.tt)
        eval_cache = make_eval_cache(args.eval_cache)
        serial_seconds = measure_serial_seconds(problem)
        print(f"{spec.name} — serial ER wall time {serial_seconds:.3f}s")
        print(f"threaded backend (protocol check; the GIL forbids speedup; tt={args.tt}):")
        for count in counts:
            t0 = _time.perf_counter()
            threaded_er(
                problem, count, config=config, tt=tt,
                eval_cache=eval_cache, batch_eval=args.batch_eval,
            )
            wall = _time.perf_counter() - t0
            print(f"  P={count:2d}  wall={wall:.3f}s  speedup={serial_seconds / wall:5.2f}")
    else:
        problem = spec.problem()
        config = er_config_for(spec)
        serial_seconds = measure_serial_seconds(problem)
        print(f"{spec.name} — serial ER wall time {serial_seconds:.3f}s")
        _, points = scaling_run(
            problem, counts, config=config, serial_seconds=serial_seconds, tt_mode=args.tt,
            eval_cache_mode=args.eval_cache, batch_eval=args.batch_eval, trace=args.trace,
        )
        print(f"multiproc backend (worker processes; real parallelism; tt={args.tt}):")
        print(format_scaling_table(spec.name, serial_seconds, points))
    if args.obs:
        for count in counts:
            _, snap, _, live, _ = _observed_run(
                spec, args.backend, count, tt_mode=args.tt,
                eval_mode=args.eval_cache, batch=args.batch_eval,
                trace=args.trace if args.backend != "sim" else "off",
            )
            problems = snap.check_accounting()
            if problems:
                status = 1
                for problem_text in problems:
                    print(f"accounting violation (P={count}): {problem_text}", file=sys.stderr)
                continue
            path = _write_ledger_record(
                spec, snap, args.obs_dir, args.scale, tt_mode=args.tt,
                eval_mode=args.eval_cache, batch=args.batch_eval, live=live,
            )
            print(f"ledger: {path}")
    return status


def _sim_cache_sweep(
    spec: TreeSpec,
    tt_mode: str,
    counts: tuple[int, ...],
    *,
    eval_mode: str = "off",
    batch: bool = False,
) -> int:
    """Simulated sweep with the caches persisted across counts.

    Random trees have no within-run transpositions, so a table's value
    shows up *across* the sweep: results proven at one processor count
    answer whole subtrees (TT) or leaves (eval cache) at the next.  Each
    count is also run with everything off so the cost savings and the
    value equality are visible in one report.
    """
    from .core.serial_er import er_search

    problem = spec.problem()
    config = er_config_for(spec)
    serial_cost = er_search(problem).stats.cost
    tt = make_tt(tt_mode)
    eval_cache = make_eval_cache(eval_mode)
    print(
        f"{spec.name} — simulated backend, --tt {tt_mode} --eval-cache {eval_mode}"
        f"{' --batch-eval' if batch else ''} (caches persist across the sweep)"
    )
    print(f"  {'P':>3s}  {'speedup':>7s}  {'cost(off)':>12s}  {'cost(on)':>12s}  value")
    status = 0
    for count in counts:
        off = parallel_er(problem, count, config=config)
        cached = parallel_er(
            problem, count, config=config, tt=tt, eval_cache=eval_cache, batch_eval=batch
        )
        if cached.value != off.value:
            print(f"  P={count}: VALUE MISMATCH on={cached.value} off={off.value}", file=sys.stderr)
            status = 1
        print(
            f"  {count:3d}  {serial_cost / cached.sim_time:7.2f}  "
            f"{off.sim_time:12.1f}  {cached.sim_time:12.1f}  "
            f"{cached.value:g}"
        )
    snapshot: dict[str, int] = {}
    if tt is not None:
        snapshot.update(tt.counter_snapshot())
    if eval_cache is not None:
        snapshot.update(eval_cache.counter_snapshot())
    if snapshot:
        print("  caches: " + "  ".join(f"{key}={value}" for key, value in snapshot.items()))
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import build_report

    counts = tuple(args.processors) if args.processors else PROCESSOR_COUNTS
    report = build_report(args.scale, processor_counts=counts)
    print(report.markdown)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    spec = table3_suite("reduced")["R1"]
    base = serial_baselines(spec)
    print(f"Tree {spec.name}: {spec.description}")
    print(f"root value {base.alphabeta.value}; best serial: {base.best_name}")
    curve = cached_curve("reduced", "R1", (1, 4, 16))
    for point in curve.points:
        print(
            f"  P={point.n_processors:2d}  speedup={point.speedup:5.2f}  "
            f"efficiency={point.efficiency:.2f}  nodes={point.nodes_generated}"
        )
    return 0


def _serve_config(args: argparse.Namespace) -> "ServeConfig":
    from .serve import ServeConfig

    slo_targets = None if args.no_slo else ServeConfig.slo_targets
    return ServeConfig(
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        tt_mode=args.tt,
        eval_cache_mode=args.eval_cache,
        scale=args.scale,
        trace_mode=args.trace,
        metrics_port=args.metrics_port,
        slo_targets=slo_targets,
        slo_objective=args.slo_objective,
        stall_overrun_factor=args.stall_overrun,
        flight_dir=args.flight_dir,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the search service until SIGINT/SIGTERM or a shutdown op."""
    import asyncio
    import signal

    from .serve import SearchService

    config = _serve_config(args)

    async def run() -> int:
        service = await SearchService(config).start()
        host, port = service.address
        print(f"serving Table 3 suite ({config.scale}) on {host}:{port}")
        if service.metrics_url is not None:
            print(f"metrics: {service.metrics_url}")
        print("stop with Ctrl-C or the 'shutdown' op; draining is graceful")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.serve_until_shutdown()
        problems = (
            service.scheduler.conservation_problems()
            if service.scheduler is not None
            else []
        )
        for problem in problems:
            print(f"accounting problem: {problem}", file=sys.stderr)
        snapshot = service.stats_snapshot()
        print(
            f"drained: {snapshot['completed']} completed, "
            f"{snapshot['shed']} shed of {snapshot['submitted']} submitted"
        )
        return 1 if problems else 0

    return asyncio.run(run())


def _cmd_profile_service(args: argparse.Namespace) -> int:
    """Where do the service's milliseconds go, stage by stage?

    Replays one deterministic traffic trace, prints the traffic summary
    plus the p50/p95/p99 stage-decomposition table, and exits nonzero
    if any reply's decomposition fails to conserve.  In-process by
    default, with request tracing on: it also checks the run's snapshot
    accounting, optionally exports the per-request Perfetto tracks,
    and (with ``--ledger-dir``) records the run's ``latency`` block so
    ``repro-gametree compare`` can flag a single stage regressing even
    when the end-to-end tail holds.  ``--connect`` drives an
    already-running ``repro-gametree serve`` over TCP instead, and
    ``--shutdown`` then asks it to drain.
    """
    import asyncio

    from dataclasses import replace as _dc_replace

    from .obs import export, ledger
    from .serve import SearchService, suite_catalog
    from .serve.traffic import (
        TrafficReport,
        TrafficSpec,
        generate_trace,
        latency_fields,
        render_decomposition,
        run_trace,
        run_trace_client,
        service_snapshot,
    )

    if args.connect is None and args.shutdown:
        print("--shutdown needs --connect", file=sys.stderr)
        return 2
    if args.connect is not None and (args.trace_out or args.ledger_dir):
        print("--trace-out and --ledger-dir need an in-process service", file=sys.stderr)
        return 2
    spec = TrafficSpec(
        workloads=tuple(args.workloads),
        n_requests=args.requests,
        seed=args.seed,
        max_depth=args.depth,
        repeat_fraction=args.repeat,
    )
    catalog = suite_catalog(args.scale)
    trace = generate_trace(spec, catalog)

    def print_report(report: TrafficReport, title: str) -> int:
        print(report.render(title))
        print()
        print(render_decomposition(report.replies, "latency decomposition"))
        conservation = [
            problem
            for reply in report.replies
            if reply.timing is not None
            for problem in reply.timing.conservation_problems()
        ]
        for problem in conservation:
            print(f"conservation problem: {problem}", file=sys.stderr)
        return 1 if conservation else 0

    if args.connect is not None:
        from .serve.client import ServiceClient

        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 2

        async def run_remote() -> int:
            async with ServiceClient(host, int(port_text)) as client:
                report = await run_trace_client(client, trace)
                exit_code = print_report(
                    report, f"profile-service (seed {args.seed}, {args.connect})"
                )
                if args.shutdown:
                    await client.shutdown_server()
                    print("sent shutdown; server is draining")
            return exit_code

        return asyncio.run(run_remote())

    config = _serve_config(args)
    if config.trace_mode == "off":
        # Worker spans are the point of the profile; default them on.
        config = _dc_replace(config, trace_mode="full")

    async def run() -> int:
        async with SearchService(config, catalog=catalog) as service:
            report = await run_trace(service, trace)
            exit_code = print_report(report, f"profile-service (seed {args.seed})")
            snap = service_snapshot(service, report, workload=f"traffic-{args.seed}")
            for problem in snap.check_accounting():
                print(f"accounting problem: {problem}", file=sys.stderr)
                exit_code = 1
            if args.trace_out is not None:
                stored = service.traces.traces()
                pool = service.pool
                worker_spans = (
                    {t.request_id: pool.request_spans(t.request_id) for t in stored}
                    if pool is not None
                    else {}
                )
                path = export.write_service_trace(
                    args.trace_out,
                    stored,
                    worker_spans=worker_spans,
                    span_pids=pool.span_pids() if pool is not None else {},
                    metadata={"seed": args.seed, "requests": args.requests},
                )
                print(f"\nper-request Perfetto trace: {path}")
            if args.ledger_dir is not None:
                record = ledger.make_record(
                    snap,
                    workload=f"traffic-{args.seed}",
                    scale=args.scale,
                    seed=args.seed,
                    config={
                        "requests": args.requests,
                        "depth": args.depth,
                        "tt": config.tt_mode,
                        "eval_cache": config.eval_cache_mode,
                        "trace": config.trace_mode,
                    },
                    latency=ledger.latency_block(**latency_fields(report.replies)),  # type: ignore[arg-type]
                )
                problems = ledger.validate_record(record)
                if problems:
                    raise SystemExit("ledger record invalid: " + "; ".join(problems))
                record_path = ledger.write_record(record, args.ledger_dir)
                print(f"ledger record: {record_path}")
            return exit_code

    return asyncio.run(run())


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the concurrency-correctness toolkit end to end.

    Six gates: the invariant lint, the flow analysis (lockset, escape,
    lock order, protocol conformance) with its baseline gate and
    seeded-mutation self-test, the race detector's mutation-mode
    self-test, race analysis of fresh fixed-seed traces from every
    backend, and (when mypy is importable) the strict typing gate.
    Exit status 0 means every gate passed.
    """
    from .errors import VerificationError
    from .verify import harness
    from .verify.flow import analyze_repo, repo_root
    from .verify.flow.baseline import BASELINE_NAME, filter_baselined, load_baseline
    from .verify.flow.sarif import to_sarif_bytes
    from .verify.flow.selftest import self_test as flow_self_test
    from .verify.racedetect import analyze, self_test
    from .verify.staticcheck import check_repo
    from .verify.trace import Event

    failed = False

    print("== invariant lint (repro.verify.staticcheck) ==")
    findings = check_repo()
    for finding in findings:
        print(f"  {finding}")
    if findings:
        failed = True
    else:
        print("  OK: all invariants hold")

    print("== flow analysis (repro.verify.flow) ==")
    root = repo_root()
    flow_findings = analyze_repo(root)
    novel, baselined = filter_baselined(
        flow_findings, load_baseline(root / BASELINE_NAME)
    )
    if args.sarif_out is not None:
        args.sarif_out.parent.mkdir(parents=True, exist_ok=True)
        args.sarif_out.write_bytes(to_sarif_bytes(flow_findings))
        print(f"  SARIF report -> {args.sarif_out}")
    for finding in novel:
        print(f"  {finding}")
    if novel:
        failed = True
    else:
        suffix = f" ({len(baselined)} baselined)" if baselined else ""
        print(f"  OK: no non-baselined findings{suffix}")

    print("== flow analyzer self-test (seeded mutations) ==")
    try:
        killed, total = flow_self_test()
    except VerificationError as exc:
        failed = True
        print(f"  {exc}")
    else:
        print(f"  OK: {killed}/{total} seeded concurrency bugs caught")

    print("== race detector self-test (mutation mode) ==")
    try:
        self_test()
    except VerificationError as exc:
        failed = True
        print(f"  {exc}")
    else:
        print("  OK: every seeded race is caught, clean trace passes")

    print("== clean-trace gates (fresh captures, fixed seeds) ==")
    captures: list[tuple[str, Callable[[], list[Event]]]] = [
        ("sim", harness.capture_sim_trace),
        ("sim-serial-depth", harness.capture_sim_serial_depth_trace),
        ("threaded", harness.capture_threaded_trace),
    ]
    if not args.fast:
        captures.append(("multiproc", harness.capture_multiproc_trace))
    for name, capture in captures:
        report = analyze(capture())
        if report.ok:
            print(f"  {name}: {report.events} events -> OK")
        else:
            failed = True
            print(f"  {name}: {report.summary()}")

    if args.obs:
        print("== telemetry self-check (repro.obs) ==")
        from .obs import self_check

        obs_problems = self_check()
        for problem in obs_problems:
            print(f"  {problem}")
        if obs_problems:
            failed = True
        else:
            print("  OK: snapshot accounting, trace export, ledger round-trip")

    print("== strict typing gate (mypy) ==")
    try:
        from mypy import api as mypy_api
    except ImportError:
        print("  mypy not installed; skipped (the CI verify job enforces it)")
    else:
        stdout, stderr, status = mypy_api.run(
            [
                "--strict",
                "--config-file",
                str(root / "pyproject.toml"),
                str(root / "src" / "repro"),
            ]
        )
        if stdout:
            print("  " + "\n  ".join(stdout.rstrip().splitlines()))
        if stderr:
            print("  " + "\n  ".join(stderr.rstrip().splitlines()), file=sys.stderr)
        if status != 0:
            failed = True

    print("verify: FAILED" if failed else "verify: OK")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gametree",
        description="Reproduce 'Searching Game Trees in Parallel' (ICPP 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(10, 11, 12, 13))
    fig.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    fig.add_argument("--processors", type=int, nargs="*", default=None)
    fig.set_defaults(func=_cmd_figure)

    ser = sub.add_parser("serial", help="serial alpha-beta vs serial ER on one tree")
    ser.add_argument("--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R1")
    ser.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    ser.set_defaults(func=_cmd_serial)

    base = sub.add_parser("baselines", help="Section 4 baseline algorithm claims")
    base.add_argument("--processors", type=int, nargs="*", default=None)
    base.set_defaults(func=_cmd_baselines)

    speed = sub.add_parser(
        "speedup", help="compare backends (sim / threaded / multiproc) on one tree"
    )
    speed.add_argument(
        "--backend", choices=("sim", "threaded", "multiproc"), default="multiproc"
    )
    speed.add_argument(
        "--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R1"
    )
    speed.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    speed.add_argument("--processors", type=int, nargs="*", default=None)
    speed.add_argument(
        "--tt",
        choices=CACHE_MODES,
        default="off",
        help="transposition table: off, private (per worker), or shared "
        "(one concurrent table; on sim it persists across the sweep)",
    )
    speed.add_argument(
        "--eval-cache",
        choices=CACHE_MODES,
        default="off",
        help="Zobrist-keyed static-value cache: off, private (per worker), "
        "or shared (one concurrent cache; implies batched misses)",
    )
    speed.add_argument(
        "--batch-eval",
        action="store_true",
        help="batch frontier static evaluations (cheaper per leaf) even "
        "without a cache",
    )
    speed.add_argument(
        "--trace",
        choices=("off", "sampled", "full"),
        default="off",
        help="wall-clock span tracing on the real backends: off, sampled "
        "(1-in-16 cache spans), or full",
    )
    speed.add_argument(
        "--obs",
        action="store_true",
        help="also run each count under the telemetry bus and write ledger records",
    )
    speed.add_argument(
        "--obs-dir",
        default="results/ledger",
        help="directory for --obs ledger records (default: results/ledger)",
    )
    speed.set_defaults(func=_cmd_speedup)

    compare = sub.add_parser(
        "compare", help="diff two ledger records and flag regressions"
    )
    compare.add_argument("baseline", help="ledger record path or git SHA prefix")
    compare.add_argument("candidate", help="ledger record path or git SHA prefix")
    compare.add_argument(
        "--ledger-dir",
        default="results/ledger",
        help="directory searched when an operand is a SHA prefix",
    )
    compare.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative (counters) / absolute (fractions) regression tolerance",
    )
    compare.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI gate mode)",
    )
    compare.set_defaults(func=_cmd_compare)

    explain = sub.add_parser(
        "explain",
        help="where the time of one run went: loss split on every backend; "
        "critical path, what-if and Gantt chart on sim",
    )
    explain.add_argument(
        "--backend", choices=("sim", "threaded", "multiproc"), default="sim"
    )
    explain.add_argument(
        "--workload",
        "--tree",
        dest="tree",
        choices=("R1", "R2", "R3", "O1", "O2", "O3"),
        default="R3",
    )
    explain.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    explain.add_argument(
        "-P", "--P", "--processors", dest="processors_single", type=int, default=4
    )
    explain.add_argument(
        "--top", type=int, default=10, help="rows per blame/segment section"
    )
    explain.add_argument(
        "--eval-cache",
        choices=CACHE_MODES,
        default="off",
        help="run (and what-if re-run) with this eval-cache mode; each "
        "re-run gets a fresh cache so the sweep stays deterministic",
    )
    explain.add_argument(
        "--batch-eval",
        action="store_true",
        help="batch frontier static evaluations in the profiled run",
    )
    explain.add_argument(
        "--whatif",
        nargs="*",
        default=["static_eval", "heap_op", "expansion"],
        help="cost primitives to perturb (see repro.obs.whatif.PRIMITIVE_FIELDS)",
    )
    explain.add_argument(
        "--factors",
        nargs="*",
        type=float,
        default=[0.0, 0.5],
        help="scale factors per perturbed primitive (0 = free)",
    )
    explain.add_argument(
        "--skip-whatif",
        action="store_true",
        help="sim: print the critical-path report without perturbed re-runs",
    )
    explain.add_argument(
        "--gantt",
        action="store_true",
        help="sim only: print the ASCII schedule chart with the critical path marked",
    )
    explain.add_argument(
        "--trace",
        choices=("off", "sampled", "full"),
        default="off",
        help="real backends only: record wall-clock spans per OS worker and "
        "merge them into the --trace-out file (one process row per worker)",
    )
    explain.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write a Perfetto trace here (critical-path overlay on sim, "
        "live spans on real backends) and the raw events as PATH.jsonl",
    )
    explain.add_argument(
        "--ledger-dir",
        default=None,
        help="also write a ledger record (on sim with the critpath "
        "composition and what-if points)",
    )
    explain.set_defaults(func=_cmd_explain)

    report = sub.add_parser("report", help="regenerate the headline exhibits as markdown")
    report.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    report.add_argument("--processors", type=int, nargs="*", default=None)
    report.set_defaults(func=_cmd_report)

    top = sub.add_parser(
        "top", help="live terminal dashboard over one running real-backend search"
    )
    top.add_argument("--backend", choices=("threaded", "multiproc"), default="multiproc")
    top.add_argument("--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R3")
    top.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    top.add_argument("-P", "--processors", dest="processors_single", type=int, default=4)
    top.add_argument(
        "--tt",
        choices=CACHE_MODES,
        default="off",
        help="transposition-table mode for the watched search",
    )
    top.add_argument(
        "--eval-cache",
        choices=CACHE_MODES,
        default="off",
        help="eval-cache mode for the watched search",
    )
    top.add_argument(
        "--trace",
        choices=("off", "sampled", "full"),
        default="sampled",
        help="span tracing mode of the watched search (default: sampled)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.2,
        help="seconds between dashboard refreshes (default: 0.2)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of redrawing in place (no ANSI escapes)",
    )
    top.add_argument(
        "--prom-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve the live registry as Prometheus text on this port "
        "(0 picks a free one) for the run's duration",
    )
    top.set_defaults(func=_cmd_top)

    demo = sub.add_parser("demo", help="30-second tour")
    demo.set_defaults(func=_cmd_demo)

    def add_service_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0, help="0 picks a free port")
        p.add_argument("--workers", type=int, default=2, help="pool worker processes")
        p.add_argument(
            "--max-concurrency", type=int, default=2, help="requests deepening at once"
        )
        p.add_argument(
            "--queue-limit", type=int, default=32, help="waiting requests before shedding"
        )
        p.add_argument("--tt", choices=CACHE_MODES, default="shared")
        p.add_argument("--eval-cache", choices=CACHE_MODES, default="off")
        p.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
        p.add_argument("--trace", choices=("off", "sampled", "full"), default="off")
        p.add_argument(
            "--metrics-port",
            type=int,
            default=None,
            metavar="PORT",
            help="serve Prometheus text metrics on this port (0 picks a free one)",
        )
        p.add_argument(
            "--no-slo",
            action="store_true",
            help="disable the per-priority SLO gauges (histograms stay on)",
        )
        p.add_argument(
            "--slo-objective",
            type=float,
            default=0.99,
            help="fraction of requests expected under their latency target",
        )
        p.add_argument(
            "--stall-overrun",
            type=float,
            default=0.0,
            metavar="FACTOR",
            help="flight-record a request once elapsed exceeds "
            "deadline * FACTOR (0 disables; needs --flight-dir)",
        )
        p.add_argument(
            "--flight-dir",
            default=None,
            metavar="DIR",
            help="directory receiving stall flight records",
        )

    serve = sub.add_parser(
        "serve",
        help="run the async search service over one persistent engine pool",
    )
    add_service_args(serve)
    serve.set_defaults(func=_cmd_serve)

    profile_service = sub.add_parser(
        "profile-service",
        help="replay a traffic trace (in-process, or against a server with "
        "--connect) and print the p50/p95/p99 latency decomposition per stage",
    )
    add_service_args(profile_service)
    profile_service.add_argument("--requests", type=int, default=40)
    profile_service.add_argument(
        "--workloads", nargs="+", default=["R3"], metavar="NAME"
    )
    profile_service.add_argument("--depth", type=int, default=2)
    profile_service.add_argument("--seed", type=int, default=0)
    profile_service.add_argument(
        "--repeat",
        type=float,
        default=0.5,
        help="fraction of requests re-asking an already-issued position",
    )
    profile_service.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the per-request Perfetto tracks here",
    )
    profile_service.add_argument(
        "--ledger-dir",
        default=None,
        help="also write a ledger record with the latency block",
    )
    profile_service.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive an already-running server instead of an in-process one",
    )
    profile_service.add_argument(
        "--shutdown",
        action="store_true",
        help="with --connect: send the shutdown op after the run",
    )
    profile_service.set_defaults(func=_cmd_profile_service)

    verify = sub.add_parser(
        "verify", help="lint concurrency invariants and race-check all backends"
    )
    verify.add_argument(
        "--fast",
        action="store_true",
        help="skip the multiproc capture (spawns worker processes)",
    )
    verify.add_argument(
        "--obs",
        action="store_true",
        help="also self-check the telemetry pipeline (snapshot/trace/ledger)",
    )
    verify.add_argument(
        "--sarif-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the flow findings as a SARIF 2.1.0 report",
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
