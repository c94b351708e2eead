"""Command-line entry points: regenerate any paper exhibit from a shell.

Examples::

    repro-gametree figure 11                 # ER efficiency, random trees
    repro-gametree figure 12 --scale paper   # Othello node counts, full size
    repro-gametree serial --tree O1          # serial AB vs serial ER
    repro-gametree baselines                 # Section 4 algorithm claims
    repro-gametree losses --tree R1 -P 8     # Section 3.1 decomposition
    repro-gametree explain --workload R3 --P 4   # critical path + what-if
    repro-gametree top --backend multiproc -P 4  # live dashboard of a real run
    repro-gametree trace --backend multiproc --trace full  # Perfetto + spans
    repro-gametree demo                      # 30-second tour
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
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
from .analysis.losses import loss_report
from .cache import CACHE_MODES, make_eval_cache, make_tt
from .core.er_parallel import parallel_er
from .costmodel import DEFAULT_COST_MODEL
from .games.base import SearchProblem
from .games.random_tree import IncrementalGameTree, RandomGameTree, SyntheticOrderedTree
from .parallel import mwf, parallel_aspiration, pv_splitting, tree_splitting
from .search.alphabeta import alphabeta
from .search.stats import SearchStats
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


def _cmd_losses(args: argparse.Namespace) -> int:
    spec = table3_suite(args.scale)[args.tree]
    problem = spec.problem()
    reference = SearchStats.with_trace()
    alphabeta(problem, stats=reference)
    base = serial_baselines(spec)
    result = parallel_er(
        problem, args.processors_single, config=er_config_for(spec), trace=True
    )
    report = loss_report(result, base.best_time, reference)
    print(f"{spec.name} with {report.n_processors} processors:")
    print(f"  efficiency            {report.efficiency:.3f}")
    print(f"  starvation fraction   {report.starvation_fraction:.3f}")
    print(f"  interference fraction {report.interference_fraction:.3f}")
    print(f"  speculative fraction  {report.speculative_fraction:.3f}")
    print(
        f"  nodes: parallel={report.work.parallel_total} "
        f"reference={report.work.reference_total} "
        f"expansion-ratio={report.work.expansion_ratio:.2f}"
    )
    return 0


def _config_json(config: object) -> dict[str, object]:
    """Flatten a config/cost-model dataclass to JSON-safe values."""
    import dataclasses

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
) -> "tuple[EventBus, Snapshot, SimReport | None, LiveTrace | None]":
    """Run one tree on one backend under a telemetry bus.

    Returns ``(bus, snapshot, sim_report_or_None, live_or_None)`` — the
    report carries the per-processor timelines the Perfetto exporter
    renders as tracks (only the simulated backend has exact timelines);
    ``live`` is the merged wall-clock span timeline when the real
    backend ran with ``trace`` enabled.  Each call builds a fresh eval
    cache, so the telemetry run is self-contained.
    """
    from .obs import observing
    from .obs import snapshot as obs_snapshot

    problem = spec.problem()
    config = er_config_for(spec)
    with observing() as bus:
        if backend == "sim":
            result = parallel_er(
                problem, count, config=config, tt=make_tt(tt_mode),
                eval_cache=make_eval_cache(eval_mode), batch_eval=batch,
            )
            snap = obs_snapshot.snapshot_from_sim(result, workload=spec.name, bus=bus)
            return bus, snap, result.report, None
        if backend == "threaded":
            from .parallel.threaded import threaded_er_observed

            run = threaded_er_observed(
                problem, count, config=config, tt=make_tt(tt_mode),
                eval_cache=make_eval_cache(eval_mode), batch_eval=batch, trace=trace,
            )
            snap = obs_snapshot.snapshot_from_threaded(run, workload=spec.name, bus=bus)
            return bus, snap, None, run.trace
        from .parallel.multiproc import multiproc_er

        mp_result = multiproc_er(
            problem, count, config=config, tt_mode=tt_mode,
            eval_cache_mode=eval_mode, batch_eval=batch, trace=trace,
        )
        snap = obs_snapshot.snapshot_from_multiproc(mp_result, workload=spec.name, bus=bus)
        return bus, snap, None, mp_result.trace


def _write_ledger_record(
    spec: TreeSpec,
    snap: "Snapshot",
    directory: str,
    scale: str,
    tt_mode: str = "off",
    eval_mode: str = "off",
    batch: bool = False,
    live: "LiveTrace | None" = None,
) -> Path:
    from .obs import ledger

    trace_summary = None
    if live is not None:
        trace_summary = ledger.trace_block(
            live.mode,
            len(live.spans),
            live.total_dropped,
            live.overhead_fraction(snap.makespan),
        )
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
        trace=trace_summary,
    )
    problems = ledger.validate_record(record)
    if problems:
        raise SystemExit("ledger record invalid: " + "; ".join(problems))
    return ledger.write_record(record, directory)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Emit a Perfetto-loadable Chrome trace (and optional ledger record)."""
    from .obs import export

    spec = table3_suite(args.scale)[args.tree]
    count = args.processors_single
    if args.trace != "off" and args.backend == "sim":
        print("trace: --trace applies to the real backends only", file=sys.stderr)
        return 2
    bus, snap, report, live = _observed_run(
        spec, args.backend, count, trace=args.trace
    )
    problems = snap.check_accounting()
    if problems:
        for problem in problems:
            print(f"accounting violation: {problem}", file=sys.stderr)
        return 1
    out = args.output or (
        f"results/traces/{args.tree}_{args.backend}_P{count}.trace.json"
    )
    path = export.write_chrome_trace(
        out,
        bus.events,
        report=report,
        time_unit=snap.time_unit,
        metadata={
            "workload": spec.name,
            "backend": args.backend,
            "n_processors": count,
            "scale": args.scale,
            "seed": spec.seed,
            "trace_mode": args.trace,
        },
        live=live,
    )
    print(f"{spec.name} {args.backend} P={count}: {len(bus.events)} events")
    if live is not None:
        print(
            f"live spans: {len(live.spans)} across {len(live.workers())} rows, "
            f"{live.total_dropped} dropped, "
            f"overhead {live.overhead_fraction(snap.makespan):.2%} of wall time"
        )
    print(f"trace: {path}  (open at https://ui.perfetto.dev or chrome://tracing)")
    if args.jsonl:
        jsonl_path = export.write_jsonl(Path(path).with_suffix(".jsonl"), bus.events)
        print(f"jsonl: {jsonl_path}")
    if args.ledger_dir:
        record_path = _write_ledger_record(
            spec, snap, args.ledger_dir, args.scale, live=live
        )
        print(f"ledger: {record_path}")
    return 0


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
    """Critical-path blame report plus causal what-if profile for one run.

    The run happens once under a :class:`~repro.obs.critpath.ScheduleRecorder`
    (and the telemetry bus, for the optional trace/ledger outputs); the
    extracted path's length must equal the makespan exactly or the
    command fails.  The what-if sweep then re-runs the same fixed-seed
    workload under perturbed cost models and prints predicted-vs-actual
    speedups per (primitive, factor) point.
    """
    from .costmodel import CostModel
    from .obs import critpath, export, whatif
    from .obs import events as obs_events
    from .obs import snapshot as obs_snapshot

    spec = table3_suite(args.scale)[args.tree]
    config = er_config_for(spec)
    count = args.processors_single
    with obs_events.observing() as bus, critpath.recording() as rec:
        result = parallel_er(
            spec.problem(), count, config=config, record_timeline=True,
            eval_cache=make_eval_cache(args.eval_cache), batch_eval=args.batch_eval,
        )
    cp = critpath.extract(rec, result.sim_time)
    title = f"{spec.name} sim P={count} ({args.scale} scale)"
    print(critpath.render_report(cp, title=title, top=args.top), end="")
    if cp.length != result.sim_time:
        print(
            f"explain: path length {cp.length!r} != makespan {result.sim_time!r}",
            file=sys.stderr,
        )
        return 1

    points: list[whatif.WhatIfPoint] = []
    if not args.skip_whatif:

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
            result.sim_time,
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
            report=result.report,
            critpath=cp,
            metadata={
                "workload": spec.name,
                "backend": "sim",
                "n_processors": count,
                "scale": args.scale,
                "seed": spec.seed,
            },
        )
        print(f"trace: {path}  (critical-path overlay under pid 1)")

    if args.ledger_dir:
        from .obs import ledger

        snap = obs_snapshot.snapshot_from_sim(
            result, workload=spec.name, bus=bus, critpath=cp.composition()
        )
        record = ledger.make_record(
            snap,
            workload=spec.name,
            scale=args.scale,
            seed=spec.seed,
            config={
                "serial_depth": spec.serial_depth,
                "sort_below_root": spec.sort_below_root,
                "tt": "off",
                "eval_cache": args.eval_cache,
                "batch_eval": args.batch_eval,
            },
            cost_model=_config_json(DEFAULT_COST_MODEL),
            whatif=whatif.to_records(points) if points else None,
        )
        problems = ledger.validate_record(record)
        if problems:
            raise SystemExit("ledger record invalid: " + "; ".join(problems))
        record_path = ledger.write_record(
            record, args.ledger_dir, name=ledger.record_name(record) + "_explain"
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
            _, snap, _, live = _observed_run(
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


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .analysis.gantt import render_gantt
    from .obs import critpath

    spec = table3_suite(args.scale)[args.tree]
    with contextlib.ExitStack() as stack:
        recorder = stack.enter_context(critpath.recording()) if args.critpath else None
        result = parallel_er(
            spec.problem(),
            args.processors_single,
            config=er_config_for(spec),
            record_timeline=True,
        )
    cp = critpath.extract(recorder, result.sim_time) if recorder is not None else None
    print(
        f"{spec.name} on {args.processors_single} processors "
        f"(makespan {result.sim_time:.0f} simulated units):"
    )
    print(render_gantt(result.report, width=args.width, critpath=cp))
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


def _cmd_bench_traffic(args: argparse.Namespace) -> int:
    """Measure serving throughput: warm shared caches vs a cold start.

    In-process by default: one service, the same deterministic trace
    served twice — the first pass hits cold tables, the second runs
    entirely warm — so the delta isolates what the persistent shared
    TT/eval-cache buys.  ``--connect`` instead drives one pass against
    an already-running ``repro-gametree serve`` over TCP.
    """
    import asyncio

    from .serve import SearchService, TrafficSpec, generate_trace, suite_catalog
    from .serve.traffic import (
        render_decomposition,
        run_trace,
        run_trace_client,
        service_snapshot,
    )

    spec = TrafficSpec(
        workloads=tuple(args.workloads),
        n_requests=args.requests,
        seed=args.seed,
        max_depth=args.depth,
        repeat_fraction=args.repeat,
    )
    catalog = suite_catalog(args.scale)
    trace = generate_trace(spec, catalog)

    if args.connect is not None:
        from .serve.client import ServiceClient

        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 2

        async def run_remote() -> int:
            async with ServiceClient(host, int(port_text)) as client:
                report = await run_trace_client(client, trace)
                print(report.render(f"remote traffic ({args.connect})"))
                print()
                print(
                    render_decomposition(report.replies, "latency decomposition")
                )
                if args.shutdown:
                    await client.shutdown_server()
                    print("sent shutdown; server is draining")
            return 0

        return asyncio.run(run_remote())

    config = _serve_config(args)

    async def run_local() -> int:
        async with SearchService(config, catalog=catalog) as service:
            cold = await run_trace(service, trace)
            warm = await run_trace(service, trace)
            print(cold.render("cold start (empty shared caches)"))
            print()
            print(warm.render("warm (same trace, caches populated)"))
            ratio = warm.rps / cold.rps if cold.rps > 0 else float("inf")
            print(f"\nwarm/cold throughput ratio: {ratio:.2f}x")
            print()
            print(render_decomposition(warm.replies, "warm latency decomposition"))
            snap = service_snapshot(service, warm, workload=f"traffic-{args.seed}")
            problems = snap.check_accounting()
            for problem in problems:
                print(f"accounting problem: {problem}", file=sys.stderr)
            return 1 if problems else 0

    return asyncio.run(run_local())


def _cmd_profile_service(args: argparse.Namespace) -> int:
    """Where do the service's milliseconds go, stage by stage?

    Replays one deterministic traffic trace through an in-process
    service with request tracing on, prints the traffic summary plus the
    p50/p95/p99 stage-decomposition table, optionally exports the
    per-request Perfetto tracks, and (with ``--ledger-dir``) records the
    run — ``service`` *and* ``latency`` blocks — so ``repro-gametree
    compare`` can flag a single stage regressing even when the
    end-to-end tail holds.
    """
    import asyncio

    from dataclasses import replace as _dc_replace

    from .obs import export, ledger
    from .serve import SearchService, TrafficSpec, generate_trace, suite_catalog
    from .serve.traffic import (
        latency_fields,
        render_decomposition,
        run_trace,
        service_snapshot,
    )

    spec = TrafficSpec(
        workloads=tuple(args.workloads),
        n_requests=args.requests,
        seed=args.seed,
        max_depth=args.depth,
        repeat_fraction=args.repeat,
    )
    catalog = suite_catalog(args.scale)
    trace = generate_trace(spec, catalog)
    config = _serve_config(args)
    if config.trace_mode == "off":
        # Worker spans are the point of the profile; default them on.
        config = _dc_replace(config, trace_mode="full")

    async def run() -> int:
        async with SearchService(config, catalog=catalog) as service:
            report = await run_trace(service, trace)
            print(report.render(f"profile-service (seed {args.seed})"))
            print()
            print(render_decomposition(report.replies, "latency decomposition"))
            exit_code = 0
            snap = service_snapshot(service, report, workload=f"traffic-{args.seed}")
            for problem in snap.check_accounting():
                print(f"accounting problem: {problem}", file=sys.stderr)
                exit_code = 1
            stored = service.traces.traces()
            conservation = [
                problem
                for stored_trace in stored
                for problem in stored_trace.timing.conservation_problems()
            ]
            for problem in conservation:
                print(f"conservation problem: {problem}", file=sys.stderr)
                exit_code = 1
            if args.trace_out is not None:
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
                    service=ledger.service_block(**report.service_fields()),  # type: ignore[arg-type]
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

    loss = sub.add_parser("losses", help="Section 3.1 loss decomposition")
    loss.add_argument("--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R1")
    loss.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    loss.add_argument("-P", "--processors", dest="processors_single", type=int, default=8)
    loss.set_defaults(func=_cmd_losses)

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

    trace = sub.add_parser(
        "trace", help="emit a Perfetto-loadable Chrome trace for one run"
    )
    trace.add_argument(
        "--backend", choices=("sim", "threaded", "multiproc"), default="sim"
    )
    trace.add_argument(
        "--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R3"
    )
    trace.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    trace.add_argument("-P", "--processors", dest="processors_single", type=int, default=4)
    trace.add_argument(
        "-o", "--output", default=None, help="trace path (default: results/traces/...)"
    )
    trace.add_argument(
        "--trace",
        choices=("off", "sampled", "full"),
        default="off",
        help="real backends only: record wall-clock spans per OS worker and "
        "merge them into the Perfetto output (one process row per worker)",
    )
    trace.add_argument(
        "--jsonl", action="store_true", help="also write the raw event stream as JSONL"
    )
    trace.add_argument(
        "--ledger-dir",
        default=None,
        help="also write a ledger record into this directory",
    )
    trace.set_defaults(func=_cmd_trace)

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
        help="critical-path blame report + causal what-if profile for one sim run",
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
        help="print only the critical-path report (no perturbed re-runs)",
    )
    explain.add_argument(
        "--trace-out",
        default=None,
        help="also write a Chrome trace with the critical-path overlay here",
    )
    explain.add_argument(
        "--ledger-dir",
        default=None,
        help="also write a ledger record (critpath composition + what-if points)",
    )
    explain.set_defaults(func=_cmd_explain)

    report = sub.add_parser("report", help="regenerate the headline exhibits as markdown")
    report.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    report.add_argument("--processors", type=int, nargs="*", default=None)
    report.set_defaults(func=_cmd_report)

    gantt = sub.add_parser("gantt", help="ASCII schedule chart of one parallel run")
    gantt.add_argument("--tree", choices=("R1", "R2", "R3", "O1", "O2", "O3"), default="R3")
    gantt.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    gantt.add_argument("-P", "--processors", dest="processors_single", type=int, default=8)
    gantt.add_argument("--width", type=int, default=72)
    gantt.add_argument(
        "--critpath",
        action="store_true",
        help="overlay the extracted critical path as ^ marker rows",
    )
    gantt.set_defaults(func=_cmd_gantt)

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

    bench_traffic = sub.add_parser(
        "bench-traffic",
        help="throughput/latency of the service under synthetic traffic "
        "(warm shared caches vs cold start)",
    )
    add_service_args(bench_traffic)
    bench_traffic.add_argument("--requests", type=int, default=40)
    bench_traffic.add_argument(
        "--workloads", nargs="+", default=["R3"], metavar="NAME"
    )
    bench_traffic.add_argument("--depth", type=int, default=2)
    bench_traffic.add_argument("--seed", type=int, default=0)
    bench_traffic.add_argument(
        "--repeat",
        type=float,
        default=0.5,
        help="fraction of requests re-asking an already-issued position",
    )
    bench_traffic.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive an already-running server instead of an in-process one",
    )
    bench_traffic.add_argument(
        "--shutdown",
        action="store_true",
        help="with --connect: send the shutdown op after the run",
    )
    bench_traffic.set_defaults(func=_cmd_bench_traffic)

    profile_service = sub.add_parser(
        "profile-service",
        help="replay a traffic trace with request tracing on and print the "
        "p50/p95/p99 latency decomposition per stage",
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
        help="also write a ledger record (service + latency blocks)",
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
