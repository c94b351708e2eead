"""Benchmark of multiprocess ER search and the search service.

Run from the repository root::

    python3 perfbench/run.py --workload search-R3 --seed 1 --seconds 20 --trace 0

Workloads:

* ``search-R3`` and ``search-O3`` time back-to-back
  :func:`repro.multiproc_er` calls on a persistent two-worker
  :class:`repro.serve.EnginePool`;
* ``serve-hot`` drives a :class:`repro.serve.SearchService` process
  over TCP with requests that ask only positions primed during set-up:
  one closed-loop caller for latency, eight for capacity.  A traced run
  adds seeded open-loop Poisson arrivals for the per-layer split, which
  also ask a few unprimed positions so that table writes and worker
  searches are measured.

Every request a closed loop sends is due when it is sent.  On a small
virtual machine an open-loop generator leaves both processes idle
between requests, and the wake-ups that follow made open-loop latency
drift several-fold from run to run; closed-loop callers keep the
measured path busy, which holds runs to within the bounds.

The program runs in its own process (``host.py``); this process makes
the inputs from ``--seed``, computes every answer's oracle before
timing, drives the load, checks each answer, audits teardown, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
the metrics — the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  A traced run also writes its spans to
``perfbench/traces/``.  A percentile backed by fewer than ten samples
beyond it, a leaked process or shared-memory segment, or a missing
program stops the run with a non-zero exit and no result line.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import EngineConfig, GameEngine, alphabeta  # noqa: E402
from repro.games.base import follow_path  # noqa: E402
from repro.serve import suite_catalog  # noqa: E402
from repro.workloads.suite import table3_suite  # noqa: E402

import loadgen  # noqa: E402
import procs  # noqa: E402

#: Longest a program process may take before the run is declared hung.
HOST_TIMEOUT_S = 170.0
#: Set-ups in an untraced run; ``setup_s`` is their median.  They are
#: spread over the run, so that they sample all of it, not one stretch
#: of a machine whose speed drifts.
SETUPS = 7
TRACE_DIR = HERE / "traces"


class BenchError(RuntimeError):
    """A run that cannot report honest numbers; exits non-zero, prints no result."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

#: Samples a reported percentile needs strictly above its rank.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float, what: str) -> float:
    """Nearest-rank ``q``-quantile; refuses when fewer than ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise BenchError(
            f"{what}: p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-quantile has ten samples beyond it."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# metric catalogue
# ---------------------------------------------------------------------------

END_TO_END = {
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rps_capacity": "1/s",
}

PER_LAYER = {
    "multiproc.tasks": "count/op",
    "multiproc.useful_ratio": "ratio",
    "multiproc.coord_busy_ms": "ms/op",
    "multiproc.worker_busy_ms": "ms/op",
    "multiproc.starvation_ms": "ms/op",
    "multiproc.interference_ms": "ms/op",
    "multiproc.payload_bytes": "B/task",
    "multiproc.roundtrip_us": "us/task",
    "heap.ops": "count/op",
    "heap.op_ns": "ns",
    "serial_er.search_ms": "ms",
    "serial_er.nodes": "count",
    "serial_er.nodes_per_s": "1/s",
    "games.children_us": "us",
    "games.evaluate_us": "us",
    "tt.probes": "count/op",
    "tt.stores": "count/op",
    "tt.hit_ratio": "ratio",
    "tt.probe_us": "us",
    "pool.short_circuit_ratio": "ratio",
    "pool.iterations_ms": "ms/op",
    "pool.tasks_per_request": "count/op",
    "scheduler.admission_ms": "ms/op",
    "scheduler.queue_wait_ms": "ms/op",
    "scheduler.queue_depth_max": "count",
    "wire.reply_serialize_ms": "ms/op",
    "wire.client_ms": "ms/op",
    "serve.unattributed_ms": "ms/op",
    "gen.late_ms": "ms",
    "trace.overhead": "ratio",
}


@dataclass
class Outcome:
    """What one run reports."""

    attempted: int
    failed: int
    wrong: int
    metrics: dict[str, float]

    def emit(self, names: dict[str, str]) -> None:
        missing = set(names) - set(self.metrics)
        if missing:
            raise BenchError(f"metrics not measured: {sorted(missing)}")
        print(json.dumps({
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit} for name, unit in names.items()
            },
        }))


def zero_layers(prefixes: Sequence[str]) -> dict[str, float]:
    """Layers a workload never calls read zero: nothing was measured there."""
    return {name: 0.0 for name in PER_LAYER if name.startswith(tuple(prefixes))}


# ---------------------------------------------------------------------------
# the program process
# ---------------------------------------------------------------------------


class Program:
    """The program under test, running ``host.py`` in its own process.

    A watchdog kills it (and its workers) if it outlives
    :data:`HOST_TIMEOUT_S`.  Leaving the ``with`` block on an error
    closes its stdin, which tells a serving program to drain and stop,
    and waits for it to end.
    """

    def __init__(self, mode: str, cfg: dict[str, Any]) -> None:
        self.shm_before = procs.shm_names()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), mode, json.dumps(cfg)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=HERE.parent,
        )
        self._watchdog = threading.Timer(HOST_TIMEOUT_S, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def __enter__(self) -> "Program":
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    # Closes stdin and reads whatever the program still
                    # prints, so it never blocks on a full pipe.
                    self.proc.communicate(timeout=60)
                except subprocess.TimeoutExpired:
                    self._kill()
            self.proc.wait()
        finally:
            self._watchdog.cancel()

    def _kill(self) -> None:
        for pid in procs.children_of(self.proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.kill()

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def read(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"program process exited with code {self.proc.wait()}")
        return json.loads(line)

    def finish(self, result: dict[str, Any]) -> None:
        """Wait for the program to exit, then audit its teardown from outside."""
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"program process exited with code {code}")
        if result["stray_children"]:
            raise BenchError(f"workers alive after close: {result['stray_children']}")
        leaked = procs.audit_teardown(result["pids"] + [self.proc.pid], self.shm_before)
        if leaked:
            raise BenchError(f"teardown leaked: {', '.join(leaked)}")


def write_trace(workload: str, seed: int, payload: dict[str, Any]) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# search workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchWorkload:
    scale: str
    tree: str
    serial_depth: int


SEARCH = {
    "search-R3": SearchWorkload(scale="paper", tree="R3", serial_depth=2),
    "search-O3": SearchWorkload(scale="reduced", tree="O3", serial_depth=3),
}


def run_search(name: str, args: argparse.Namespace) -> Outcome:
    spec = SEARCH[name]
    oracle = alphabeta(table3_suite(spec.scale)[spec.tree].problem()).value
    with Program("search", {
        "scale": spec.scale, "tree": spec.tree, "serial_depth": spec.serial_depth,
        "seconds": args.seconds, "min_samples": min_samples(0.5), "setups": SETUPS,
        "trace": args.trace, "seed": args.seed,
    }) as program:
        result = program.read()
        program.finish(result)

    samples = result["samples"]
    wrong = sum(1 for s in samples if s["value"] != oracle)
    mp = [s for s in samples if s["kind"] == "mp"]
    walls = [s["wall_ms"] for s in mp]
    outcome = Outcome(attempted=len(samples), failed=wrong, wrong=wrong, metrics={})
    if not args.trace:
        outcome.metrics = {
            "p50_ms": percentile(walls, 0.5, f"{name} search time"),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "rps_capacity": len(walls) / (sum(walls) / 1e3),
        }
        return outcome

    traced = [s for s in samples if s["kind"] == "mp_traced"]
    serial = [s for s in samples if s["kind"] == "serial"]
    counted = traced + [s for s in samples if s["kind"] == "serial_traced"]
    total_tasks = sum(s["tasks"] for s in mp)
    dispatch = [s["dispatch"] for s in traced]
    results = sum(d["results"] for d in dispatch)
    heap_calls = sum(s["heap.push"][0] + s["heap.pop"][0] for s in traced)
    heap_ms = sum(s["heap.push"][1] + s["heap.pop"][1] for s in traced)
    games = {
        key: (sum(s[key][0] for s in counted), sum(s[key][1] for s in counted))
        for key in ("games.children", "games.evaluate")
    }
    serial_ms = mean([s["wall_ms"] for s in serial])
    nodes = mean([s["nodes"] for s in serial])
    outcome.metrics = {
        "multiproc.tasks": mean([s["tasks"] for s in mp]),
        "multiproc.useful_ratio": ratio(sum(s["applied"] for s in mp), total_tasks),
        "multiproc.coord_busy_ms": mean([s["cpu_ms"] for s in mp]),
        "multiproc.worker_busy_ms": mean([s["busy_ms"] for s in mp]),
        "multiproc.starvation_ms": mean([s["starvation_ms"] for s in mp]),
        "multiproc.interference_ms": mean([s["interference_ms"] for s in mp]),
        "multiproc.payload_bytes": ratio(sum(d["task_bytes"] for d in dispatch),
                                         sum(d["tasks"] for d in dispatch))
        + ratio(sum(d["result_bytes"] for d in dispatch), results),
        "multiproc.roundtrip_us": ratio(
            sum(d["roundtrip_s"] - d["worker_s"] for d in dispatch),
            results,
        ) * 1e6,
        "heap.ops": heap_calls / len(traced),
        "heap.op_ns": ratio(heap_ms, heap_calls) * 1e6,
        "serial_er.search_ms": serial_ms,
        "serial_er.nodes": nodes,
        "serial_er.nodes_per_s": nodes / (serial_ms / 1e3),
        "games.children_us": ratio(games["games.children"][1], games["games.children"][0]) * 1e3,
        "games.evaluate_us": ratio(games["games.evaluate"][1], games["games.evaluate"][0]) * 1e3,
        "gen.late_ms": 0.0,
        "trace.overhead": percentile([s["wall_ms"] for s in traced], 0.5, f"{name} traced time")
        / percentile(walls, 0.5, f"{name} search time"),
        **zero_layers(("tt.", "pool.", "scheduler.", "wire.", "serve.")),
    }
    write_trace(name, args.seed, {"workload": name, "program": result["trace"]})
    return outcome


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


#: Games whose positions serve-hot asks.
HOT_GAMES = ("O1", "O2", "O3")
#: Positions per game primed during set-up; every timed request asks one.
PRIMED_PER_GAME = 4
#: Unprimed positions per game that the traced run's Poisson phase also
#: asks, so that table stores and worker searches are measured too.
FRESH_PER_GAME = 2
#: Moves from a game's root to each asked position.
PATH_LEN = 2
#: Legal moves each asked position has.
MOVES = (10, 12)
MAX_DEPTH = 3
#: Closed-loop callers the capacity phase keeps in flight.  With eight,
#: serve-hot sustained 430-545 requests/s (median about 470 over thirty
#: runs) at a p90 of about 20 ms on a two-vCPU virtual machine.
CAPACITY_CALLERS = 8
#: p90 the capacity phase must stay under: about twice the p90 measured
#: above, so a run fails only if the request path has slowed down badly.
LIMIT_MS = 40.0
#: Offered rate of the traced run's open-loop Poisson phase: about half
#: the capacity measured above.
RATE = 240.0
#: Share of an untraced run spent timing one caller; the rest measures
#: capacity.
LATENCY_SHARE = 0.35

WORKLOADS = sorted([*SEARCH, "serve-hot"])

#: Client connections: one process, at most one per CPU.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Requests in flight above which an open-loop backlog counts as growing;
#: below the service's default queue limit, so the queue never overflows.
MAX_OUTSTANDING = 30
#: Longest any one request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Checked:
    """Samples of one phase, checked against the oracle."""

    samples: list[loadgen.Sample]
    elapsed_s: float
    failed: int
    wrong: int

    def latencies(self) -> list[float]:
        return [s.latency_ms for s in self.samples]

    def throughput(self) -> float:
        """Correct replies per second over the phase."""
        return (len(self.samples) - self.failed) / self.elapsed_s


def merged(phases: Sequence[Checked]) -> Checked:
    return Checked(
        [s for p in phases for s in p.samples],
        sum(p.elapsed_s for p in phases),
        sum(p.failed for p in phases),
        sum(p.wrong for p in phases),
    )


def check(samples: list[loadgen.Sample], elapsed_s: float, oracle: dict[Any, Any]) -> Checked:
    failed = wrong = 0
    for sample in samples:
        reply = sample.reply
        if reply is None or reply.status != "ok":
            failed += 1
            continue
        truth = oracle[(sample.request.workload, sample.request.path)]
        if (
            reply.depth_reached != sample.request.max_depth
            or reply.move_index != truth.move_index
            or reply.value != truth.value
        ):
            failed += 1
            wrong += 1
    return Checked(samples, elapsed_s, failed, wrong)


@contextlib.asynccontextmanager
async def connected(ready: dict[str, Any]) -> AsyncIterator[list[loadgen.Connection]]:
    """Client connections to the service a ``ready`` line announced."""
    connections = [
        await loadgen.Connection.open(ready["host"], ready["port"]) for _ in range(CONNECTIONS)
    ]
    try:
        yield connections
    finally:
        for connection in connections:
            await connection.close()


class ServeRun:
    """One serve run: the program process, its connections, and the checked phases."""

    def __init__(self, name: str, args: argparse.Namespace) -> None:
        self.name = name
        self.args = args
        catalog = suite_catalog("reduced")
        games = {g: catalog[g].make_game() for g in HOT_GAMES}
        walked = loadgen.walk_positions(
            args.seed, games, PRIMED_PER_GAME + FRESH_PER_GAME, PATH_LEN, MOVES
        )
        self.primed, self.fresh = loadgen.split_fresh(args.seed, walked, FRESH_PER_GAME)
        self.oracle = {}
        for workload, path in self.primed + (self.fresh if args.trace else []):
            engine = GameEngine(games[workload], EngineConfig(
                algorithm="alphabeta",
                max_depth=MAX_DEPTH,
                sort_below_root=catalog[workload].sort_below_root,
            ))
            self.oracle[(workload, path)] = engine.choose(follow_path(games[workload], list(path)))
        self.phases: list[Checked] = []

    def _keep(self, samples: list[loadgen.Sample], elapsed_s: float) -> Checked:
        checked = check(samples, elapsed_s, self.oracle)
        self.phases.append(checked)
        return checked

    async def open_loop(
        self, connections: Sequence[loadgen.Connection], label: str, seconds: float
    ) -> Checked:
        """Poisson arrivals over the primed and the fresh positions."""
        arrivals = loadgen.poisson_arrivals(
            self.args.seed, label, self.primed + self.fresh, RATE, seconds, MAX_DEPTH
        )
        start = time.perf_counter()
        samples = await loadgen.drive(
            connections, arrivals, max_outstanding=MAX_OUTSTANDING, timeout_s=REQUEST_TIMEOUT_S
        )
        return self._keep(samples, time.perf_counter() - start)

    async def closed_loop(
        self, connections: Sequence[loadgen.Connection], label: str, callers: int, seconds: float
    ) -> Checked:
        requests = loadgen.request_stream(self.args.seed, label, self.primed, MAX_DEPTH)
        samples, elapsed = await loadgen.closed_loop(
            connections, requests, callers, seconds, timeout_s=REQUEST_TIMEOUT_S
        )
        return self._keep(samples, elapsed)

    def capacity(self, checked: Checked) -> float:
        """Sustained request rate of a fixed number of callers whose p90 meets the limit.

        Callers in flight are fixed, so the backlog cannot grow.
        """
        p90 = percentile(checked.latencies(), 0.9, f"{self.name} capacity p90")
        if p90 > LIMIT_MS:
            raise BenchError(
                f"{self.name}: capacity p90 {p90:.1f} ms is over the {LIMIT_MS} ms limit"
            )
        return checked.throughput()

    async def drive_load(self, program: Program) -> dict[str, Any]:
        """Run the phases; an untraced run sets up a new service for each block.

        Each block times one caller, then the capacity callers, so both
        figures, like the set-up times, sample the whole run.
        """
        seconds = self.args.seconds
        measured: dict[str, Any] = {}
        if self.args.trace:
            async with connected(program.read()) as connections:
                measured["untraced"] = await self.closed_loop(
                    connections, "untraced", 1, seconds / 4
                )
                program.send("trace on")
                program.read()
                measured["traced"] = await self.closed_loop(connections, "traced", 1, seconds / 4)
                measured["poisson"] = await self.open_loop(connections, "poisson", seconds / 2)
            return measured
        latency, capacity = [], []
        for block in range(SETUPS):
            if block:
                program.send("restart")
            async with connected(program.read()) as connections:
                latency.append(await self.closed_loop(
                    connections, f"latency{block}", 1, seconds * LATENCY_SHARE / SETUPS
                ))
                capacity.append(await self.closed_loop(
                    connections, f"capacity{block}", CAPACITY_CALLERS,
                    seconds * (1 - LATENCY_SHARE) / SETUPS,
                ))
        measured["latency"] = merged(latency)
        measured["capacity"] = self.capacity(merged(capacity))
        return measured

    def run(self) -> Outcome:
        prime = [[w, list(p)] for w, p in self.primed]
        with Program("serve", {"prime": prime, "max_depth": MAX_DEPTH}) as program:
            # The load generator's own garbage collections would stall its
            # clock and show up as service latency; the samples it keeps
            # form no reference cycles, so collection can wait.
            gc.collect()
            gc.disable()
            try:
                measured = asyncio.run(self.drive_load(program))
            finally:
                gc.enable()
            program.send("stop")
            result = program.read()
            program.finish(result)
        if result["conservation"]:
            raise BenchError(f"scheduler books do not balance: {result['conservation']}")

        attempted = sum(len(p.samples) for p in self.phases)
        failed = sum(p.failed for p in self.phases)
        wrong = sum(p.wrong for p in self.phases)
        outcome = Outcome(attempted, failed, wrong, {})
        if not self.args.trace:
            outcome.metrics = {
                "p50_ms": percentile(measured["latency"].latencies(), 0.5, f"{self.name} latency"),
                "setup_s": statistics.median(result["setup_s"]),
                "peak_rss_mb": result["peak_rss_mb"],
                "rps_capacity": measured["capacity"],
            }
            return outcome
        outcome.metrics = self.layers(measured, result)
        return outcome

    def layers(self, measured: dict[str, Any], result: dict[str, Any]) -> dict[str, float]:
        """Per-layer numbers over everything sent with tracing on."""
        traced: Checked = measured["traced"]
        poisson: Checked = measured["poisson"]
        sent = traced.samples + poisson.samples
        ok = [s for s in sent if s.reply is not None and s.reply.timing is not None]
        timings = [s.reply.timing for s in ok]  # type: ignore[union-attr]
        n = len(sent)
        on, off = result["marks"]["trace_on"], result["marks"]["stop"]
        tasks = off["counters"]["tasks_submitted"] - on["counters"]["tasks_submitted"]
        completed = off["counters"]["tasks_completed"] - on["counters"]["tasks_completed"]
        short = off["counters"]["tt_short_circuits"] - on["counters"]["tt_short_circuits"]
        hits = off["segment"]["tt_hits"] - on["segment"]["tt_hits"]
        misses = off["segment"]["tt_misses"] - on["segment"]["tt_misses"]
        probe_calls, probe_ms = result["tt_probe"]
        store_calls, _ = result["tt_store"]
        dispatch = result["dispatch"]
        children, evaluate = result["games.children"], result["games.evaluate"]
        metrics = {
            "multiproc.tasks": tasks / n,
            "multiproc.useful_ratio": ratio(completed, tasks),
            "multiproc.coord_busy_ms": (off["cpu_s"] - on["cpu_s"]) * 1e3 / n,
            "multiproc.worker_busy_ms": (off["worker_busy_s"] - on["worker_busy_s"]) * 1e3 / n,
            "multiproc.payload_bytes": ratio(dispatch["task_bytes"], dispatch["tasks"])
            + ratio(dispatch["result_bytes"], dispatch["results"]),
            "multiproc.roundtrip_us": ratio(
                dispatch["roundtrip_s"] - dispatch["worker_s"], dispatch["results"]
            ) * 1e6,
            "tt.probes": (probe_calls + off["worker_tt_probes"] - on["worker_tt_probes"]) / n,
            "tt.stores": (store_calls + off["worker_tt_stores"] - on["worker_tt_stores"]) / n,
            "tt.hit_ratio": ratio(hits, hits + misses),
            "tt.probe_us": ratio(probe_ms, probe_calls) * 1e3,
            "pool.short_circuit_ratio": ratio(short, short + tasks),
            "pool.iterations_ms": mean([t.iterations_total_s * 1e3 for t in timings]),
            "pool.tasks_per_request": tasks / n,
            "scheduler.admission_ms": mean([t.admission_s * 1e3 for t in timings]),
            "scheduler.queue_wait_ms": mean([t.queue_wait_s * 1e3 for t in timings]),
            "scheduler.queue_depth_max": result["queue_depth_max"],
            "wire.reply_serialize_ms": mean([t.reply_serialize_s * 1e3 for t in timings]),
            "wire.client_ms": mean([
                (s.received - s.sent) * 1e3 - s.reply.timing.end_to_end_s * 1e3  # type: ignore[union-attr]
                for s in ok
            ]),
            "serve.unattributed_ms": mean([t.unattributed_s * 1e3 for t in timings]),
            "games.children_us": ratio(children[1], children[0]) * 1e3,
            "games.evaluate_us": ratio(evaluate[1], evaluate[0]) * 1e3,
            "gen.late_ms": mean([s.late_ms for s in poisson.samples]),
            "trace.overhead": percentile(traced.latencies(), 0.5, f"{self.name} traced latency")
            / percentile(measured["untraced"].latencies(), 0.5, f"{self.name} latency"),
            **zero_layers((
                "multiproc.starvation", "multiproc.interference", "heap.", "serial_er.",
            )),
        }
        write_trace(self.name, self.args.seed, {
            "workload": self.name,
            "program": result["trace"],
            "client": {
                "fields": ["request_id", "due_s", "sent_s", "received_s"],
                "requests": [[s.request.request_id, s.due, s.sent, s.received] for s in sent],
            },
        })
        return metrics


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload in SEARCH:
            outcome = run_search(args.workload, args)
        else:
            outcome = ServeRun(args.workload, args).run()
        outcome.emit(PER_LAYER if args.trace else END_TO_END)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
