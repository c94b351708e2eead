"""The program under test, run as its own process for one benchmark run.

``run.py`` starts this file with a mode and a JSON configuration:

* ``search`` times back-to-back :func:`repro.multiproc_er` calls on a
  persistent :class:`repro.serve.EnginePool`.  An untraced run replaces
  the pool every few rounds, timing each set-up (pool start plus one
  discarded warm-up search), so set-up times sample the whole run.  A
  traced run sets up once and interleaves untraced searches, traced
  searches and, every few rounds, a plain and a traced serial
  :func:`repro.er_search` run, in seed-shuffled order.  It prints one
  JSON result line.
* ``serve`` sets up a :class:`repro.serve.SearchService` (service start
  plus priming requests), prints a ``ready`` line with the port, and
  then obeys line commands on stdin: ``restart`` tears the service down,
  sets up a new one and prints its ``ready`` line; ``trace on`` starts
  the wrapped-call tracing and answers ``ack``; ``stop`` drains the
  service, tears it down and prints the result line.

Peak memory covers this process and its children (the pool workers),
read before teardown.  The caller audits teardown from outside.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import math
import multiprocessing
import os
import pickle
import random
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
from repro import ERConfig  # noqa: E402
from repro.cache import SharedMemoryTT  # noqa: E402
from repro.core import PrimaryQueue, SpeculativeQueue  # noqa: E402
from repro.serve import EnginePool, PoolEngine, SearchRequest, SearchService, ServeConfig  # noqa: E402
from repro.workloads.suite import table3_suite  # noqa: E402

from procs import tree_peak_rss_mb  # noqa: E402
from tracer import Tracer  # noqa: E402

N_WORKERS = 2
#: A traced search run adds a plain and a traced serial ER sample every
#: this many rounds.
SERIAL_EVERY = 4
#: Counted boundaries each search sample reports (calls, total ms).
COUNTED = ("heap.push", "heap.pop", "games.children", "games.evaluate")


def emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class DispatchMeter:
    """Pickled bytes, submit-to-result time and worker time of pool tasks.

    Wraps the pool executor's ``submit`` from outside.  Only tasks
    submitted while the tracer is on are measured; each lands in the
    bucket current at submit time.  Worker time comes from each task's
    own result, so round-trip and worker totals cover the same tasks.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._lock = threading.Lock()
        self.bucket: dict[str, Any] = self.new_bucket()

    @staticmethod
    def new_bucket() -> dict[str, Any]:
        return {"tasks": 0, "task_bytes": 0, "results": 0, "result_bytes": 0,
                "roundtrip_s": 0.0, "worker_s": 0.0, "futures": []}

    def install(self, executor: Any) -> None:
        original = executor.submit
        meter = self

        @functools.wraps(original)
        def submit(fn: Any, *args: Any, **kwargs: Any) -> Future[Any]:
            if not meter._tracer.active():
                return original(fn, *args, **kwargs)
            sent = time.perf_counter()
            future = original(fn, *args, **kwargs)
            bucket = meter.bucket
            bucket["tasks"] += 1
            bucket["task_bytes"] += len(pickle.dumps((fn, args, kwargs)))
            bucket["futures"].append(future)
            future.add_done_callback(functools.partial(meter._done, bucket, sent))
            return future

        self._tracer.patch(executor, "submit", submit)

    def _done(self, bucket: dict[str, Any], sent: float, future: Future[Any]) -> None:
        elapsed = time.perf_counter() - sent
        if future.cancelled() or future.exception() is not None:
            return
        outcome = future.result()
        size = len(pickle.dumps(outcome))
        # A pool task returns (kind, value, stats, t_start, t_end, ...),
        # its start and end read on the worker's clock.
        busy = outcome[4] - outcome[3]
        with self._lock:
            bucket["results"] += 1
            bucket["result_bytes"] += size
            bucket["roundtrip_s"] += elapsed
            bucket["worker_s"] += busy

    def settle(self, bucket: dict[str, Any], timeout_s: float = 2.0) -> dict[str, Any]:
        """Wait until every finished task's callback has run; return totals."""
        deadline = time.monotonic() + timeout_s
        finished = sum(
            1 for f in bucket["futures"] if f.done() and not f.cancelled() and f.exception() is None
        )
        while bucket["results"] < finished and time.monotonic() < deadline:
            time.sleep(0.001)
        with self._lock:
            return {k: v for k, v in bucket.items() if k != "futures"}


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def run_search(cfg: dict[str, Any]) -> None:
    problem = table3_suite(cfg["scale"])[cfg["tree"]].problem()
    er_config = ERConfig(serial_depth=cfg["serial_depth"])
    traced = bool(cfg["trace"])
    setups: list[float] = []

    def set_up(old: EnginePool | None) -> EnginePool:
        if old is not None:
            old.close()
        start = time.perf_counter()
        pool = EnginePool(N_WORKERS, tt_mode="off")
        repro.multiproc_er(problem, N_WORKERS, config=er_config, pool=pool)
        setups.append(time.perf_counter() - start)
        return pool

    pool = set_up(None)
    setup_every = math.ceil(cfg["min_samples"] / cfg["setups"])

    # Wrappers go in after the workers exist, so no worker inherits them.
    tracer = Tracer()
    meter = DispatchMeter(tracer)
    if traced:
        labels = itertools.count()
        tracer.span(repro, "multiproc_er", "multiproc.search", lambda *a: f"mp{next(labels)}")
        tracer.span(repro, "er_search", "serial_er.search", lambda *a: f"serial{next(labels)}")
        for queue in (PrimaryQueue, SpeculativeQueue):
            tracer.count(queue, "push", "heap.push")
            tracer.count(queue, "pop", "heap.pop")
        game_class = type(problem.game)
        tracer.count(game_class, "children", "games.children")
        tracer.count(game_class, "evaluate", "games.evaluate")
        meter.install(pool.executor)

    rng = random.Random(cfg["seed"])
    samples: list[dict[str, Any]] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < cfg["min_samples"] or time.perf_counter() - start < cfg["seconds"]:
        if not traced and rounds and rounds % setup_every == 0 and len(setups) < cfg["setups"]:
            pool = set_up(pool)
        kinds = ["mp"]
        if traced:
            kinds.append("mp_traced")
            if rounds % SERIAL_EVERY == 0:
                kinds += ["serial", "serial_traced"]
        for kind in rng.sample(kinds, len(kinds)):
            tracer.enabled = kind != "mp"
            # Serial ER is the speed-up base: time it with its span only,
            # not with a counted wrapper around every move and evaluation.
            tracer.counting = kind != "serial"
            samples.append(_search_sample(kind, problem, er_config, pool, tracer, meter))
            tracer.enabled = False
        rounds += 1
    tracer.restore()

    peak_mb, pids = tree_peak_rss_mb(os.getpid())
    pool.close()
    emit({
        "setup_s": setups,
        "samples": samples,
        "peak_rss_mb": peak_mb,
        "pids": pids,
        "stray_children": [p.pid for p in multiprocessing.active_children()],
        "trace": tracer.dump() if traced else None,
    })


def _search_sample(
    kind: str, problem: Any, er_config: ERConfig, pool: EnginePool,
    tracer: Tracer, meter: DispatchMeter,
) -> dict[str, Any]:
    before = {name: tracer.totals(name) for name in COUNTED}
    meter.bucket = bucket = meter.new_bucket()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if kind.startswith("serial"):
        result = repro.er_search(problem)
        wall = time.perf_counter() - t0
        record: dict[str, Any] = {
            "kind": kind, "value": result.value, "wall_ms": wall * 1e3,
            "nodes": result.stats.nodes_examined,
        }
    else:
        mp = repro.multiproc_er(problem, N_WORKERS, config=er_config, pool=pool)
        wall = time.perf_counter() - t0
        record = {
            "kind": kind, "value": mp.value, "wall_ms": wall * 1e3,
            "tasks": mp.extras["tasks_submitted"],
            "applied": mp.extras["tasks_applied"],
            "busy_ms": (mp.busy_applied_seconds + mp.busy_wasted_seconds) * 1e3,
            "starvation_ms": mp.starvation_seconds * 1e3,
            "interference_ms": mp.interference_seconds * 1e3,
            "dispatch": meter.settle(bucket),
        }
    record["cpu_ms"] = (time.process_time() - cpu0) * 1e3
    for name, (calls0, ms0) in before.items():
        calls, ms = tracer.totals(name)
        record[name] = [calls - calls0, ms - ms0]
    return record


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _queue_depths(service: SearchService) -> list[tuple[float, float]]:
    """The scheduler's own ``serve.queue.depth`` samples, as (time, depth)."""
    return service.metrics.registry.timeseries("serve.queue.depth").samples


def _pool_snapshot(service: SearchService) -> dict[str, Any]:
    pool = service.pool
    assert pool is not None and pool.shared_tt is not None
    return {
        "queue_samples": len(_queue_depths(service)),
        "cpu_s": time.process_time(),
        "counters": dict(pool.counters),
        "worker_busy_s": sum(split["applied"] for split in pool.per_worker.values()),
        "worker_tt_probes": pool.stats.tt_probes,
        "worker_tt_stores": pool.stats.tt_stores,
        "segment": pool.shared_tt.counter_snapshot(),
    }


async def run_serve(cfg: dict[str, Any]) -> None:
    prime = [
        SearchRequest(request_id=f"prime{i}", workload=w, path=tuple(p), max_depth=cfg["max_depth"])
        for i, (w, p) in enumerate(cfg["prime"])
    ]
    setups: list[float] = []
    # Scheduler books that did not balance, over every service run.
    conservation: list[str] = []

    def check_books(service: SearchService) -> None:
        assert service.scheduler is not None
        conservation.extend(service.scheduler.conservation_problems())

    async def set_up(old: SearchService | None) -> SearchService:
        if old is not None:
            await old.shutdown()
            check_books(old)
        start = time.perf_counter()
        service = SearchService(ServeConfig(n_workers=N_WORKERS))
        await service.start()
        for request in prime:
            reply = await service.handle(request)
            if reply.status != "ok":
                raise RuntimeError(f"priming request failed: {reply}")
        setups.append(time.perf_counter() - start)
        host, port = service.address
        emit({"ready": True, "host": host, "port": port})
        return service

    service = await set_up(None)
    tracer = Tracer()
    meter = DispatchMeter(tracer)
    loop = asyncio.get_running_loop()
    marks: dict[str, Any] = {}
    while True:
        line = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if line == "restart":
            service = await set_up(service)
        elif line == "trace on":
            assert service.pool is not None
            tracer.span(SearchService, "handle", "serve.request", lambda self, req: req.request_id)
            tracer.span(PoolEngine, "run_iteration", "pool.iteration")
            tracer.count(EnginePool, "probe_exact", "pool.probe_exact")
            tracer.count(SharedMemoryTT, "probe", "tt.probe")
            tracer.count(SharedMemoryTT, "store", "tt.store")
            game_class = type(service.catalog[prime[0].workload].make_game())
            tracer.count(game_class, "children", "games.children")
            tracer.count(game_class, "evaluate", "games.evaluate")
            meter.install(service.pool.executor)
            marks["trace_on"] = _pool_snapshot(service)
            tracer.enabled = True
            emit({"ack": line})
        elif line in ("stop", ""):
            break
        else:
            raise RuntimeError(f"unknown command {line!r}")
    marks["stop"] = _pool_snapshot(service)
    traced_depths = _queue_depths(service)[
        marks.get("trace_on", marks["stop"])["queue_samples"]:marks["stop"]["queue_samples"]
    ]
    tracer.enabled = False
    tracer.restore()
    peak_mb, pids = tree_peak_rss_mb(os.getpid())
    await service.shutdown()
    check_books(service)
    emit({
        "setup_s": setups,
        "peak_rss_mb": peak_mb,
        "pids": pids,
        "stray_children": [p.pid for p in multiprocessing.active_children()],
        "conservation": conservation,
        "queue_depth_max": max((depth for _, depth in traced_depths), default=0.0),
        "marks": marks,
        "dispatch": meter.settle(meter.bucket),
        "tt_probe": tracer.totals("tt.probe"),
        "tt_store": tracer.totals("tt.store"),
        "games.children": tracer.totals("games.children"),
        "games.evaluate": tracer.totals("games.evaluate"),
        "trace": tracer.dump() if marks.get("trace_on") else None,
    })


def main() -> None:
    mode, raw = sys.argv[1], sys.argv[2]
    cfg = json.loads(raw)
    if mode == "search":
        run_search(cfg)
    elif mode == "serve":
        asyncio.run(run_serve(cfg))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
