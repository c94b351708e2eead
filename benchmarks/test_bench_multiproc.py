"""Wall-clock scaling of the multiprocess ER backend, P in {1, 2, 4, 8}.

This is the repo's only *real-time* speedup exhibit: the simulator
benchmarks report simulated-clock efficiency, whereas this run measures
actual seconds on actual cores.  The workload is a random tree tuned so
subtree tasks are large relative to one pickle/IPC round-trip and
numerous enough to keep eight workers fed (54+ tasks), with
``max_e_children=1`` keeping total speculative work near the serial node
count.

Speedup assertions are gated on the machine: a container pinned to one
core cannot show wall-clock speedup no matter how correct the backend
is, so there we only pin correctness, task-flow, and loss accounting.
The measured numbers land in ``results/scaling_multiproc_P{n}.txt``
either way.

The speedup gate times serial ER and the parallel run in alternating
pairs and asserts on the 3rd-smallest of the ``PAIRS`` paired ratios:
with 10 pairs, about a 95% lower confidence bound on the median ratio.
One unpaired serial timing of a ~0.1 s search is too noisy a
denominator to gate on.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.er_parallel import ERConfig
from repro.core.serial_er import er_search
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import measure_serial_seconds, multiproc_er, scaling_run

WORKER_COUNTS = (1, 2, 4, 8)
PAIRS = 10


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workload(scale: str) -> tuple[SearchProblem, ERConfig]:
    # Calibrated so one task is ~5-10ms of search (hundreds of pickle
    # round-trips' worth) and P=1 busy time stays within ~10% of serial.
    height = 10 if scale == "paper" else 8
    problem = SearchProblem(RandomGameTree(4, height, seed=101), depth=height)
    config = ERConfig(serial_depth=height - 5, max_e_children=1)
    return problem, config


def _paired_speedups(problem: SearchProblem, config: ERConfig, count: int) -> list[float]:
    """Sorted serial-over-parallel wall ratios of ``PAIRS`` alternating runs.

    Each serial ER timing is paired with the P=``count`` run right after
    it, so host speed drift moves both halves of a ratio together.
    """
    ratios = []
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        er_search(problem)
        serial = time.perf_counter() - t0
        ratios.append(serial / multiproc_er(problem, count, config=config).wall_time)
    return sorted(ratios)


def _assert_paired_speedup(
    benchmark, problem: SearchProblem, config: ERConfig, count: int, bar: float, cores: int
) -> None:
    ratios = _paired_speedups(problem, config, count)
    lower = ratios[2]  # ~95% lower bound on the median of 10
    summary = (
        f"P={count} paired speedup over {PAIRS} pairs: median "
        f"{statistics.median(ratios):.2f}, spread {ratios[0]:.2f}-{ratios[-1]:.2f}, "
        f"3rd-smallest {lower:.2f} (bar {bar})"
    )
    print(summary)
    benchmark.extra_info[f"paired_P{count}"] = [round(r, 3) for r in ratios]
    assert lower > bar, f"{summary} on {cores} cores"


def test_multiproc_scaling(benchmark, scale, record_scaling, record_ledger):
    problem, config = _workload(scale)
    truth = er_search(problem).value
    serial_seconds = measure_serial_seconds(problem)

    _, points = benchmark.pedantic(
        lambda: scaling_run(
            problem, WORKER_COUNTS, config=config, serial_seconds=serial_seconds
        ),
        rounds=1,
        iterations=1,
    )
    record_scaling("scaling_multiproc", "M1", serial_seconds, points)

    # Freeze the widest run into the observability ledger (and the
    # aggregated BENCH_obs.json) alongside the table files.
    from repro.obs.snapshot import snapshot_from_multiproc

    widest = max(points, key=lambda p: p.n_workers)
    snap = snapshot_from_multiproc(widest.result, workload="M1")
    violations = snap.check_accounting()
    assert violations == [], "\n".join(violations)
    record_ledger(
        snap,
        workload="M1",
        scale=scale,
        seed=101,
        config={"serial_depth": config.serial_depth, "max_e_children": 1},
    )

    cores = _available_cores()
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["speedup"] = {
        p.n_workers: round(p.speedup, 2) for p in points
    }
    benchmark.extra_info["losses"] = {
        p.n_workers: {
            "starvation": round(p.result.starvation_fraction, 3),
            "interference": round(p.result.interference_fraction, 3),
            "moot": round(p.result.busy_wasted_seconds / p.result.processor_seconds, 3),
        }
        for p in points
    }

    # Correctness and accounting hold on any machine.
    for point in points:
        assert point.result.value == truth
        assert point.result.extras["tasks_submitted"] >= 8
        fractions = (
            point.result.starvation_fraction
            + point.result.interference_fraction
            + point.result.busy_wasted_seconds / point.result.processor_seconds
        )
        assert 0.0 <= fractions <= 1.0 + 1e-9
    # Real-parallelism claims need real cores to test.
    if cores >= 2:
        _assert_paired_speedup(benchmark, problem, config, 2, 1.1, cores)
    if cores >= 4:
        _assert_paired_speedup(benchmark, problem, config, 4, 1.5, cores)
