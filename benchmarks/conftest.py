"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's exhibits (Table 3,
Figures 10-13, the Section 4 baseline claims, or a Section 5/8 ablation).
Benchmarks run the *reduced* workload scale by default; set
``REPRO_FULL=1`` for the paper-scale trees (minutes instead of seconds).

Each benchmark stores the regenerated rows in ``benchmark.extra_info``
(visible in ``--benchmark-verbose``/JSON output) and rewrites them to
``benchmarks/results/<name>.txt`` so the numbers that back EXPERIMENTS.md
are regenerated on every run (one file per exhibit, overwritten in
place — the files are committed, so history lives in git).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.workloads.suite import bench_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session", autouse=True)
def refresh_bench_obs():
    """Always (re)write ``BENCH_obs.json`` from the committed ledger.

    Individual benchmarks refresh the aggregate as they write records,
    but a partial run (``-k``, a crash, or a session with no ledger
    benchmarks selected) must still leave the top-level aggregate
    consistent with ``results/ledger/`` — CI publishes the file as the
    per-PR makespan/nodes/efficiency series.  Re-aggregating once more
    at session end makes the rewrite unconditional.
    """
    yield
    from repro.obs import ledger

    root = RESULTS_DIR.parent.parent
    directory = root / "results" / "ledger"
    if directory.is_dir():
        ledger.aggregate(directory, out_path=root / "BENCH_obs.json")


@pytest.fixture()
def record_table():
    """Write a rendered table to benchmarks/results/<name>.txt."""

    def write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return write


@pytest.fixture()
def record_ledger():
    """Write a run-ledger record and refresh the top-level BENCH_obs.json.

    Benchmarks hand in the :class:`repro.obs.snapshot.Snapshot` of a run
    they already made; the fixture validates it, appends it to
    ``results/ledger/`` (named by backend/workload/P/git SHA, so reruns
    at the same SHA overwrite in place), and re-aggregates the whole
    ledger into ``BENCH_obs.json`` at the repo root.
    """
    from repro.obs import ledger

    root = RESULTS_DIR.parent.parent
    directory = root / "results" / "ledger"

    def write(snap, *, workload, scale, seed=None, config=None):
        record = ledger.make_record(
            snap,
            workload=workload,
            scale=scale,
            seed=seed,
            config=config,
        )
        problems = ledger.validate_record(record)
        assert problems == [], "\n".join(problems)
        path = ledger.write_record(record, directory)
        ledger.aggregate(directory, out_path=root / "BENCH_obs.json")
        return path

    return write


@pytest.fixture()
def record_scaling(record_table):
    """Write a wall-clock scaling run as one fig10-13-format file per
    processor count: ``benchmarks/results/<prefix>_P{n}.txt``."""
    from repro.parallel.multiproc import format_scaling_table

    def write(prefix: str, tree_name: str, serial_seconds: float, points) -> None:
        for point in points:
            record_table(
                f"{prefix}_P{point.n_workers}",
                format_scaling_table(tree_name, serial_seconds, [point]),
            )

    return write
