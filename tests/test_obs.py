"""Telemetry layer: event bus, registry, snapshots, exporters, ledger.

The simulated backend anchors most assertions because it is
deterministic: the same seed produces the same event stream, the same
snapshot, and — via the golden file under ``tests/golden/`` — the same
Chrome trace bytes.  The wall-clock backends are checked for structure
(schema-valid ledger records, non-negative accounting) rather than
values.

Regenerate the golden trace after an intentional engine change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs.py
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
from pathlib import Path

import pytest

from repro.core.er_parallel import ERConfig, parallel_er
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import EVENT_TYPES, aggregate, critpath, observing, probe, self_check
from repro.obs import events as obs_events
from repro.obs import ledger
from repro.obs.export import render_chrome_trace, render_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import (
    SIM_UNITS,
    Snapshot,
    snapshot_from_multiproc,
    snapshot_from_sim,
    snapshot_from_threaded,
)
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er_observed
from repro.sim.ops import Op

GOLDEN_TRACE = Path(__file__).parent / "golden" / "sim_trace.json"

#: Small fixed-seed problem; every sim-backed test shares one run.
_SEED = 7


def _problem() -> SearchProblem:
    return SearchProblem(RandomGameTree(3, 5, seed=_SEED), depth=5)


@pytest.fixture(scope="module")
def sim_run():
    with observing() as bus, critpath.recording() as rec:
        result = parallel_er(_problem(), 2, config=ERConfig(serial_depth=2))
    return bus, result, rec


@pytest.fixture(scope="module")
def sim_snapshot(sim_run) -> Snapshot:
    bus, result, _ = sim_run
    return snapshot_from_sim(result, workload="G1", bus=bus)


# ---------------------------------------------------------------------------
# Accounting: the paper's Section 3.1 decomposition is exact in simulation.
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_tail_idle_closes_the_timeline(self, sim_run):
        _, result, _ = sim_run
        report = result.report
        for metrics in report.processors:
            assert metrics.tail_idle >= 0.0
            assert metrics.accounted == pytest.approx(metrics.finish_time, abs=1e-9)
            assert metrics.accounted + metrics.tail_idle == pytest.approx(
                report.makespan, abs=1e-9
            )

    def test_snapshot_accounting_clean(self, sim_snapshot):
        assert sim_snapshot.check_accounting() == []

    def test_snapshot_flags_a_gap(self, sim_snapshot):
        broken = sim_snapshot.to_dict()
        broken["processors"][0]["busy"] += 1.0
        violations = Snapshot.from_dict(broken).check_accounting()
        assert any("finish_time" in v for v in violations)

    def test_fractions_partition_processor_time(self, sim_snapshot):
        snap = sim_snapshot
        total = (
            snap.busy_fraction
            + snap.starvation_fraction
            + snap.interference_fraction
            + snap.speculative_fraction
            + snap.overhead_fraction
        )
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Event bus and metrics registry.
# ---------------------------------------------------------------------------


class TestBusAndRegistry:
    def test_sim_emits_known_event_types_only(self, sim_run):
        bus, _, _ = sim_run
        assert bus.events, "sim run emitted no telemetry"
        assert {e.etype for e in bus.events} <= set(obs_events.ALL_EVENT_TYPES)

    def test_sim_event_timestamps_are_simulated(self, sim_run):
        bus, result, _ = sim_run
        assert all(0.0 <= e.ts <= result.report.makespan for e in bus.events)

    def test_registry_covers_ops_and_events(self, sim_run):
        bus, _, _ = sim_run
        metrics = aggregate(bus).collect()
        assert metrics["sim.ops.compute"] > 0
        assert metrics["nodes.created"] > 0
        assert metrics["nodes.done"] > 0
        assert any(name.startswith("queue.depth") for name in metrics)

    def test_op_and_event_mappings_are_total(self, sim_run):
        bus, _, _ = sim_run
        gc.collect()  # frees any op class whose declaration raised
        assert set(bus.op_counts) <= {op.metric for op in Op.__subclasses__()}
        assert {e.etype for e in bus.events} <= set(EVENT_TYPES)

    def test_no_bus_no_events(self):
        result = parallel_er(_problem(), 2, config=ERConfig(serial_depth=2))
        assert probe.CURRENT is None
        assert result.value is not None

    def test_self_check_is_clean(self):
        assert self_check() == []

    def test_timeseries_samples_view_and_running_peak(self):
        series = MetricsRegistry().timeseries("depth")
        assert (series.peak, series.last, len(series.samples)) == (0.0, 0.0, 0)
        for ts, value in ((1.0, -2.0), (2.0, 5.0), (3.0, 1.0)):
            series.sample(ts, value)
        assert (series.peak, series.last) == (5.0, 1.0)
        assert len(series.samples) == 3
        assert series.samples[0] == (1.0, -2.0) and series.samples[-1] == (3.0, 1.0)
        assert series.samples[1:3] == [(2.0, 5.0), (3.0, 1.0)]
        assert list(series.samples) == [(1.0, -2.0), (2.0, 5.0), (3.0, 1.0)]
        negative = MetricsRegistry().timeseries("negative")
        negative.sample(1.0, -3.0)
        assert negative.peak == -3.0


# ---------------------------------------------------------------------------
# Exporters: golden Chrome trace and JSONL.
# ---------------------------------------------------------------------------


def _render_golden(bus, result, rec) -> str:
    return render_chrome_trace(
        bus.events,
        report=result.report,
        schedule=rec.intervals,
        time_unit=SIM_UNITS,
        metadata={"workload": "G1", "seed": _SEED, "n_processors": 2},
    )


class TestExport:
    def test_chrome_trace_matches_golden_bytes(self, sim_run):
        text = _render_golden(*sim_run)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_TRACE.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_TRACE.write_text(text, encoding="utf-8")
        assert GOLDEN_TRACE.exists(), (
            "golden trace missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert text == GOLDEN_TRACE.read_text(encoding="utf-8"), (
            "fixed-seed Chrome trace changed; if intentional, regenerate "
            "with REPRO_REGEN_GOLDEN=1"
        )

    def test_chrome_trace_is_perfetto_shaped(self, sim_run):
        payload = json.loads(_render_golden(*sim_run))
        assert set(payload) == {"displayTimeUnit", "metadata", "traceEvents"}
        events = payload["traceEvents"]
        assert events[0]["name"] == "process_name"
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C", "i"} <= phases
        for event in events:
            assert "pid" in event and "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] != "M":
                assert event["ts"] >= 0.0

    def test_timeline_tracks_named_per_processor(self, sim_run):
        _, result, _ = sim_run
        # A processor with no recorded interval still gets its track.
        for text in (_render_golden(*sim_run), render_chrome_trace([], report=result.report)):
            names = {
                e["args"]["name"]
                for e in json.loads(text)["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"
            }
            assert names == {"P0", "P1"}

    def test_jsonl_round_trips_every_event(self, sim_run):
        bus, _, _ = sim_run
        lines = render_jsonl(bus.events).splitlines()
        assert len(lines) == len(bus.events)
        first = json.loads(lines[0])
        assert set(first) == {"etype", "ts", "task", "data"}


# ---------------------------------------------------------------------------
# Ledger: records validate on every backend; compare flags regressions.
# ---------------------------------------------------------------------------


class TestLedger:
    def _record(self, snap: Snapshot) -> ledger.Record:
        return ledger.make_record(
            snap, workload=snap.workload, scale="reduced", seed=_SEED
        )

    def test_sim_record_validates(self, sim_snapshot):
        assert ledger.validate_record(self._record(sim_snapshot)) == []

    def test_threaded_record_validates(self):
        with observing() as bus:
            run = threaded_er_observed(_problem(), 2, config=ERConfig(serial_depth=2))
        snap = snapshot_from_threaded(run, workload="G1", bus=bus)
        assert snap.check_accounting() == []
        assert ledger.validate_record(self._record(snap)) == []

    def test_multiproc_record_validates(self):
        with observing() as bus:
            result = multiproc_er(_problem(), 2, config=ERConfig(serial_depth=2))
        snap = snapshot_from_multiproc(result, workload="G1", bus=bus)
        assert snap.check_accounting() == []
        assert ledger.validate_record(self._record(snap)) == []

    def test_schema_agrees_with_jsonschema(self, sim_snapshot):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self._record(sim_snapshot), ledger.LEDGER_SCHEMA)

    def test_validation_catches_structural_damage(self, sim_snapshot):
        missing = self._record(sim_snapshot)
        del missing["git_sha"]
        assert any("git_sha" in p for p in ledger.validate_record(missing))
        bad_backend = self._record(sim_snapshot)
        bad_backend["backend"] = "quantum"
        assert any("backend" in p for p in ledger.validate_record(bad_backend))

    def test_write_load_resolve_by_sha(self, sim_snapshot, tmp_path):
        record = self._record(sim_snapshot)
        record["git_sha"] = "abcdef0123456789"
        path = ledger.write_record(record, tmp_path)
        assert ledger.load_record(path) == record
        assert ledger.resolve("abcdef01", tmp_path) == record
        assert ledger.resolve(str(path), tmp_path) == record
        with pytest.raises(FileNotFoundError):
            ledger.resolve("feedface", tmp_path)

    def test_record_from_modified_tree_says_dirty(self, sim_snapshot, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        tracked = repo / "search.py"
        tracked.write_text("value = 1\n")

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=repo, check=True, capture_output=True,
            )

        git("init", "-q")
        git("add", "search.py")
        git("commit", "-q", "-m", "one")
        monkeypatch.chdir(repo)
        clean = ledger.current_git_sha()
        assert len(clean) == 40 and not clean.endswith(ledger.DIRTY)
        (repo / "untracked.txt").write_text("scratch\n")  # untracked files do not count
        assert ledger.current_git_sha() == clean
        tracked.write_text("value = 2\n")
        dirty = ledger.current_git_sha()
        assert dirty == clean + ledger.DIRTY

        ledger_dir = tmp_path / "ledger"
        baseline = self._record(sim_snapshot)
        baseline["git_sha"] = clean
        candidate = self._record(sim_snapshot)  # recorded from the modified tree
        assert candidate["git_sha"] == dirty
        ledger.write_record(candidate, ledger_dir)
        assert ledger.resolve(clean[:8], ledger_dir)["git_sha"] == dirty
        header = ledger.compare_records(baseline, candidate).format().splitlines()[0]
        assert f"@{clean[:10]} -> " in header and f"@{clean[:10]}-dirty" in header

    def test_series_efficiency_needs_serial_cost(self, sim_run, sim_snapshot, tmp_path):
        _, result, _ = sim_run
        costed = snapshot_from_sim(result, workload="G1c", serial_time=2310.0)
        ledger.write_record(self._record(sim_snapshot), tmp_path, name="plain")
        ledger.write_record(self._record(costed), tmp_path, name="costed")
        series = ledger.aggregate(tmp_path)["series"]
        (plain,) = series["sim/G1/reduced/P2"]  # type: ignore[index]
        (point,) = series["sim/G1c/reduced/P2"]  # type: ignore[index]
        # Not the busy fraction: a record without serial_cost has no
        # efficiency, and one with it reports serial / (P x makespan).
        assert plain["efficiency"] is None
        assert point["efficiency"] == costed.efficiency
        assert point["efficiency"] == 2310.0 / (2 * result.sim_time)

    def test_identical_records_have_no_regressions(self, sim_snapshot):
        record = self._record(sim_snapshot)
        report = ledger.compare_records(record, record)
        assert report.ok and report.regressions == []

    def test_compare_flags_work_and_loss_regressions(self, sim_snapshot):
        baseline = self._record(sim_snapshot)
        candidate = json.loads(json.dumps(baseline))
        candidate["snapshot"]["work"]["nodes_examined"] *= 1.5
        # Fractions derive from the processor rows, so regress one row.
        candidate["snapshot"]["processors"][0]["starvation"] += candidate["snapshot"][
            "makespan"
        ]
        report = ledger.compare_records(baseline, candidate)
        assert not report.ok
        assert any("nodes_examined" in r for r in report.regressions)
        assert any("starvation" in r for r in report.regressions)

    def test_compare_flags_value_mismatch(self, sim_snapshot):
        baseline = self._record(sim_snapshot)
        candidate = json.loads(json.dumps(baseline))
        candidate["snapshot"]["value"] += 1.0
        report = ledger.compare_records(baseline, candidate)
        assert any("value" in r for r in report.regressions)

    def test_aggregate_summarizes_directory(self, sim_snapshot, tmp_path):
        ledger.write_record(self._record(sim_snapshot), tmp_path)
        out = tmp_path / "BENCH_obs.json"
        payload = ledger.aggregate(tmp_path, out_path=out)
        assert payload["n_records"] == 1
        assert json.loads(out.read_text())["records"][0]["workload"] == "G1"


# ---------------------------------------------------------------------------
# Threaded decompositions close exactly, mirroring the sim-side invariant:
# busy is defined as the residual of each thread's lifetime, so
# accounted == finish_time and accounted + tail_idle == makespan hold to
# float round-off even though every quantity is wall-clock-measured.
# ---------------------------------------------------------------------------


class TestThreadedAccounting:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_accounted_plus_tail_idle_is_makespan(self, seed):
        problem = SearchProblem(RandomGameTree(3, 4, seed=seed), depth=4)
        run = threaded_er_observed(problem, 2, config=ERConfig(serial_depth=2))
        snap = snapshot_from_threaded(run, workload=f"G{seed}")
        assert snap.check_accounting() == []
        for proc in snap.processors:
            assert proc.accounted == pytest.approx(proc.finish_time, abs=1e-9)
            assert proc.accounted + proc.tail_idle == pytest.approx(
                snap.makespan, abs=1e-9
            )

    @pytest.mark.parametrize("seed", [3, 7])
    def test_thread_timings_partition_each_lifetime(self, seed):
        problem = SearchProblem(RandomGameTree(3, 4, seed=seed), depth=4)
        run = threaded_er_observed(problem, 3, config=ERConfig(serial_depth=2))
        assert len(run.timings) == 3
        for t in run.timings:
            assert t.busy >= 0 and t.lock_wait >= 0 and t.starve_wait >= 0
            assert t.busy + t.lock_wait + t.starve_wait == pytest.approx(
                t.wall, abs=1e-9
            )
            assert t.wall <= run.wall_time + 1e-9


# ---------------------------------------------------------------------------
# Snapshot serialization.
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_to_from_dict_identity(self, sim_snapshot):
        clone = Snapshot.from_dict(sim_snapshot.to_dict())
        assert clone == sim_snapshot

    def test_dict_is_json_safe(self, sim_snapshot):
        json.dumps(sim_snapshot.to_dict())


# ---------------------------------------------------------------------------
# Degenerate micro-runs: wall_time == 0 must not leak negatives or NaNs.
# ---------------------------------------------------------------------------


class TestZeroWallSnapshots:
    """Timer-quantized micro-runs hand the builders wall_time == 0.

    Per-thread walls can then exceed the run wall (so naive tail_idle
    goes negative) and every fraction divides by zero.  The builders
    clamp measured categories; these are the regression tests.
    """

    def test_threaded_zero_wall_run(self):
        from repro.parallel.threaded import ThreadedRun, ThreadTiming
        from repro.search.stats import SearchStats

        run = ThreadedRun(
            value=1.0,
            stats=SearchStats(),
            wall_time=0.0,
            timings=(
                ThreadTiming(busy=1e-7, lock_wait=0.0, starve_wait=0.0, wall=1e-7),
                ThreadTiming(busy=0.0, lock_wait=0.0, starve_wait=0.0, wall=0.0),
            ),
            counters={},
        )
        snap = snapshot_from_threaded(run, workload="micro")
        assert snap.check_accounting() == []
        for proc in snap.processors:
            assert proc.tail_idle >= 0.0
        for fraction in (
            snap.busy_fraction,
            snap.starvation_fraction,
            snap.interference_fraction,
            snap.speculative_fraction,
        ):
            assert fraction == fraction  # not NaN
            assert fraction >= 0.0

    def test_multiproc_zero_wall_run(self):
        from repro.parallel.multiproc import MultiprocResult
        from repro.search.stats import SearchStats

        result = MultiprocResult(
            value=1.0,
            n_workers=2,
            wall_time=0.0,
            stats=SearchStats(),
            starvation_seconds=-1e-9,  # integrator round-off
            interference_seconds=0.0,
            per_worker={0: {"pid": 1234.0, "applied": 1e-7, "wasted": 0.0}},
        )
        snap = snapshot_from_multiproc(result, workload="micro")
        assert snap.check_accounting() == []
        assert snap.makespan == 0.0
        for proc in snap.processors:
            assert proc.starvation >= 0.0 and proc.tail_idle >= 0.0
        assert snap.busy_fraction == 0.0  # zero denominator, not NaN

    def test_multiproc_missing_worker_row_defaults_to_zero(self):
        from repro.parallel.multiproc import MultiprocResult
        from repro.search.stats import SearchStats

        result = MultiprocResult(
            value=0.0, n_workers=3, wall_time=0.5, stats=SearchStats(),
            per_worker={1: {"pid": 9.0, "applied": 0.25, "wasted": 0.0}},
        )
        snap = snapshot_from_multiproc(result, workload="micro")
        assert [p.busy for p in snap.processors] == [0.0, 0.25, 0.0]
        assert snap.check_accounting() == []
