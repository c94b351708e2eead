"""Critical-path extraction, what-if profiling, and the explain surfaces.

The central claim under test is *exactness*: the extracted path's busy
credits telescope to the makespan, so ``CriticalPath.length`` equals the
run's simulated makespan with ``==``, not ``approx`` (the cost model's
values are dyadic, so every simulated timestamp is exact in binary
floating point).  Everything downstream — attribution tables, blame
reports, the Chrome-trace overlay, ledger composition records — is a
pure function of the recorded schedule, so fixed seeds give fixed bytes
(golden-tested).

Regenerate goldens after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_critpath.py
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import pytest

from repro import alphabeta
from repro.analysis.experiments import er_config_for
from repro.analysis.gantt import render_gantt
from repro.cli import main
from repro.core.er_parallel import ERConfig, parallel_er
from repro.costmodel import DEFAULT_COST_MODEL
from repro.errors import SimulationError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import critpath, ledger, observing, probe, whatif
from repro.obs.critpath import (
    BUSY,
    LOCK_WAIT,
    STARVE,
    CriticalPath,
    ScheduleRecorder,
    bus_events,
    extract,
    render_report,
)
from repro.obs.events import EV_CRIT_SEGMENT
from repro.obs.export import render_chrome_trace
from repro.obs.snapshot import snapshot_from_sim
from repro.sim.ops import Op
from repro.workloads.suite import table3_suite

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REPORT = GOLDEN_DIR / "explain_report.txt"
GOLDEN_OVERLAY = GOLDEN_DIR / "critpath_overlay.json"
GOLDEN_GANTT = GOLDEN_DIR / "gantt_G1.txt"

_SEED = 7


def _problem() -> SearchProblem:
    return SearchProblem(RandomGameTree(3, 5, seed=_SEED), depth=5)


def _record_run():
    """One small fixed-seed run under bus + schedule recorder."""
    with observing() as bus, critpath.recording() as rec:
        result = parallel_er(_problem(), 2, config=ERConfig(serial_depth=2))
    return bus, rec, result


@pytest.fixture(scope="module")
def recorded():
    bus, rec, result = _record_run()
    return bus, rec, result, extract(rec, result.sim_time)


def _check_golden(path: Path, text: str) -> None:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"{path.name} missing; regenerate with REPRO_REGEN_GOLDEN=1"
    assert text == path.read_text(encoding="utf-8"), (
        f"fixed-seed {path.name} changed; if intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )


# ---------------------------------------------------------------------------
# Exactness: path length == makespan, by construction.
# ---------------------------------------------------------------------------


class TestExactness:
    def test_path_length_equals_makespan_exactly(self, recorded):
        _, _, result, path = recorded
        assert path.length == result.sim_time
        assert path.makespan == result.sim_time

    def test_r3_p4_acceptance(self):
        """The PR's acceptance run: R3 reduced on 4 processors, exact."""
        spec = table3_suite("reduced")["R3"]
        with critpath.recording() as rec:
            result = parallel_er(spec.problem(), 4, config=er_config_for(spec))
        path = extract(rec, result.sim_time)
        assert path.length == result.sim_time

    def test_busy_credits_cover_each_wallclock_instant_once(self, recorded):
        _, _, _, path = recorded
        # Busy credit windows [end - credit, end] abut in forward order.
        t = 0.0
        for step in path.busy_steps:
            start = step.interval.end - step.credit
            assert start == pytest.approx(t, abs=1e-9)
            t = step.interval.end
        assert t == path.makespan

    def test_attributions_partition_the_length(self, recorded):
        _, _, _, path = recorded
        assert sum(path.by_primitive().values()) == pytest.approx(path.length)
        assert sum(path.by_node().values()) == pytest.approx(path.length)
        assert sum(path.by_class().values()) == pytest.approx(path.length)

    def test_handoffs_are_zero_credit(self, recorded):
        _, _, _, path = recorded
        assert all(s.credit == 0.0 for s in path.handoffs)
        counts = path.handoff_counts()
        assert counts["lock"] + counts["starve"] == len(path.handoffs)

    def test_composition_is_flat_and_consistent(self, recorded):
        _, _, _, path = recorded
        comp = path.composition()
        assert comp["length"] == comp["makespan"] == path.makespan
        prim_total = sum(v for k, v in comp.items() if k.startswith("primitive."))
        assert prim_total == pytest.approx(path.length)

    def test_every_processor_wid_is_valid(self, recorded):
        _, _, result, path = recorded
        wids = {s.interval.wid for s in path.steps}
        assert wids <= set(range(result.n_processors))


# ---------------------------------------------------------------------------
# Recorder contents and hand-off provenance.
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_node_queue_provenance_recorded(self, recorded):
        _, rec, _, path = recorded
        assert rec.node_queue, "no heap pops recorded"
        assert all(q.startswith("heap.") for q in rec.node_queue.values())
        assert path.node_queue == rec.node_queue

    def test_wait_intervals_name_their_waker(self, recorded):
        _, rec, _, _ = recorded
        waits = [iv for iv in rec.intervals if iv.kind != BUSY]
        assert waits, "no waits recorded on a contended run"
        assert all(iv.src >= 0 for iv in waits)
        assert all(iv.tag for iv in waits)

    def test_intervals_tile_each_processor(self, recorded):
        _, rec, result, _ = recorded
        by_wid = critpath.by_processor(rec.intervals)
        for wid, metrics in enumerate(result.report.processors):
            ivs = sorted(by_wid.get(wid, []), key=lambda iv: iv.start)
            assert ivs and ivs[0].start == 0.0
            for prev, nxt in zip(ivs, ivs[1:]):
                assert nxt.start == pytest.approx(prev.end, abs=1e-9)
            assert ivs[-1].end == pytest.approx(metrics.finish_time, abs=1e-9)
            # The recorder is the engine's second witness: its intervals
            # sum to the processor's busy / lock / starve accounting.
            total = {BUSY: 0.0, LOCK_WAIT: 0.0, STARVE: 0.0}
            for iv in ivs:
                total[iv.kind] += iv.duration
            assert total[BUSY] == pytest.approx(metrics.busy, abs=1e-9)
            assert total[LOCK_WAIT] == pytest.approx(metrics.lock_wait, abs=1e-9)
            assert total[STARVE] == pytest.approx(metrics.starve_wait, abs=1e-9)

    def test_no_recorder_no_overhead_state(self):
        result = parallel_er(_problem(), 2, config=ERConfig(serial_depth=2))
        assert probe.CURRENT is None
        assert result.value is not None

    def test_double_install_rejected(self):
        with critpath.recording() as rec:
            with pytest.raises(SimulationError):
                with critpath.recording():
                    pass
            assert probe.CURRENT is not None and probe.CURRENT.schedule is rec
        assert probe.CURRENT is None

    def test_extract_flags_untiled_schedule(self):
        rec = ScheduleRecorder()
        rec.on_busy(0, 5.0, 10.0)  # gap before t=5 on the only processor
        with pytest.raises(SimulationError, match="tile"):
            extract(rec, 10.0)

    def test_extract_flags_missing_finisher(self):
        rec = ScheduleRecorder()
        rec.on_busy(0, 0.0, 4.0)
        with pytest.raises(SimulationError, match="makespan"):
            extract(rec, 10.0)

    def test_extract_flags_wait_without_src(self):
        rec = ScheduleRecorder()
        rec.on_busy(0, 0.0, 4.0)
        rec.on_wait(0, LOCK_WAIT, 4.0, 10.0, via="heap", src=-1)
        with pytest.raises(SimulationError, match="waker"):
            extract(rec, 10.0)

    def test_empty_run_empty_path(self):
        path = extract(ScheduleRecorder(), 0.0)
        assert path.steps == ()
        assert path.length == 0.0


# ---------------------------------------------------------------------------
# Determinism: same seed, same bytes.
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_report_bytes_identical_across_runs(self):
        texts = []
        for _ in range(2):
            _, rec, result = _record_run()
            path = extract(rec, result.sim_time)
            texts.append(render_report(path, title="G1 sim P=2"))
        assert texts[0] == texts[1]

    def test_report_matches_golden(self, recorded):
        _, _, _, path = recorded
        _check_golden(GOLDEN_REPORT, render_report(path, title="G1 sim P=2"))

    def test_overlay_trace_matches_golden(self, recorded):
        bus, rec, result, path = recorded
        text = render_chrome_trace(
            bus.events,
            report=result.report,
            schedule=rec.intervals,
            metadata={"workload": "G1", "seed": _SEED, "n_processors": 2},
            critpath=path,
        )
        _check_golden(GOLDEN_OVERLAY, text)

    def test_gantt_overlay_matches_golden(self, recorded):
        _, rec, result, path = recorded
        text = render_gantt(result.report, rec.intervals, critpath=path)
        _check_golden(GOLDEN_GANTT, text + "\n")

    def test_overlay_rows_live_in_their_own_process_group(self, recorded):
        bus, rec, result, path = recorded
        payload = json.loads(
            render_chrome_trace(
                bus.events, report=result.report, schedule=rec.intervals, critpath=path
            )
        )
        overlay = [e for e in payload["traceEvents"] if e.get("cat") == "critpath"]
        assert overlay, "no overlay rows emitted"
        assert all(e["pid"] == 1 for e in overlay)
        x_rows = [e for e in overlay if e["ph"] == "X"]
        assert sum(e["dur"] for e in x_rows) == pytest.approx(path.length)
        assert any(e["ph"] == "i" for e in overlay) == bool(path.handoffs)

    def test_overlay_absent_without_critpath(self, recorded):
        bus, rec, result, _ = recorded
        payload = json.loads(
            render_chrome_trace(bus.events, report=result.report, schedule=rec.intervals)
        )
        assert not any(e.get("cat") == "critpath" for e in payload["traceEvents"])

    def test_bus_events_mirror_the_path(self, recorded):
        _, _, _, path = recorded
        events = bus_events(path)
        assert len(events) == len(path.steps)
        assert all(e.etype == EV_CRIT_SEGMENT for e in events)
        assert sum(float(e.data["credit"]) for e in events) == pytest.approx(  # type: ignore[arg-type]
            path.length
        )


# ---------------------------------------------------------------------------
# What-if: Coz-style virtual speedups vs genuine perturbed re-runs.
# ---------------------------------------------------------------------------


class TestWhatIf:
    def test_perturbed_scales_only_named_fields(self):
        cm = whatif.perturbed(DEFAULT_COST_MODEL, "static_eval", 0.5)
        assert cm.static_eval == DEFAULT_COST_MODEL.static_eval * 0.5
        assert cm.heap_op == DEFAULT_COST_MODEL.heap_op
        cm = whatif.perturbed(DEFAULT_COST_MODEL, "expansion", 0.0)
        assert cm.expand_base == 0.0 and cm.expand_per_child == 0.0

    def test_perturbed_rejects_unknown_primitive(self):
        with pytest.raises(SimulationError, match="unknown cost primitive"):
            whatif.perturbed(DEFAULT_COST_MODEL, "telepathy", 0.5)

    def test_perturbed_rejects_negative_factor(self):
        with pytest.raises(SimulationError, match="non-negative"):
            whatif.perturbed(DEFAULT_COST_MODEL, "static_eval", -0.1)

    def test_factor_one_skips_the_rerun(self):
        calls = []

        def runner(cm):
            calls.append(cm)
            return 123.0

        points = whatif.sweep(
            runner,
            {"static_eval": 40.0},
            100.0,
            primitives=["static_eval"],
            factors=[1.0],
            cost_model=DEFAULT_COST_MODEL,
        )
        assert calls == []
        assert points[0].actual_makespan == 100.0
        assert points[0].predicted_makespan == 100.0

    def test_prediction_formula(self):
        points = whatif.sweep(
            lambda cm: 70.0,
            {"static_eval": 40.0},
            100.0,
            primitives=["static_eval"],
            factors=[0.0, 0.5],
            cost_model=DEFAULT_COST_MODEL,
        )
        assert points[0].predicted_makespan == 60.0  # 100 - 1.0 * 40
        assert points[1].predicted_makespan == 80.0  # 100 - 0.5 * 40
        assert points[0].actual_makespan == 70.0
        assert points[0].prediction_error == -10.0

    def test_sweep_on_a_real_run_zeroed_primitive_speeds_up(self, recorded):
        _, _, result, path = recorded

        def rerun(cm):
            return parallel_er(
                _problem(), 2, config=ERConfig(serial_depth=2), cost_model=cm
            ).sim_time

        points = whatif.sweep(
            rerun,
            path.by_primitive(),
            result.sim_time,
            primitives=["static_eval"],
            factors=[0.0],
            cost_model=DEFAULT_COST_MODEL,
        )
        (point,) = points
        assert point.attributed > 0.0
        assert point.actual_makespan < point.base_makespan
        assert point.actual_speedup > 1.0

    def test_records_are_flat_and_complete(self):
        points = whatif.sweep(
            lambda cm: 70.0,
            {"heap_op": 5.0},
            100.0,
            primitives=["heap_op"],
            factors=[0.0],
            cost_model=DEFAULT_COST_MODEL,
        )
        (record,) = whatif.to_records(points)
        assert set(record) == {
            "primitive",
            "factor",
            "base_makespan",
            "attributed",
            "predicted_makespan",
            "actual_makespan",
            "predicted_speedup",
            "actual_speedup",
        }

    def test_render_table_is_deterministic(self):
        points = whatif.sweep(
            lambda cm: 70.0,
            {"heap_op": 5.0},
            100.0,
            primitives=["heap_op"],
            factors=[0.0, 0.5],
            cost_model=DEFAULT_COST_MODEL,
        )
        assert whatif.render_table(points) == whatif.render_table(points)
        assert "predicted" in whatif.render_table(points).splitlines()[1]

    def test_attribution_map_names_real_loss_classes(self):
        gc.collect()  # frees any op class whose declaration raised
        assert {op.loss for op in Op.__subclasses__()} <= {"busy", "interference", "starvation"}


# ---------------------------------------------------------------------------
# Ledger integration: critpath composition + whatif points round-trip.
# ---------------------------------------------------------------------------


class TestLedgerIntegration:
    def _record(self, recorded, whatif_points=None):
        bus, _, result, path = recorded
        snap = snapshot_from_sim(
            result, workload="G1", bus=bus, critpath=path.composition(),
            serial_time=alphabeta(_problem()).cost,
        )
        return ledger.make_record(
            snap, workload="G1", seed=_SEED, git_sha="deadbeef", whatif=whatif_points
        )

    def test_record_with_critpath_and_whatif_validates(self, recorded):
        points = [
            {
                "primitive": "static_eval",
                "factor": 0.0,
                "predicted_makespan": 10.0,
                "actual_makespan": 11.0,
            }
        ]
        record = self._record(recorded, whatif_points=points)
        assert ledger.validate_record(record) == []
        assert record["whatif"] == points
        assert "critpath" in record["snapshot"]  # type: ignore[operator]

    def test_whatif_omitted_when_not_given(self, recorded):
        record = self._record(recorded)
        assert "whatif" not in record
        assert ledger.validate_record(record) == []

    def test_malformed_whatif_flagged(self, recorded):
        record = self._record(recorded, whatif_points=[{"primitive": "x"}])
        problems = ledger.validate_record(record)
        assert any("whatif[0] missing field" in p for p in problems)

    def test_compare_flags_composition_shift(self, recorded):
        base = self._record(recorded)
        cand = json.loads(json.dumps(base))
        comp = cand["snapshot"]["critpath"]
        makespan = comp["makespan"]
        # Move 20% of the makespan onto heap_op, away from static_eval.
        comp["primitive.heap_op"] = comp.get("primitive.heap_op", 0.0) + 0.2 * makespan
        comp["primitive.static_eval"] -= 0.2 * makespan
        report = ledger.compare_records(base, cand, tolerance=0.10)
        assert any("critpath share heap_op" in r for r in report.regressions)
        assert any("critpath share static_eval" in i for i in report.improvements)

    def test_compare_notes_missing_baseline_critpath(self, recorded):
        cand = self._record(recorded)
        base = json.loads(json.dumps(cand))
        del base["snapshot"]["critpath"]
        report = ledger.compare_records(base, cand)
        assert report.ok
        assert any("no critical-path data" in n for n in report.notes)

    def test_aggregate_series_per_configuration(self, recorded, tmp_path):
        record = self._record(recorded)
        ledger.write_record(record, tmp_path, name="a")
        newer = json.loads(json.dumps(record))
        newer["created_at"] = float(record["created_at"]) + 60.0  # type: ignore[arg-type]
        newer["git_sha"] = "cafebabe"
        ledger.write_record(newer, tmp_path, name="b")
        payload = ledger.aggregate(tmp_path)
        series = payload["series"]
        (key,) = series.keys()  # type: ignore[union-attr]
        assert key == "sim/G1/reduced/P2"
        points = series[key]  # type: ignore[index]
        assert [p["git_sha"] for p in points] == ["deadbeef", "cafebabe"]
        for point in points:
            assert point["makespan"] > 0
            assert point["nodes"] > 0
            assert 0.0 < point["efficiency"] <= 1.0
        summaries = payload["records"]
        assert all("critpath" in s for s in summaries)  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Surfaces: gantt overlay and the explain CLI.
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_gantt_overlay_marks_the_path(self, recorded):
        _, rec, result, path = recorded
        plain = render_gantt(result.report, rec.intervals, width=48)
        overlaid = render_gantt(result.report, rec.intervals, width=48, critpath=path)
        assert "^" not in plain
        assert "^" in overlaid
        assert "^ critical path" in overlaid
        # One marker row under each processor row.
        assert len(overlaid.splitlines()) == len(plain.splitlines()) + len(
            result.report.processors
        )

    def test_cli_explain_acceptance(self, capsys):
        assert main(["explain", "--workload", "R3", "--P", "4", "--skip-whatif"]) == 0
        out = capsys.readouterr().out
        assert "critical path: R3 sim P=4" in out
        assert "== makespan (exact)" in out
        assert "attribution by primitive" in out
        assert "blame by node" in out

    def test_cli_explain_output_is_deterministic(self, capsys):
        assert main(["explain", "--workload", "R3", "-P", "2", "--skip-whatif"]) == 0
        first = capsys.readouterr().out
        assert main(["explain", "--workload", "R3", "-P", "2", "--skip-whatif"]) == 0
        assert capsys.readouterr().out == first

    def test_cli_gantt_critpath_flag(self, capsys):
        assert main(["explain", "--tree", "R3", "-P", "2", "--gantt", "--skip-whatif"]) == 0
        out = capsys.readouterr().out
        assert "^" in out and "critical path" in out

    def test_cli_explain_whatif_writes_ledger_and_trace(self, capsys, tmp_path):
        trace_out = tmp_path / "explain.trace.json"
        assert (
            main(
                [
                    "explain",
                    "--workload",
                    "R3",
                    "--P",
                    "2",
                    "--factors",
                    "0.0",
                    "--trace-out",
                    str(trace_out),
                    "--ledger-dir",
                    str(tmp_path / "ledger"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "what-if causal profile" in out
        (record_path,) = (tmp_path / "ledger").glob("*.json")
        record = json.loads(record_path.read_text())
        primitives = {p["primitive"] for p in record["whatif"]}
        assert primitives == {"static_eval", "heap_op", "expansion"}
        assert "critpath" in record["snapshot"]
        payload = json.loads(trace_out.read_text())
        assert any(e.get("cat") == "critpath" for e in payload["traceEvents"])
        assert Path(f"{trace_out}.jsonl").read_text().strip()

