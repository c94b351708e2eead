"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "11", "--scale", "reduced"])
        assert args.number == 11
        assert args.scale == "reduced"

    def test_figure_rejects_unknown_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_serial_command(self, capsys):
        assert main(["serial", "--tree", "R3", "--scale", "reduced"]) == 0
        out = capsys.readouterr().out
        assert "alpha-beta" in out and "serial ER" in out and "best serial" in out

    def test_figure_command_small_sweep(self, capsys):
        assert main(["figure", "11", "--processors", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "R1" in out and "efficiency" in out.lower()

    def test_nodes_figure(self, capsys):
        assert main(["figure", "13", "--processors", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "nodes generated" in out.lower()

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_gantt_command(self, capsys):
        assert main(["explain", "--tree", "R3", "-P", "4", "--gantt", "--skip-whatif"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out and "legend" in out

    def test_baselines_command(self, capsys):
        assert main(["baselines", "--processors", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "aspiration" in out and "MWF" in out


class TestExplain:
    """``explain`` is the one report of where a run's time went."""

    @pytest.mark.parametrize("name", ["trace", "gantt", "losses"])
    def test_folded_commands_are_gone(self, name):
        with pytest.raises(SystemExit):
            build_parser().parse_args([name])

    def test_explain_args(self):
        args = build_parser().parse_args(["explain", "--tree", "R1", "-P", "2"])
        assert args.tree == "R1"
        assert args.processors_single == 2
        assert args.backend == "sim"
        assert args.trace == "off"
        assert args.gantt is False

    @staticmethod
    def _split(out: str) -> tuple[float, dict[str, float]]:
        """(processor-time, {part: amount}) parsed from the printed split."""
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("time split"))
        total = float(lines[start].rsplit("=", 1)[1].rstrip("):"))
        parts = {}
        for line in lines[start + 1 :]:
            name, amount, *_ = line.split()
            if amount != "not":
                parts[name] = float(amount)
            if name == "sum":
                return total, parts
        raise AssertionError("split has no sum row")

    def test_sim_split_is_conserved(self, capsys):
        assert main(["explain", "--workload", "R3", "--P", "4", "--skip-whatif"]) == 0
        out = capsys.readouterr().out
        total, parts = self._split(out)
        names = {"mandatory", "speculative", "overhead", "starvation", "interference"}
        assert set(parts) == names | {"sum"}
        accounted = sum(parts[name] for name in names)
        assert abs(accounted / total - 1.0) <= 1e-9
        assert abs(parts["sum"] / total - 1.0) <= 1e-9
        # Efficiency and the unclamped remainder follow the split.
        efficiency, remainder = re.search(
            r"^efficiency (\S+)  remainder (\S+)$", out, re.MULTILINE
        ).groups()
        mandatory_share = parts["mandatory"] / total
        assert float(remainder) == pytest.approx(mandatory_share - float(efficiency), abs=2e-6)

    def test_sim_rejects_span_tracing(self, capsys):
        assert main(["explain", "--trace", "sampled", "--skip-whatif"]) == 2
        assert "real backends only" in capsys.readouterr().err

    def test_gantt_needs_the_sim_backend(self, capsys):
        assert main(["explain", "--backend", "threaded", "--gantt"]) == 2
        assert "--gantt" in capsys.readouterr().err

    def test_threaded_prints_split(self, capsys):
        assert main(["explain", "--backend", "threaded", "-P", "2"]) == 0
        out = capsys.readouterr().out
        total, parts = self._split(out)
        assert set(parts) == {"busy", "starvation", "interference", "sum"}
        assert "speculative   not separated (item 4)" in out
        assert "critical path" not in out

    def test_multiproc_writes_trace_jsonl_record_and_split(self, tmp_path, capsys):
        from repro.obs import ledger

        out_path = tmp_path / "mp.trace.json"
        ledger_dir = tmp_path / "ledger"
        argv = [
            "explain", "--backend", "multiproc", "-P", "2", "--trace", "sampled",
            "--trace-out", str(out_path), "--ledger-dir", str(ledger_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        events = json.loads(out_path.read_text())["traceEvents"]
        rows = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        workers = {name for name in rows if name.startswith("worker ")}
        assert len(workers) == 2 and all("(os pid " in name for name in workers)
        assert Path(f"{out_path}.jsonl").read_text().strip()
        (record_path,) = ledger_dir.glob("*.json")
        assert ledger.validate_record(json.loads(record_path.read_text())) == []
        total, parts = self._split(out)
        assert {"busy", "starvation", "interference", "sum"} == set(parts)
        assert "perfetto" in out.lower()


class TestObservability:
    def test_compare_identical_runs_report_no_regressions(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        for name in ("a", "b"):
            assert (
                main(
                    [
                        "explain",
                        "--tree",
                        "R3",
                        "-P",
                        "2",
                        "--skip-whatif",
                        "--ledger-dir",
                        str(ledger_dir / name),
                    ]
                )
                == 0
            )
        first = next((ledger_dir / "a").glob("*.json"))
        second = next((ledger_dir / "b").glob("*.json"))
        assert main(["compare", str(first), str(second)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_regression_and_warn_only(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        assert (
            main(
                [
                    "explain",
                    "--tree",
                    "R3",
                    "-P",
                    "2",
                    "--skip-whatif",
                    "--ledger-dir",
                    str(ledger_dir),
                ]
            )
            == 0
        )
        baseline = next(ledger_dir.glob("*.json"))
        worse = json.loads(baseline.read_text())
        worse["snapshot"]["work"]["nodes_examined"] *= 2
        worse_path = tmp_path / "worse.json"
        worse_path.write_text(json.dumps(worse))
        assert main(["compare", str(baseline), str(worse_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert (
            main(["compare", str(baseline), str(worse_path), "--warn-only"]) == 0
        )

    def test_compare_unknown_operand_exits_2(self, tmp_path, capsys):
        assert (
            main(
                ["compare", "feedface", "cafebabe", "--ledger-dir", str(tmp_path)]
            )
            == 2
        )

    def test_speedup_obs_writes_ledger_records(self, tmp_path, capsys):
        assert (
            main(
                [
                    "speedup",
                    "--backend",
                    "sim",
                    "--tree",
                    "R3",
                    "--processors",
                    "1",
                    "2",
                    "--obs",
                    "--obs-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        records = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(records) == 2
        assert any("sim_R3_P1" in name for name in records)
        assert any("sim_R3_P2" in name for name in records)
        assert "ledger:" in capsys.readouterr().out


class TestProfileService:
    def test_bench_traffic_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-traffic"])

    def test_shutdown_needs_connect(self, capsys):
        assert main(["profile-service", "--shutdown"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_in_process(self, capsys):
        assert main(["profile-service", "--requests", "4", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "errors 0" in out
        assert "decomposed requests: 4" in out
        assert "dominant tail stage" in out

    def test_remote_run_then_shutdown_drains_the_server(self, capsys):
        path = [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()  # "serving ... on HOST:PORT"
            address = banner.split()[-1]
            assert main(
                ["profile-service", "--connect", address, "--requests", "4", "--shutdown"]
            ) == 0
            rest, _ = server.communicate(timeout=60)
        finally:
            server.kill()
        out = capsys.readouterr().out
        assert "errors 0" in out
        assert "decomposed requests: 4" in out
        assert "sent shutdown" in out
        assert server.returncode == 0
        assert "drained: 4 completed, 0 shed of 4 submitted" in rest


class TestVerify:
    def test_verify_args(self):
        args = build_parser().parse_args(["verify", "--fast"])
        assert args.fast is True

    def test_verify_command_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "every seeded race is caught" in out
        assert "verify: OK" in out

    def test_verify_deep_args(self):
        # The flow analysis always runs; its old opt-in flag is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--fast", "--deep"])

    def test_verify_command_deep(self, capsys, tmp_path):
        # The whole-program flow analysis and its self-test run on every
        # verify, and ``--sarif-out`` writes its findings.
        sarif = tmp_path / "flow.sarif"
        assert main(["verify", "--fast", "--sarif-out", str(sarif)]) == 0
        out = capsys.readouterr().out
        assert "no non-baselined findings" in out
        assert "seeded concurrency bugs caught" in out
        assert "verify: OK" in out
        assert sarif.exists()
        data = json.loads(sarif.read_text())
        assert data["runs"][0]["tool"]["driver"]["name"] == "repro-flow"
