"""Tests for the command-line interface."""

import json

import pytest

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

    def test_losses_command(self, capsys):
        assert main(["losses", "--tree", "R3", "-P", "2"]) == 0
        out = capsys.readouterr().out
        assert "speculative fraction" in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_gantt_command(self, capsys):
        assert main(["gantt", "--tree", "R3", "-P", "4", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out and "legend" in out

    def test_baselines_command(self, capsys):
        assert main(["baselines", "--processors", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "aspiration" in out and "MWF" in out


class TestObservability:
    def test_trace_args(self):
        args = build_parser().parse_args(["trace", "--tree", "R1", "-P", "2"])
        assert args.tree == "R1"
        assert args.processors_single == 2
        assert args.backend == "sim"

    def test_trace_writes_trace_jsonl_and_ledger(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    "trace",
                    "--tree",
                    "R3",
                    "-P",
                    "2",
                    "-o",
                    str(out),
                    "--jsonl",
                    "--ledger-dir",
                    str(tmp_path / "ledger"),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert out.with_suffix(".jsonl").exists()
        records = list((tmp_path / "ledger").glob("*.json"))
        assert len(records) == 1
        assert "perfetto" in capsys.readouterr().out.lower()

    def test_compare_identical_runs_report_no_regressions(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        for name in ("a", "b"):
            assert (
                main(
                    [
                        "trace",
                        "--tree",
                        "R3",
                        "-P",
                        "2",
                        "-o",
                        str(tmp_path / f"{name}.trace.json"),
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
                    "trace",
                    "--tree",
                    "R3",
                    "-P",
                    "2",
                    "-o",
                    str(tmp_path / "base.trace.json"),
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
