"""Critical-path observability benchmark: extraction cost + blame table.

Runs the fixed-seed R3 tree on the discrete-event engine with the
schedule recorder installed, extracts the exact critical path, and
freezes the per-primitive blame decomposition into a ledger record
(so ``repro-gametree compare`` can diff critical-path composition
across PRs) and a rendered report under ``benchmarks/results/``.

The timed region includes both the recorded run and the backward path
walk, so the number also tracks the recording/extraction overhead the
``explain`` subcommand pays on top of a plain simulated run.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.experiments import er_config_for, serial_baselines
from repro.analysis.losses import loss_report
from repro.core.er_parallel import parallel_er
from repro.obs import critpath, observing
from repro.workloads.suite import table3_suite

N_PROCESSORS = 4


def test_sim_critpath(benchmark, scale, record_table, record_ledger):
    spec = table3_suite(scale)["R3"]
    problem = spec.problem()
    config = er_config_for(spec)

    def run():
        with observing() as bus, critpath.recording() as rec:
            result = parallel_er(problem, N_PROCESSORS, config=config, trace=True)
        return bus, rec, result

    bus, rec, result = benchmark.pedantic(run, rounds=1, iterations=1)
    path = critpath.extract(rec, result.sim_time)
    assert path.length == result.sim_time

    record_table(
        "critpath_R3",
        critpath.render_report(
            path, title=f"{spec.name} sim P={N_PROCESSORS} ({scale} scale)"
        ).rstrip("\n"),
    )

    serial = serial_baselines(spec, trace=True)
    snap = dataclasses.replace(
        loss_report(
            result, rec.intervals, serial.best_time, serial.alphabeta.stats,
            workload=spec.name, bus=bus,
        ),
        critpath=path.composition(),
    )
    violations = snap.check_accounting()
    assert violations == [], "\n".join(violations)
    ledger_path = record_ledger(
        snap,
        workload=spec.name,
        scale=scale,
        seed=spec.seed,
        config={
            "serial_depth": spec.serial_depth,
            "sort_below_root": spec.sort_below_root,
        },
    )

    blame = path.by_primitive()
    benchmark.extra_info["ledger"] = ledger_path.name
    benchmark.extra_info["makespan"] = path.makespan
    benchmark.extra_info["path_steps"] = len(path.steps)
    benchmark.extra_info["handoffs"] = path.handoff_counts()
    benchmark.extra_info["top_primitives"] = {
        name: round(credit, 4)
        for name, credit in sorted(blame.items(), key=lambda kv: -kv[1])[:3]
    }
