"""Simulated-backend observability benchmark: snapshot + ledger record.

Runs the fixed-seed R3 tree on the discrete-event engine under the
telemetry bus and freezes the result into a run-ledger record (and the
aggregated ``BENCH_obs.json``).  Because the simulator is deterministic,
the recorded snapshot is machine-independent: every field except
``created_at``/``git_sha`` is identical across reruns, which is what
makes ``repro-gametree compare`` against a committed baseline meaningful
in CI.

The benchmark also pins the paper's Section 3.1 accounting exactly: per
processor, mandatory + speculative + overhead + interference + starvation
must equal the processor's finish time, and adding tail idle must reach
the makespan.
"""

from __future__ import annotations

from repro.analysis.experiments import er_config_for, serial_baselines
from repro.analysis.losses import loss_report
from repro.core.er_parallel import parallel_er
from repro.obs import critpath, observing
from repro.workloads.suite import table3_suite

N_PROCESSORS = 4


def test_sim_observed(benchmark, scale, record_ledger):
    spec = table3_suite(scale)["R3"]
    problem = spec.problem()
    config = er_config_for(spec)

    def run():
        with observing() as bus, critpath.recording() as recorder:
            result = parallel_er(problem, N_PROCESSORS, config=config, trace=True)
        return bus, result, recorder

    bus, result, recorder = benchmark.pedantic(run, rounds=1, iterations=1)
    base = serial_baselines(spec, trace=True)
    snap = loss_report(
        result, recorder.intervals, base.best_time, base.alphabeta.stats,
        workload=spec.name, bus=bus,
    )

    violations = snap.check_accounting()
    assert violations == [], "\n".join(violations)

    path = record_ledger(
        snap,
        workload=spec.name,
        scale=scale,
        seed=spec.seed,
        config={
            "serial_depth": spec.serial_depth,
            "sort_below_root": spec.sort_below_root,
        },
    )
    benchmark.extra_info["ledger"] = path.name
    benchmark.extra_info["makespan"] = snap.makespan
    benchmark.extra_info["events"] = len(bus.events)
    benchmark.extra_info["fractions"] = {
        "starvation": round(snap.starvation_fraction, 4),
        "interference": round(snap.interference_fraction, 4),
        "speculative": round(snap.speculative_fraction, 4),
        "overhead": round(snap.overhead_fraction, 4),
    }
