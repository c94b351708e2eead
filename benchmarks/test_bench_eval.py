"""Batched static evaluation: profile-guided prediction vs the real cut.

The what-if profiler predicted (from the base run's critical path alone)
how much makespan a cheaper ``static_eval`` primitive would buy; this PR
delivered the real cut — batched leaf evaluation plus the Zobrist-keyed
eval cache.  This exhibit closes the loop: it replays the fixed-seed R3
workload, computes the *effective* cost factor the batched subsystem
actually charged (speculative ordering prefetch evaluates whole frontier
batches while ER visits only the half it needs, so the effective factor
is far above the naive per-leaf rate ratio), feeds that factor through
the Coz-style virtual-speedup formula, and asserts the prediction lands
within 15% of the measured batched makespan.  The point pair is frozen
into a ledger record (``whatif``) so ``repro-gametree compare`` can diff
prediction quality across PRs.
"""

from __future__ import annotations

import dataclasses
import pathlib

from repro.analysis.experiments import er_config_for, serial_baselines
from repro.analysis.losses import loss_report
from repro.core.er_parallel import parallel_er
from repro.costmodel import DEFAULT_COST_MODEL
from repro.eval import make_eval_cache
from repro.obs import critpath, ledger, observing, whatif
from repro.workloads.suite import table3_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

N_PROCESSORS = 4
TOLERANCE = 0.15  # acceptance bound on |predicted - actual| / actual


def _eval_cost_charged(stats) -> float:
    """Total simulated time a run charged to static evaluation, in any form."""
    cm = DEFAULT_COST_MODEL
    return (
        stats.static_evals * cm.static_eval
        + stats.batch_calls * cm.batch_eval_base
        + stats.batch_leaves * cm.batch_eval_per_leaf
        + stats.eval_probes * cm.eval_cache_probe
        + stats.eval_stores * cm.eval_cache_store
    )


def test_eval_predicted_vs_actual(benchmark, scale, record_table):
    spec = table3_suite(scale)["R3"]
    problem = spec.problem()
    config = er_config_for(spec)

    def run():
        with observing() as bus, critpath.recording() as rec:
            base = parallel_er(problem, N_PROCESSORS, config=config, trace=True)
        path = critpath.extract(rec, base.sim_time)
        batched = parallel_er(problem, N_PROCESSORS, config=config, batch_eval=True)
        cached = parallel_er(
            problem,
            N_PROCESSORS,
            config=config,
            eval_cache=make_eval_cache("shared"),
            batch_eval=True,
        )
        return bus, rec, path, base, batched, cached

    bus, rec, path, base, batched, cached = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert path.length == base.sim_time
    assert batched.value == base.value
    assert cached.value == base.value

    attributed = path.by_primitive().get("static_eval", 0.0)
    base_eval_cost = _eval_cost_charged(base.stats)
    assert attributed > 0 and base_eval_cost > 0

    # Effective factor: what the batched run actually charged for
    # evaluation, as a fraction of the base run's charge.  This is the
    # honest input to the Coz formula — the naive per-leaf rate ratio
    # ignores speculative over-evaluation (ordering prefetch batches all
    # children of every visited horizon-1 node; ER then visits ~half).
    points = []
    for name, result in (("batch_eval", batched), ("batch+cache", cached)):
        factor = _eval_cost_charged(result.stats) / base_eval_cost
        predicted = base.sim_time - (1.0 - factor) * attributed
        points.append(
            whatif.WhatIfPoint(
                primitive=name,
                factor=round(factor, 4),
                base_makespan=base.sim_time,
                attributed=attributed,
                predicted_makespan=predicted,
                actual_makespan=result.sim_time,
            )
        )

    lines = [
        f"{spec.name} sim P={N_PROCESSORS} ({scale} scale)  "
        f"base makespan={base.sim_time:g}  attributed(static_eval)={attributed:g}"
    ]
    for p in points:
        err = abs(p.predicted_makespan - p.actual_makespan) / p.actual_makespan
        lines.append(
            f"{p.primitive:12s} factor={p.factor:.3f}  "
            f"predicted={p.predicted_makespan:.1f}  actual={p.actual_makespan:.1f}  "
            f"err={err:.1%}"
        )
    record_table("eval_predicted_vs_actual", "\n".join(lines))

    benchmark.extra_info["base_makespan"] = base.sim_time
    benchmark.extra_info["attributed_static_eval"] = attributed
    benchmark.extra_info["points"] = [p.to_record() for p in points]

    # The real cut beats the base run, and the frozen-schedule prediction
    # built from the effective factor lands within the acceptance bound.
    for p in points:
        assert p.actual_makespan < p.base_makespan
        error = abs(p.predicted_makespan - p.actual_makespan) / p.actual_makespan
        assert error <= TOLERANCE, (
            f"{p.primitive}: predicted {p.predicted_makespan:.1f} vs actual "
            f"{p.actual_makespan:.1f} ({error:.1%} > {TOLERANCE:.0%})"
        )

    # Freeze the pair into the committed ledger so compare can diff
    # prediction quality across PRs (distinct name: the critpath
    # benchmark owns the plain sim_R3_P4 record at this SHA).
    serial = serial_baselines(spec, trace=True)
    snap = dataclasses.replace(
        loss_report(
            base, rec.intervals, serial.best_time, serial.alphabeta.stats,
            workload=spec.name, bus=bus,
        ),
        critpath=path.composition(),
    )
    violations = snap.check_accounting()
    assert violations == [], "\n".join(violations)
    record = ledger.make_record(
        snap,
        workload=spec.name,
        scale=scale,
        seed=spec.seed,
        config={
            "serial_depth": spec.serial_depth,
            "sort_below_root": spec.sort_below_root,
            "tt": "off",
            "eval_cache": "shared",
            "batch_eval": True,
        },
        cost_model=dataclasses.asdict(DEFAULT_COST_MODEL),
        whatif=whatif.to_records(points),
    )
    problems = ledger.validate_record(record)
    assert problems == [], "\n".join(problems)
    root = REPO_ROOT
    ledger_path = ledger.write_record(
        record,
        root / "results" / "ledger",
        name=ledger.record_name(record) + "_evalbatch",
    )
    ledger.aggregate(root / "results" / "ledger", out_path=root / "BENCH_obs.json")
    benchmark.extra_info["ledger"] = ledger_path.name
