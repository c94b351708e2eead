#!/usr/bin/env python3
"""Anatomy of imperfect efficiency (the paper's Section 3.1).

For one tree, split each processor count's time budget (processors x
makespan) into its five conserved parts: mandatory work (positions serial
alpha-beta also examines), speculative work (positions it does not),
overhead (heap, bookkeeping, combine, table operations), starvation
(idle, empty heap) and interference (lock waits).  Rendered as ASCII
stacked bars that always fill the budget.

Run:  python examples/loss_anatomy.py [--tree R1] [--scale reduced]
"""

from __future__ import annotations

import argparse

from repro import loss_report, parallel_er
from repro.analysis.experiments import er_config_for, serial_baselines
from repro.obs import critpath
from repro.workloads.suite import table3_suite

#: One glyph per part, in bar order.
GLYPHS = {"mandatory": "#", "speculative": "~", "overhead": "+", "starving": ".", "lock": "!"}


def stacked_bar(shares: dict[str, float], width: int = 50) -> str:
    """Fill ``width`` cells in proportion to ``shares`` (they sum to 1)."""
    bar, edge, cumulative = "", 0, 0.0
    for name, share in shares.items():
        cumulative += share
        cells = round(width * cumulative) - edge
        bar += GLYPHS[name] * cells
        edge += cells
    return bar


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tree", default="R1", choices=["R1", "R2", "R3", "O1", "O2", "O3"])
    parser.add_argument("--scale", choices=("reduced", "paper"), default="reduced")
    args = parser.parse_args()

    spec = table3_suite(args.scale)[args.tree]
    print(f"tree {spec.name}: {spec.description} ({args.scale} scale)")
    print("reference: serial alpha-beta (defines mandatory work, Section 3.1)\n")

    base = serial_baselines(spec, trace=True)
    legend = "  ".join(f"{glyph} {name}" for name, glyph in GLYPHS.items())
    print(f"{'P':>3} {'efficiency':>10} {'remainder':>10}  time budget  [{legend}]")
    for n in (1, 2, 4, 8, 16):
        with critpath.recording() as recorder:
            result = parallel_er(spec.problem(), n, config=er_config_for(spec), trace=True)
        snap = loss_report(result, recorder.intervals, base.best_time, base.alphabeta.stats)
        shares = {
            "mandatory": snap.busy_fraction,
            "speculative": snap.speculative_fraction,
            "overhead": snap.overhead_fraction,
            "starving": snap.starvation_fraction,
            "lock": snap.interference_fraction,
        }
        assert abs(sum(shares.values()) - 1.0) <= 1e-9, shares
        efficiency = snap.efficiency
        assert efficiency is not None
        remainder = snap.busy_fraction - efficiency
        print(f"{n:>3} {efficiency:>10.3f} {remainder:>+10.3f}  {stacked_bar(shares)}")

    print("\nreading the paper's Section 7 in the bars:")
    print("  - the mandatory share shrinks as P grows, and speculative work")
    print("    (~) takes its place: idle processors start e-children early;")
    print("  - starvation appears when the mandatory frontier is thinner than P;")
    print("  - lock blocking grows with P (contention for heap and tree);")
    print("  - remainder = mandatory share - efficiency: the mandatory work's")
    print("    time against the best serial algorithm's, printed unclamped.")

    # And the same story per processor over time, as a schedule chart.
    from repro.analysis.gantt import render_gantt

    print("\nschedule of the 8-processor run:")
    timed = parallel_er(
        spec.problem(), 8, config=er_config_for(spec), record_timeline=True
    )
    print(render_gantt(timed.report, width=68))


if __name__ == "__main__":
    main()
