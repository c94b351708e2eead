"""Experiment runners that regenerate the paper's figures and tables.

Each paper exhibit has a function here producing the same rows/series the
paper reports; the benchmark suite and the CLI are thin wrappers over
these.  Results are memoized per (scale, tree, processors) within the
process so that Figure 10/12 (and 11/13) pairs, which share runs, do not
recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.er_parallel import ERConfig, parallel_er
from ..core.serial_er import er_search
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..parallel.base import ParallelResult
from ..search.alphabeta import alphabeta
from ..search.stats import SearchResult, SearchStats
from ..workloads.suite import PROCESSOR_COUNTS, TreeSpec, table3_suite


@dataclass(frozen=True)
class SerialBaselines:
    """Both serial algorithms on one tree; speedups are relative to the
    faster one (Fishburn's definition, paper Section 3)."""

    alphabeta: SearchResult
    er: SearchResult

    @property
    def best_time(self) -> float:
        return min(self.alphabeta.cost, self.er.cost)

    @property
    def best_name(self) -> str:
        return "alphabeta" if self.alphabeta.cost <= self.er.cost else "er"

    @property
    def alphabeta_efficiency(self) -> float:
        """The 'efficiency of serial alpha-beta' line of Figures 10-11."""
        return self.best_time / self.alphabeta.cost


@dataclass(frozen=True)
class ScalingPoint:
    """One processor count of an efficiency curve."""

    n_processors: int
    sim_time: float
    speedup: float
    efficiency: float
    nodes_generated: int
    nodes_examined: int
    extras: dict


@dataclass(frozen=True)
class ScalingCurve:
    """Figures 10-13 data for one tree."""

    tree: str
    serial: SerialBaselines
    points: tuple[ScalingPoint, ...]

    def efficiency_series(self) -> list[tuple[int, float]]:
        return [(p.n_processors, p.efficiency) for p in self.points]

    def nodes_series(self) -> list[tuple[int, int]]:
        return [(p.n_processors, p.nodes_generated) for p in self.points]


def serial_baselines(
    spec: TreeSpec, *, cost_model: CostModel = DEFAULT_COST_MODEL, trace: bool = False
) -> SerialBaselines:
    """Run serial alpha-beta (with deep cutoffs) and serial ER on a tree;
    ``trace`` logs alpha-beta's positions (:mod:`repro.analysis.losses`)."""
    problem = spec.problem()
    stats = SearchStats.with_trace(problem.game) if trace else None
    ab = alphabeta(problem, cost_model=cost_model, stats=stats)
    er = er_search(problem, cost_model=cost_model)
    if ab.value != er.value:
        raise AssertionError(
            f"serial algorithms disagree on {spec.name}: {ab.value} vs {er.value}"
        )
    return SerialBaselines(alphabeta=ab, er=er)


def er_config_for(spec: TreeSpec, **overrides) -> ERConfig:
    """The parallel-ER configuration Table 3 prescribes for a tree."""
    return ERConfig(serial_depth=spec.serial_depth, **overrides)


def er_scaling_curve(
    spec: TreeSpec,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    config: Optional[ERConfig] = None,
) -> ScalingCurve:
    """Run parallel ER across processor counts on one tree."""
    if config is None:
        config = er_config_for(spec)
    serial = serial_baselines(spec, cost_model=cost_model)
    points = []
    for n in processor_counts:
        result = parallel_er(spec.problem(), n, config=config, cost_model=cost_model)
        if result.value != serial.alphabeta.value:
            raise AssertionError(
                f"parallel ER wrong on {spec.name}@{n}: "
                f"{result.value} vs {serial.alphabeta.value}"
            )
        points.append(
            ScalingPoint(
                n_processors=n,
                sim_time=result.sim_time,
                speedup=result.speedup(serial.best_time),
                efficiency=result.efficiency(serial.best_time),
                nodes_generated=result.stats.nodes_generated,
                nodes_examined=result.stats.nodes_examined,
                extras=result.extras,
            )
        )
    return ScalingCurve(tree=spec.name, serial=serial, points=tuple(points))


# -- memoized per-figure entry points ----------------------------------------

_CURVE_CACHE: dict[tuple, ScalingCurve] = {}


def cached_curve(
    scale: str,
    tree: str,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ScalingCurve:
    key = (scale, tree, tuple(processor_counts))
    if key not in _CURVE_CACHE:
        spec = table3_suite(scale)[tree]
        _CURVE_CACHE[key] = er_scaling_curve(
            spec, processor_counts, cost_model=cost_model
        )
    return _CURVE_CACHE[key]


def figure10(scale: str = "reduced", processor_counts=PROCESSOR_COUNTS) -> dict[str, ScalingCurve]:
    """Efficiency of ER on the Othello trees (paper Figure 10)."""
    return {t: cached_curve(scale, t, processor_counts) for t in ("O1", "O2", "O3")}


def figure11(scale: str = "reduced", processor_counts=PROCESSOR_COUNTS) -> dict[str, ScalingCurve]:
    """Efficiency of ER on the random trees (paper Figure 11)."""
    return {t: cached_curve(scale, t, processor_counts) for t in ("R1", "R2", "R3")}


def figure12(scale: str = "reduced", processor_counts=PROCESSOR_COUNTS) -> dict[str, ScalingCurve]:
    """Nodes generated on the Othello trees (paper Figure 12)."""
    return figure10(scale, processor_counts)


def figure13(scale: str = "reduced", processor_counts=PROCESSOR_COUNTS) -> dict[str, ScalingCurve]:
    """Nodes generated on the random trees (paper Figure 13)."""
    return figure11(scale, processor_counts)


# -- text rendering -----------------------------------------------------------


def format_efficiency_table(curves: dict[str, ScalingCurve]) -> str:
    """Render Figure 10/11 data as the rows the paper plots."""
    counts = [p.n_processors for p in next(iter(curves.values())).points]
    header = "tree  serial-AB-eff  " + "  ".join(f"P={n:<4d}" for n in counts)
    lines = [header]
    for name, curve in sorted(curves.items()):
        cells = "  ".join(f"{p.efficiency:6.3f}" for p in curve.points)
        lines.append(f"{name:<4s}  {curve.serial.alphabeta_efficiency:13.3f}  {cells}")
    return "\n".join(lines)


def format_nodes_table(curves: dict[str, ScalingCurve]) -> str:
    """Render Figure 12/13 data: nodes generated per algorithm/processors."""
    counts = [p.n_processors for p in next(iter(curves.values())).points]
    header = (
        "tree  AB-nodes  serialER-nodes  " + "  ".join(f"P={n:<8d}" for n in counts)
    )
    lines = [header]
    for name, curve in sorted(curves.items()):
        cells = "  ".join(f"{p.nodes_generated:10d}" for p in curve.points)
        lines.append(
            f"{name:<4s}  {curve.serial.alphabeta.stats.nodes_generated:8d}  "
            f"{curve.serial.er.stats.nodes_generated:14d}  {cells}"
        )
    return "\n".join(lines)


def format_speedup_summary(curves: dict[str, ScalingCurve]) -> str:
    """The paper's headline numbers: speedup and efficiency at 16."""
    lines = []
    for name, curve in sorted(curves.items()):
        last = curve.points[-1]
        lines.append(
            f"{name}: speedup {last.speedup:.1f} at P={last.n_processors} "
            f"(efficiency {last.efficiency:.2f}; best serial: {curve.serial.best_name})"
        )
    return "\n".join(lines)
