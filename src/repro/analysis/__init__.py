"""Loss decomposition and paper-figure experiment runners."""

from .experiments import (
    ScalingCurve,
    ScalingPoint,
    SerialBaselines,
    cached_curve,
    er_config_for,
    er_scaling_curve,
    figure10,
    figure11,
    figure12,
    figure13,
    format_efficiency_table,
    format_nodes_table,
    format_speedup_summary,
    serial_baselines,
)
from .gantt import render_gantt
from .report import ReproductionReport, build_report
from .losses import BusySplit, WorkClassification, classify_work, loss_report
from .tree_stats import (
    BranchingProfile,
    OrderingQuality,
    branching_profile,
    ordering_quality,
)

__all__ = [
    "SerialBaselines",
    "ScalingCurve",
    "ScalingPoint",
    "serial_baselines",
    "er_scaling_curve",
    "er_config_for",
    "cached_curve",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "format_efficiency_table",
    "format_nodes_table",
    "format_speedup_summary",
    "BusySplit",
    "WorkClassification",
    "classify_work",
    "loss_report",
    "OrderingQuality",
    "BranchingProfile",
    "ordering_quality",
    "branching_profile",
    "render_gantt",
    "build_report",
    "ReproductionReport",
]
