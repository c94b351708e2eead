"""Whole-program concurrency analyzer for the parallel ER engine.

``repro.verify.flow`` is the one static check of the problem heap's
locking protocol (DESIGN.md §6): it builds a project index over the
parallel engine, its queues, and the striped cache store, then
abstractly interprets the worker generators — locksets across helper
calls and generator delegation (VER101/VER105), the
lock-acquisition-order graph (VER103), a static Eraser-style
shared-write guard discipline in which tree-node state needs the tree
lock (VER102), and charge/protocol conformance for the simulated ops
(VER104).

Run it via ``repro-gametree verify``, pre-commit, or directly::

    PYTHONPATH=src python -m repro.verify.flow [--sarif out.sarif]

Findings carry line-independent fingerprints; known-accepted ones live
in the committed baseline (``verify_flow_baseline.json``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from .callgraph import (
    ANALYZED_MODULES,
    DEFAULT_ENTRY_NAMES,
    Project,
    load_project,
    project_from_sources,
)
from .escape import WriteRecord, aggregate_writes
from .lockset import Analysis, analyze_project, canonical_token, lock_category
from .model import RULES, FlowFinding
from .summaries import (
    LockSummary,
    check_compute_tags,
    check_op_conformance,
    tag_vocabulary,
)

__all__ = [
    "ANALYZED_MODULES",
    "Analysis",
    "FlowFinding",
    "LockSummary",
    "Project",
    "RULES",
    "WriteRecord",
    "aggregate_writes",
    "analyze_project",
    "analyze_repo",
    "analyze_sources",
    "canonical_token",
    "check_compute_tags",
    "check_op_conformance",
    "load_project",
    "lock_category",
    "project_from_sources",
    "repo_root",
    "tag_vocabulary",
]

#: Declaring modules for the conformance checks (repo-relative).
_COSTMODEL = "src/repro/costmodel.py"
_WHATIF = "src/repro/obs/whatif.py"
_ENGINE = "src/repro/sim/engine.py"


def repo_root() -> Path:
    """The repository root (four levels above this package)."""
    return Path(__file__).resolve().parents[4]


def _read(root: Path, rel: str) -> Optional[str]:
    path = root / rel
    return path.read_text() if path.exists() else None


def analyze_repo(root: Optional[Path] = None) -> list[FlowFinding]:
    """Full analysis of the repository tree: interpretation + conformance."""
    base = root if root is not None else repo_root()
    project = load_project(base)
    findings = analyze_project(project)
    costmodel = _read(base, _COSTMODEL)
    whatif = _read(base, _WHATIF)
    if costmodel is not None and whatif is not None:
        vocab = tag_vocabulary(costmodel, whatif)
        findings.extend(check_compute_tags(project, vocab))
    engine = _read(base, _ENGINE)
    if engine is not None:
        findings.extend(check_op_conformance(project, engine))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.signature))


def analyze_sources(
    sources: dict[str, str],
    entry_names: Iterable[str] = DEFAULT_ENTRY_NAMES,
    vocab: Optional[frozenset[str]] = None,
) -> list[FlowFinding]:
    """Analysis over in-memory sources (fixtures and mutation self-tests).

    The op-conformance check, which needs the engine's source, is
    skipped; Compute-tag checks run when ``vocab`` is given.
    """
    project = project_from_sources(sources)
    findings = analyze_project(project, tuple(entry_names))
    if vocab is not None:
        findings.extend(check_compute_tags(project, vocab))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.signature))
