"""Call summaries and protocol-conformance checks (VER104).

Two things live here:

* :class:`LockSummary` — the memoized effect of analyzing one function
  under one calling context (entry lockset + shared-parameter binding).
  Summaries are what make the lockset interpretation interprocedural:
  a helper analyzed once per context replays its net effects (exit
  lockset, queue traffic, simulated-time charges, sharedness of its
  return value) at every other call site for free.

* **Protocol conformance** — these checks start from the op kinds
  *actually yielded* by the analyzed worker code and verify that each
  one is handled by ``Engine._handle`` (an op the engine does not know
  raises ``WorkerProtocolError`` at run time; this finds it before any
  run); and that every ``Compute`` carries a cost tag
  drawn from the declared vocabulary (``CostModel`` field names, the
  what-if profiler's ``PRIMITIVE_FIELDS``, and the serial chunk tag) —
  an op or tag outside these would silently corrupt the loss
  decomposition every experiment reports.  (An op's metric and loss
  class are declared on its class, so they cannot be missing.)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from .callgraph import OP_CONSTRUCTORS, Project
from .model import FlowFinding


@dataclass(frozen=True)
class LockSummary:
    """Net effect of one function under one calling context."""

    exit_tokens: frozenset[str]
    queue_ops: bool
    computes: bool
    returns_shared: bool


#: The serial-subtree chunk tag (charged by ``_charge_serial``).
SERIAL_TAG = "serial"


def tag_vocabulary(costmodel_source: str, whatif_source: str) -> frozenset[str]:
    """Legal ``Compute(tag=...)`` values, from the declaring modules."""
    vocab: set[str] = {SERIAL_TAG}
    cm_tree = ast.parse(costmodel_source)
    for node in ast.walk(cm_tree):
        if isinstance(node, ast.ClassDef) and node.name == "CostModel":
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    vocab.add(item.target.id)
    for node in ast.parse(whatif_source).body:
        targets: list[ast.expr]
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        if isinstance(node.value, ast.Dict) and any(
            isinstance(t, ast.Name) and t.id == "PRIMITIVE_FIELDS" for t in targets
        ):
            vocab.update(
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return frozenset(vocab)


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map every AST node id to its innermost enclosing function name."""
    owner: dict[int, str] = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(func):
                owner[id(sub)] = func.name
    return owner


def check_compute_tags(project: Project, vocab: frozenset[str]) -> list[FlowFinding]:
    """Every ``Compute`` in the analyzed modules is tagged, legally."""
    findings: list[FlowFinding] = []
    for path in sorted(project.trees):
        tree = project.trees[path]
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Compute"
            ):
                continue
            function = owner.get(id(node), "<module>")
            tag: Optional[ast.expr] = None
            for kw in node.keywords:
                if kw.arg == "tag":
                    tag = kw.value
            if tag is None:
                findings.append(
                    FlowFinding(
                        rule="VER104",
                        path=path,
                        line=node.lineno,
                        function=function,
                        message=(
                            "Compute yielded without a tag; its simulated "
                            "time could not be attributed to any cost "
                            "primitive"
                        ),
                        signature=f"untagged-compute:{function}",
                    )
                )
            elif isinstance(tag, ast.Constant) and isinstance(tag.value, str):
                if tag.value not in vocab:
                    findings.append(
                        FlowFinding(
                            rule="VER104",
                            path=path,
                            line=node.lineno,
                            function=function,
                            message=(
                                f"Compute tag {tag.value!r} is outside the "
                                "declared vocabulary (CostModel fields, "
                                "PRIMITIVE_FIELDS, 'serial'); the what-if "
                                "profiler would drop its time"
                            ),
                            signature=f"unknown-tag:{tag.value}",
                        )
                    )
    return findings


def reachable_ops(project: Project) -> dict[str, tuple[str, int]]:
    """Op kinds yielded anywhere in the analyzed modules (first site)."""
    ops: dict[str, tuple[str, int]] = {}
    for path in sorted(project.trees):
        for node in ast.walk(project.trees[path]):
            if not (isinstance(node, ast.Yield) and node.value is not None):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in OP_CONSTRUCTORS
            ):
                ops.setdefault(value.func.id, (path, node.lineno))
    return ops


def _isinstance_arms(engine_source: str) -> set[str]:
    """Op class names with an ``isinstance`` arm in ``Engine._handle``."""
    arms: set[str] = set()
    tree = ast.parse(engine_source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_handle":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "isinstance"
                    and len(sub.args) == 2
                    and isinstance(sub.args[1], ast.Name)
                ):
                    arms.add(sub.args[1].id)
    return arms


def check_op_conformance(project: Project, engine_source: str) -> list[FlowFinding]:
    """Every op kind the workers actually yield is handled by the engine."""
    findings: list[FlowFinding] = []
    arms = _isinstance_arms(engine_source)
    for op, (path, line) in sorted(reachable_ops(project).items()):
        if op not in arms:
            findings.append(
                FlowFinding(
                    rule="VER104",
                    path=path,
                    line=line,
                    function="<module>",
                    message=(
                        f"op {op} is yielded by reachable worker code but "
                        "has no Engine._handle isinstance arm; its time "
                        "would escape accounting"
                    ),
                    signature=f"unhandled-op:{op}",
                )
            )
    return findings
