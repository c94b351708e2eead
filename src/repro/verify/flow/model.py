"""Finding model of the whole-program concurrency analyzer.

Every VER1xx diagnostic is a :class:`FlowFinding`: a rule id, a source
location, the function the analysis was inside when it fired, a
human-readable message, and a *signature* — a line-number-independent
digest of what the finding is about.  Fingerprints (rule + path +
function + signature) are what the baseline file stores, so reformatting
a file or adding a docstring never invalidates a suppression, while
moving the offending code to a different function or file does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Rule metadata: id -> (short name, help text).  The SARIF exporter
#: publishes these as ``tool.driver.rules``.
RULES: dict[str, tuple[str, str]] = {
    "VER101": (
        "lockset-imbalance",
        "A lock is acquired/released asymmetrically along some path: a "
        "release without a matching acquire, a re-acquire of a held "
        "non-reentrant lock, branches that disagree on the held set, a "
        "loop that drifts its lockset, an exit while still holding, or a "
        "yield-from delegation entered with locks held.",
    ),
    "VER102": (
        "shared-write-guard",
        "A write to a shared attribute (reachable from the worker's "
        "shared context) happens outside any lock; the set of lock "
        "categories guarding the attribute across all write sites has an "
        "empty intersection — the static twin of an Eraser lockset "
        "violation; or a tree node's attribute is written without the "
        "tree lock.",
    ),
    "VER103": (
        "lock-order-cycle",
        "The statically derived lock-acquisition-order graph contains a "
        "cycle: two locks are (transitively) acquired in both nesting "
        "orders on some interprocedural paths — the static twin of the "
        "runtime LockOrderError.",
    ),
    "VER104": (
        "protocol-conformance",
        "A simulator-protocol totality violation: an op kind reachable "
        "from the workers that has no Engine._handle arm; a Compute yielded "
        "without a cost tag, or with a tag outside the CostModel/"
        "critical-path vocabulary; or a heap critical section that "
        "performs queue work without charging simulated time.",
    ),
    "VER105": (
        "wait-holding-locks",
        "A worker yields WaitWork while holding one or more locks: every "
        "other worker needing that lock starves, and if one of them is "
        "the intended waker the run deadlocks.",
    ),
}


@dataclass(frozen=True)
class FlowFinding:
    """One diagnostic from the interprocedural concurrency analysis."""

    rule: str
    path: str
    line: int
    function: str
    message: str
    signature: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def fingerprint(self) -> str:
        """Stable identity for baselining: independent of line numbers."""
        text = f"{self.rule}|{self.path}|{self.function}|{self.signature}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
