"""AST lint for the invariants the flow analyser cannot see.

Three rules, each an invariant the rest of the codebase argues from.
Lock discipline, engine op coverage and simulator-protocol conformance
are whole-program properties and live in one place, the flow analyser
(:mod:`repro.verify.flow`, VER101–VER105).  The retired numbers VER001,
VER002, VER003, VER005, VER006 and VER009 are not reused.

* **VER004 — picklable multiproc boundary.**  In the modules of
  :data:`PICKLE_BOUNDARY` (``parallel/multiproc.py`` and its task
  channel ``parallel/channel.py``), every task submitted to an
  executor, every ``target=`` of a process and every worker
  ``initializer=`` must be a module-level function referenced by name,
  never a closure, lambda, or bound method — the spawn start method
  would fail at runtime, and only on platforms that spawn.  A call on
  ``self`` is a class's own method, not a submission.
* **VER007 — eval-parity coverage.**  Every class in ``games/`` that
  implements ``batch_eval`` must be named in
  ``tests/test_eval_differential.py`` — a vectorized evaluator the
  differential battery never exercises could silently diverge from its
  scalar twin, and every search result computed through the batching
  seam would be wrong with all parity gates still green.  ``Protocol``
  classes are declarations, not implementations, and are skipped.
* **VER008 — determinism through clock/RNG seams.**  In the
  deterministic packages (``sim/``, ``core/``, ``obs/``, ``cache/``)
  any ``time.*``/``datetime.*``/``random.*`` attribute reference — call
  or bare — must go through a sanctioned seam (``_CLOCK_SEAMS``): the
  event bus's injectable clock, the span ring's wall clock, and the
  ledger's record timestamp.  The one other allowed reference is a
  seeded ``random.Random(seed)``.  Identical runs must produce
  identical reports, which the determinism tests and the race
  detector's clean-trace gates rely on.

Run as ``python -m repro.verify.staticcheck [root]``, via
``repro-gametree verify``, or through ``tests/test_verify_staticcheck.py``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class LintFinding:
    """One invariant violation found by the static checker."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _batch_eval_classes(source: str, path: str) -> list[tuple[str, int]]:
    """(name, line) of classes in ``source`` defining ``batch_eval``.

    ``Protocol`` classes (structural interfaces such as ``Game``) declare
    the method without implementing it and are skipped.
    """
    tree = ast.parse(source, filename=path)
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(
            (isinstance(base, ast.Name) and base.id == "Protocol")
            or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
            for base in node.bases
        ):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "batch_eval"
            ):
                found.append((node.name, node.lineno))
                break
    return found


def check_eval_parity_coverage(
    game_sources: Iterable[tuple[str, str]], battery_source: str
) -> list[LintFinding]:
    """VER007: the differential battery names every ``batch_eval`` class.

    ``game_sources`` is ``(path, source)`` per module under ``games/``;
    ``battery_source`` is the text of ``tests/test_eval_differential.py``.
    Name presence is textual on purpose: the battery constructs games
    through factories and adapters, so requiring the class name anywhere
    in the file is the strongest check that survives refactors.
    """
    findings: list[LintFinding] = []
    for path, source in game_sources:
        for name, lineno in _batch_eval_classes(source, path):
            if name not in battery_source:
                findings.append(
                    LintFinding(
                        "VER007",
                        path,
                        lineno,
                        f"class {name} implements batch_eval but is never "
                        "named in tests/test_eval_differential.py; its "
                        "vectorized evaluator could diverge from the scalar "
                        "one with every parity gate still green",
                    )
                )
    return findings


#: Packages under ``src/repro`` whose runs must replay identically (VER008).
DETERMINISTIC_PACKAGES = ("sim", "core", "obs", "cache")

#: Sanctioned wall-clock/randomness seams for VER008: (file name,
#: enclosing function, dotted reference).  Each is the single injection
#: point where a real clock may enter — everything downstream takes the
#: value through a parameter or the bus clock and stays replayable.
_CLOCK_SEAMS: frozenset[tuple[str, str, str]] = frozenset(
    {
        ("events.py", "__init__", "time.perf_counter"),
        ("events.py", "use_clock", "time.perf_counter"),
        ("ledger.py", "make_record", "time.time"),
        # The span ring's single wall-clock entry point: every live-trace
        # timestamp flows through it or through an injected clock.
        ("live.py", "wall_clock", "time.perf_counter"),
    }
)


def check_clock_seams(path: str, source: str) -> list[LintFinding]:
    """VER008: wall clock/randomness only through sanctioned seams.

    *Any* ``time.*``/``datetime.*``/``random.*`` attribute reference —
    not just a call — is flagged, because a bare ``time.perf_counter``
    stored as a default clock smuggles nondeterminism just as surely as
    calling it.  ``random.Random`` is allowed only as the callee of a
    call that passes a seed, and the named seams in ``_CLOCK_SEAMS`` are
    the documented injection points.
    """
    findings: list[LintFinding] = []
    tree = ast.parse(source, filename=path)
    name = Path(path).name
    owner: dict[int, str] = {}
    seeded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                owner.setdefault(id(sub), node.name)
        elif isinstance(node, ast.Call) and (node.args or node.keywords):
            seeded.add(id(node.func))
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("time", "datetime", "random")
        ):
            continue
        dotted = f"{node.value.id}.{node.attr}"
        if dotted == "random.Random" and id(node) in seeded:
            continue
        function = owner.get(id(node), "<module>")
        if (name, function, dotted) in _CLOCK_SEAMS:
            continue
        hint = (
            "pass it a seed"
            if dotted == "random.Random"
            else "route it through a sanctioned clock/RNG seam or inject it "
            "as a parameter"
        )
        findings.append(
            LintFinding(
                "VER008",
                path,
                node.lineno,
                f"{dotted} referenced in sim-deterministic code "
                f"({function}); {hint}",
            )
        )
    return findings


#: Modules under ``parallel/`` whose calls ship functions to worker processes.
PICKLE_BOUNDARY = ("multiproc.py", "channel.py")


def check_pickle_boundary(path: str, source: str) -> list[LintFinding]:
    """VER004: what crosses into a worker process must be a module-level function.

    That is the task of an executor submission, a process ``target=``,
    and a worker ``initializer=``.
    """
    findings: list[LintFinding] = []
    tree = ast.parse(source, filename=path)
    module_funcs = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        shipped: list[tuple[str, ast.expr]] = [
            (f"{keyword.arg}=", keyword.value)
            for keyword in node.keywords
            if keyword.arg in ("target", "initializer")
        ]
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "apply_async", "map")
            and node.args
            # ``self.submit(...)`` is the class's own method, not an executor.
            and ast.unparse(node.func.value) != "self"
        ):
            shipped.append(("task", node.args[0]))
        for role, fn in shipped:
            if isinstance(fn, ast.Name) and fn.id in module_funcs:
                continue
            findings.append(
                LintFinding(
                    "VER004",
                    path,
                    node.lineno,
                    f"{role} {ast.unparse(fn)!r} shipped to a worker process is not "
                    "a module-level function; it cannot pickle under spawn",
                )
            )
    return findings


def check_file(
    path: str, source: Optional[str] = None, rules: Optional[set[str]] = None
) -> list[LintFinding]:
    """Run the applicable per-file rules on one file.

    ``rules`` selects rule ids explicitly (e.g. ``{"VER008"}``); when
    omitted they are inferred from the file name the way
    :func:`check_repo` would: the multiproc boundary gets VER004 (its
    coordinator measures wall time), every other file VER008.  VER007 is
    repo-level only — it needs the differential battery — so it never
    runs here.
    """
    if source is None:
        source = Path(path).read_text()
    if rules is None:
        name = Path(path).name
        boundary = "multiproc" in name or name in PICKLE_BOUNDARY
        rules = {"VER004"} if boundary else {"VER008"}
    findings: list[LintFinding] = []
    if "VER004" in rules:
        findings.extend(check_pickle_boundary(path, source))
    if "VER008" in rules:
        findings.extend(check_clock_seams(path, source))
    return findings


def check_repo(root: Optional[str] = None) -> list[LintFinding]:
    """Run every rule over the repository rooted at ``root``.

    ``root`` is the repo root (the directory holding ``src/``); defaults
    to the ancestor of this file.
    """
    base = Path(root) if root is not None else Path(__file__).resolve().parents[3]
    src = base / "src" / "repro"
    if not src.is_dir():
        raise FileNotFoundError(f"not a repo root: {base} (no src/repro)")
    findings: list[LintFinding] = []

    for package in DETERMINISTIC_PACKAGES:
        for path in sorted((src / package).glob("*.py")):
            findings.extend(check_file(str(path), rules={"VER008"}))

    for name in PICKLE_BOUNDARY:
        module = src / "parallel" / name
        if module.exists():
            findings.extend(check_file(str(module), rules={"VER004"}))

    battery = base / "tests" / "test_eval_differential.py"
    if battery.exists():
        game_sources = [
            (str(path), path.read_text())
            for path in sorted((src / "games").rglob("*.py"))
        ]
        findings.extend(
            check_eval_parity_coverage(game_sources, battery.read_text())
        )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the repo, print findings, exit 1 on any."""
    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else None
    findings = check_repo(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)")
        return 1
    print("staticcheck: all invariants hold")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
