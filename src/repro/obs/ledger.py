"""Persistent run ledger: one JSON record per observed run, plus diffing.

``results/ledger/`` accumulates one record per run — git SHA, seed,
workload, backend, processor count, cost model, and the full
:class:`~repro.obs.snapshot.Snapshot` — so any two points in the repo's
history can be compared.  :func:`compare_records` flags efficiency,
node-count, and critical-path-composition regressions beyond a
tolerance; the ``repro-gametree compare`` subcommand and the failing CI
gate (±10 %, ``[skip-ledger-gate]`` commit-message escape hatch) are
thin wrappers over it.  The simulated backend is deterministic across
machines, which is what makes a *committed* baseline record a
meaningful CI reference.

Records may additionally carry a ``whatif`` array (causal what-if sweep
points from :mod:`repro.obs.whatif`), a ``snapshot.critpath`` block
(flat :meth:`~repro.obs.critpath.CriticalPath.composition`), a
``trace`` block (wall-clock tracing summary of a traced real-backend
run — mode, span count, drops, measured overhead), and a ``latency``
block (the per-stage request decomposition of a ``profile-service``
run); all are optional so older records stay valid.  The service's
throughput is measured by perfbench's ``serve-hot`` workload, not here.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Union

from .snapshot import SIM_UNITS, Snapshot

SCHEMA_VERSION = 1

#: Fields every record's snapshot, and each processor row in it, carries.
_SNAPSHOT_KEYS = (
    "backend", "time_unit", "n_processors", "makespan", "value", "processors", "counters",
    "work", "fractions",
)
_ROW_KEYS = ("pid", "busy", "starvation", "interference", "speculative", "tail_idle", "finish_time")

#: JSON-schema (draft 2020-12 subset) for one ledger record.  Kept in
#: sync with :func:`make_record`; :func:`validate_record` enforces the
#: same structure without requiring the ``jsonschema`` package.
LEDGER_SCHEMA: dict[str, object] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro-gametree run ledger record",
    "type": "object",
    "required": [
        "schema_version",
        "git_sha",
        "created_at",
        "seed",
        "workload",
        "scale",
        "backend",
        "n_processors",
        "cost_model",
        "config",
        "snapshot",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "git_sha": {"type": "string"},
        "created_at": {"type": "number"},
        "seed": {"type": ["integer", "null"]},
        "workload": {"type": "string"},
        "scale": {"type": "string"},
        "backend": {"enum": ["sim", "threaded", "multiproc", "serve"]},
        "n_processors": {"type": "integer", "minimum": 1},
        "cost_model": {"type": "object"},
        "config": {"type": "object"},
        # Optional: causal what-if sweep (repro.obs.whatif), one point per
        # perturbed (primitive, factor) pair.  Absent on pre-critpath
        # records and on runs that skipped the sweep.
        "whatif": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "primitive",
                    "factor",
                    "predicted_makespan",
                    "actual_makespan",
                ],
            },
        },
        # Optional: per-stage latency decomposition (repro.obs.reqtrace),
        # present on "serve"-backend records produced with request
        # tracing.  Stage keys follow repro.serve.traffic.STAGE_ORDER
        # plus the conserved "end_to_end" total; "unattributed" must be
        # present — the remainder is reported, never hidden.
        "latency": {
            "type": "object",
            "required": ["samples", "stages"],
            "properties": {
                "samples": {"type": "integer", "minimum": 0},
                "stages": {
                    "type": "object",
                    "required": ["end_to_end", "unattributed"],
                    "additionalProperties": {
                        "type": "object",
                        "required": ["mean_s", "p50_s", "p95_s", "p99_s"],
                    },
                },
            },
        },
        # Optional: live wall-clock tracing summary (repro.obs.live).
        # Absent on untraced runs and on all simulated-backend records.
        "trace": {
            "type": "object",
            "required": ["mode", "spans", "dropped", "overhead_fraction"],
            "properties": {
                "mode": {"enum": ["off", "sampled", "full"]},
                "spans": {"type": "integer", "minimum": 0},
                "dropped": {"type": "integer", "minimum": 0},
                "overhead_fraction": {"type": "number", "minimum": 0},
            },
        },
        "snapshot": {
            "type": "object",
            "required": list(_SNAPSHOT_KEYS),
            "properties": {
                "time_unit": {"enum": [SIM_UNITS, "seconds"]},
                "makespan": {"type": "number", "minimum": 0},
                # Optional: flat critical-path composition
                # (CriticalPath.composition()); absent pre-critpath.
                "critpath": {"type": "object"},
                "processors": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": list(_ROW_KEYS),
                    },
                },
            },
        },
    },
}

Record = dict[str, object]


#: Suffix of a SHA recorded from a tree whose tracked files differ from it.
DIRTY = "-dirty"


def current_git_sha() -> str:
    """HEAD's SHA, suffixed ``-dirty`` when a tracked file differs from
    HEAD (the record came from uncommitted code), or ``"unknown"``
    outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--exclude=*", "--abbrev=40"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def make_record(
    snap: Snapshot,
    *,
    workload: str,
    scale: str = "reduced",
    seed: Optional[int] = None,
    cost_model: Optional[Mapping[str, object]] = None,
    config: Optional[Mapping[str, object]] = None,
    git_sha: Optional[str] = None,
    whatif: Optional[list[Mapping[str, object]]] = None,
    trace: Optional[Mapping[str, object]] = None,
    latency: Optional[Mapping[str, object]] = None,
) -> Record:
    """Assemble one ledger record from a snapshot plus run identity.

    ``whatif`` — the flat points of a causal sweep
    (:func:`repro.obs.whatif.to_records`) — ``trace`` — the
    wall-clock tracing summary (:func:`trace_block`) — and ``latency``
    — the per-stage decomposition of a search-service run
    (:func:`latency_block`) — are stored
    only when given, so records from runs without them stay
    byte-identical to schema v1.
    """
    record: Record = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "created_at": time.time(),
        "seed": seed,
        "workload": workload,
        "scale": scale,
        "backend": snap.backend,
        "n_processors": snap.n_processors,
        "cost_model": dict(cost_model) if cost_model else {},
        "config": dict(config) if config else {},
        "snapshot": snap.to_dict(),
    }
    if whatif is not None:
        record["whatif"] = [dict(point) for point in whatif]
    if trace is not None:
        record["trace"] = dict(trace)
    if latency is not None:
        record["latency"] = dict(latency)
    return record


def trace_block(mode: str, spans: int, dropped: int, overhead_fraction: float) -> Record:
    """Assemble the optional ``trace`` record block from a traced run.

    Callers typically derive the arguments from a
    :class:`~repro.obs.live.LiveTrace`:  ``len(trace.spans)``,
    ``trace.dropped``, ``trace.overhead_fraction(wall_time)``.
    """
    return {
        "mode": mode,
        "spans": int(spans),
        "dropped": int(dropped),
        "overhead_fraction": float(overhead_fraction),
    }


#: Percentile stats required of every ``latency`` stage entry.
_LATENCY_STATS = ("mean_s", "p50_s", "p95_s", "p99_s")


def latency_block(
    *, samples: int, stages: Mapping[str, Mapping[str, float]]
) -> Record:
    """Assemble the optional ``latency`` record block from a traffic run.

    Callers typically splat :func:`repro.serve.traffic.latency_fields`
    output: ``latency_block(**latency_fields(replies))``.  ``stages``
    must carry the conserved ``end_to_end`` total and the explicit
    ``unattributed`` remainder — validation rejects records that hide
    either.
    """
    return {
        "samples": int(samples),
        "stages": {
            name: {stat: float(row.get(stat, 0.0)) for stat in _LATENCY_STATS}
            for name, row in stages.items()
        },
    }


def validate_record(record: Record) -> list[str]:
    """Structural validation (no external deps); [] when the record is well-formed."""
    problems: list[str] = []
    required = LEDGER_SCHEMA["properties"]
    assert isinstance(required, dict)
    for key in LEDGER_SCHEMA["required"]:  # type: ignore[union-attr]
        if key not in record:
            problems.append(f"missing field: {key}")
    if problems:
        return problems
    if record["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version {record['schema_version']!r} != {SCHEMA_VERSION}")
    if record["backend"] not in ("sim", "threaded", "multiproc", "serve"):
        problems.append(f"unknown backend {record['backend']!r}")
    if not isinstance(record["git_sha"], str):
        problems.append("git_sha must be a string")
    if not (record["seed"] is None or isinstance(record["seed"], int)):
        problems.append("seed must be an integer or null")
    n = record["n_processors"]
    if not isinstance(n, int) or n < 1:
        problems.append(f"n_processors must be a positive integer, got {n!r}")
    snapshot = record["snapshot"]
    if not isinstance(snapshot, dict):
        return problems + ["snapshot must be an object"]
    for key in _SNAPSHOT_KEYS:
        if key not in snapshot:
            problems.append(f"snapshot missing field: {key}")
    if problems:
        return problems
    if snapshot["backend"] != record["backend"]:
        problems.append("snapshot backend disagrees with record backend")
    rows = snapshot["processors"]
    if not isinstance(rows, list):
        problems.append("snapshot processors must be a list")
    else:
        if len(rows) != n:
            problems.append(f"snapshot has {len(rows)} processor rows, expected {n}")
        for row in rows:
            if not isinstance(row, dict):
                problems.append("processor row must be an object")
                continue
            for key in _ROW_KEYS:
                if key not in row:
                    problems.append(f"processor row missing field: {key}")
    whatif = record.get("whatif")
    if whatif is not None:
        if not isinstance(whatif, list):
            problems.append("whatif must be a list")
        else:
            for i, point in enumerate(whatif):
                if not isinstance(point, dict):
                    problems.append(f"whatif[{i}] must be an object")
                    continue
                for key in ("primitive", "factor", "predicted_makespan", "actual_makespan"):
                    if key not in point:
                        problems.append(f"whatif[{i}] missing field: {key}")
    trace = record.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            problems.append("trace must be an object")
        else:
            for key in ("mode", "spans", "dropped", "overhead_fraction"):
                if key not in trace:
                    problems.append(f"trace missing field: {key}")
            if trace.get("mode") not in ("off", "sampled", "full"):
                problems.append(f"unknown trace mode {trace.get('mode')!r}")
            for key in ("spans", "dropped"):
                count = trace.get(key)
                if count is not None and (not isinstance(count, int) or count < 0):
                    problems.append(f"trace {key} must be a non-negative integer")
            overhead = trace.get("overhead_fraction")
            if overhead is not None and (
                not isinstance(overhead, (int, float)) or overhead < 0
            ):
                problems.append("trace overhead_fraction must be a non-negative number")
    latency = record.get("latency")
    if latency is not None:
        if not isinstance(latency, dict):
            problems.append("latency must be an object")
        else:
            samples = latency.get("samples")
            if not isinstance(samples, int) or samples < 0:
                problems.append("latency samples must be a non-negative integer")
            stages = latency.get("stages")
            if not isinstance(stages, dict):
                problems.append("latency stages must be an object")
            else:
                for required_stage in ("end_to_end", "unattributed"):
                    if required_stage not in stages:
                        problems.append(
                            f"latency stages missing {required_stage!r} — the "
                            "decomposition must report its total and remainder"
                        )
                for stage, row in stages.items():
                    if not isinstance(row, dict):
                        problems.append(f"latency stage {stage!r} must be an object")
                        continue
                    for stat in _LATENCY_STATS:
                        value = row.get(stat)
                        if not isinstance(value, (int, float)) or value < 0:
                            problems.append(
                                f"latency stage {stage!r} {stat} must be a "
                                "non-negative number"
                            )
    snap = Snapshot.from_dict(snapshot)
    problems.extend(snap.check_accounting())
    return problems


def record_name(record: Record) -> str:
    """Deterministic filename stem for a record."""
    sha = str(record.get("git_sha", "unknown"))[:10] or "unknown"
    return (
        f"{record['backend']}_{record['workload']}_P{record['n_processors']}_{sha}"
    )


def write_record(record: Record, directory: Union[str, Path], name: Optional[str] = None) -> Path:
    """Persist a record under ``directory`` (created if needed); returns the path."""
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"{name or record_name(record)}.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def load_record(path: Union[str, Path]) -> Record:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: ledger record must be a JSON object")
    return data


def find_by_sha(directory: Union[str, Path], sha_prefix: str) -> Record:
    """Newest record in ``directory`` whose git SHA starts with ``sha_prefix``."""
    matches: list[Record] = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = load_record(path)
        except (ValueError, json.JSONDecodeError):
            continue
        if str(record.get("git_sha", "")).startswith(sha_prefix):
            matches.append(record)
    if not matches:
        raise FileNotFoundError(f"no ledger record in {directory} with SHA prefix {sha_prefix!r}")
    return max(matches, key=lambda r: float(r.get("created_at", 0.0)))  # type: ignore[arg-type]


def resolve(spec: str, ledger_dir: Union[str, Path]) -> Record:
    """Turn a compare operand — file path or git SHA prefix — into a record."""
    path = Path(spec)
    if path.is_file():
        return load_record(path)
    return find_by_sha(ledger_dir, spec)


@dataclass
class CompareReport:
    """Outcome of diffing a candidate run against a baseline run."""

    baseline: str
    candidate: str
    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [f"compare: {self.baseline} -> {self.candidate}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for item in self.improvements:
            lines.append(f"  improved: {item}")
        for item in self.regressions:
            lines.append(f"  REGRESSION: {item}")
        if self.ok:
            lines.append("  no regressions")
        return "\n".join(lines)


def _ident(record: Record) -> str:
    full = str(record.get("git_sha", "unknown"))
    sha = full[:10] + (DIRTY if full.endswith(DIRTY) else "")
    return f"{record['backend']}/{record['workload']}/P{record['n_processors']}@{sha}"


def _rel_change(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def compare_records(
    baseline: Record, candidate: Record, *, tolerance: float = 0.05
) -> CompareReport:
    """Diff two ledger records; regressions are changes for the worse.

    Checked, in order of severity:

    * **value** — the negmax root value must match exactly (the protocol
      is deterministic on every backend);
    * **work counters** — ``nodes_examined``, ``leaf_evals``, ``cost``
      growing by more than ``tolerance`` (relative);
    * **makespan** — growing by more than ``tolerance`` (relative; for
      wall-clock backends this is noisy — the failing CI gate compares
      simulated records only, where makespan is exactly reproducible);
    * **loss fractions** — starvation / interference / speculative
      fractions growing by more than ``tolerance`` (absolute, since they
      are already normalized);
    * **critical-path composition** — when both snapshots carry a
      ``critpath`` block, each primitive's share of the makespan growing
      by more than ``tolerance`` (absolute).  A record without critpath
      data (pre-critpath baseline) is noted, not flagged;
    * **latency stages** — when both records carry a ``latency`` block,
      each stage's p99 growing by more than ``tolerance`` (relative).

    Shrinking any of those is reported as an improvement, never a
    regression.
    """
    report = CompareReport(baseline=_ident(baseline), candidate=_ident(candidate))
    for key in ("backend", "workload", "n_processors", "scale"):
        if baseline.get(key) != candidate.get(key):
            report.notes.append(
                f"{key} differs: {baseline.get(key)!r} vs {candidate.get(key)!r}"
            )
    base_snap = Snapshot.from_dict(baseline["snapshot"])  # type: ignore[arg-type]
    cand_snap = Snapshot.from_dict(candidate["snapshot"])  # type: ignore[arg-type]

    if base_snap.value != cand_snap.value:
        report.regressions.append(
            f"root value changed: {base_snap.value!r} -> {cand_snap.value!r}"
        )

    for counter in ("nodes_examined", "leaf_evals", "cost"):
        old = base_snap.work.get(counter, 0.0)
        new = cand_snap.work.get(counter, 0.0)
        change = _rel_change(old, new)
        if change > tolerance:
            report.regressions.append(f"{counter}: {old:g} -> {new:g} (+{change:.1%})")
        elif change < -tolerance:
            report.improvements.append(f"{counter}: {old:g} -> {new:g} ({change:.1%})")

    change = _rel_change(base_snap.makespan, cand_snap.makespan)
    unit = base_snap.time_unit
    if change > tolerance:
        report.regressions.append(
            f"makespan ({unit}): {base_snap.makespan:g} -> {cand_snap.makespan:g} (+{change:.1%})"
        )
    elif change < -tolerance:
        report.improvements.append(
            f"makespan ({unit}): {base_snap.makespan:g} -> {cand_snap.makespan:g} ({change:.1%})"
        )

    for name, old, new in (
        ("starvation_fraction", base_snap.starvation_fraction, cand_snap.starvation_fraction),
        (
            "interference_fraction",
            base_snap.interference_fraction,
            cand_snap.interference_fraction,
        ),
        ("speculative_fraction", base_snap.speculative_fraction, cand_snap.speculative_fraction),
    ):
        delta = new - old
        if delta > tolerance:
            report.regressions.append(f"{name}: {old:.4f} -> {new:.4f} (+{delta:.4f})")
        elif delta < -tolerance:
            report.improvements.append(f"{name}: {old:.4f} -> {new:.4f} ({delta:+.4f})")

    _compare_critpath(report, base_snap.critpath, cand_snap.critpath, tolerance)
    _compare_latency(report, baseline.get("latency"), candidate.get("latency"), tolerance)
    return report


def _critpath_shares(composition: Mapping[str, float]) -> dict[str, float]:
    """Per-primitive share of the makespan from a flat critpath block."""
    makespan = composition.get("makespan", 0.0)
    if makespan <= 0:
        return {}
    prefix = "primitive."
    return {
        key[len(prefix) :]: value / makespan
        for key, value in composition.items()
        if key.startswith(prefix)
    }


def _compare_critpath(
    report: CompareReport,
    base: Mapping[str, float],
    cand: Mapping[str, float],
    tolerance: float,
) -> None:
    """Diff critical-path composition; shares are absolute-delta checked."""
    if not base and not cand:
        return
    if not base:
        report.notes.append("baseline has no critical-path data; composition not compared")
        return
    if not cand:
        report.notes.append("candidate has no critical-path data; composition not compared")
        return
    base_shares = _critpath_shares(base)
    cand_shares = _critpath_shares(cand)
    for primitive in sorted(base_shares.keys() | cand_shares.keys()):
        old = base_shares.get(primitive, 0.0)
        new = cand_shares.get(primitive, 0.0)
        delta = new - old
        label = f"critpath share {primitive}"
        if delta > tolerance:
            report.regressions.append(f"{label}: {old:.4f} -> {new:.4f} (+{delta:.4f})")
        elif delta < -tolerance:
            report.improvements.append(f"{label}: {old:.4f} -> {new:.4f} ({delta:+.4f})")


#: Floor under the latency-stage p99 comparison, in seconds.  Stages
#: whose tails sit under this on both sides are scheduler-hop noise —
#: a 0.2 ms → 0.5 ms jump is a 150 % "regression" that means nothing.
_LATENCY_FLOOR_S = 1e-3


def _compare_latency(
    report: CompareReport,
    base: Optional[object],
    cand: Optional[object],
    tolerance: float,
) -> None:
    """Diff per-stage latency decompositions when both records carry one.

    A stage's p99 growing beyond ``tolerance`` (relative) is a
    regression — this is what catches "queue_wait doubled" even when the
    end-to-end p99 moved within tolerance.  Stages under
    :data:`_LATENCY_FLOOR_S` on both sides are skipped as noise; a
    record without a latency block (pre-tracing baseline) is noted, not
    flagged.
    """
    if not isinstance(base, dict) and not isinstance(cand, dict):
        return
    if not isinstance(base, dict):
        report.notes.append("baseline has no latency decomposition; stages not compared")
        return
    if not isinstance(cand, dict):
        report.notes.append("candidate has no latency decomposition; stages not compared")
        return
    base_stages = base.get("stages")
    cand_stages = cand.get("stages")
    if not isinstance(base_stages, dict) or not isinstance(cand_stages, dict):
        return
    for stage in sorted(base_stages.keys() & cand_stages.keys()):
        base_row = base_stages.get(stage)
        cand_row = cand_stages.get(stage)
        if not isinstance(base_row, dict) or not isinstance(cand_row, dict):
            continue
        old = float(base_row.get("p99_s", 0.0))
        new = float(cand_row.get("p99_s", 0.0))
        if old < _LATENCY_FLOOR_S and new < _LATENCY_FLOOR_S:
            continue
        change = _rel_change(old, new)
        label = f"latency stage {stage} p99_s"
        if change > tolerance:
            report.regressions.append(f"{label}: {old:g} -> {new:g} (+{change:.1%})")
        elif change < -tolerance:
            report.improvements.append(f"{label}: {old:g} -> {new:g} ({change:.1%})")


def _series_point(summary: Record) -> Record:
    """One per-PR sample for the makespan/nodes/efficiency series."""
    fractions = summary.get("fractions")
    work = summary.get("work")
    efficiency = fractions.get("busy") if isinstance(fractions, dict) else None
    nodes = work.get("nodes_examined") if isinstance(work, dict) else None
    return {
        "git_sha": summary.get("git_sha"),
        "created_at": summary.get("created_at"),
        "makespan": summary.get("makespan"),
        "nodes": nodes,
        "efficiency": efficiency,
    }


def aggregate(directory: Union[str, Path], out_path: Optional[Union[str, Path]] = None) -> Record:
    """Summarize every record in ``directory`` into one ``BENCH_obs.json`` payload.

    Besides the flat per-record summaries, the payload carries one
    ``series`` entry per (backend, workload, scale, P) configuration:
    the records of that configuration ordered by ``created_at``, reduced
    to {git_sha, created_at, makespan, nodes, efficiency} — the per-PR
    trend lines CI appends to across commits.
    """
    summaries: list[Record] = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = load_record(path)
        except (ValueError, json.JSONDecodeError):
            continue
        snapshot = record.get("snapshot")
        if not isinstance(snapshot, dict):
            continue
        summary: Record = {
            "file": path.name,
            "backend": record.get("backend"),
            "workload": record.get("workload"),
            "scale": record.get("scale"),
            "seed": record.get("seed"),
            "n_processors": record.get("n_processors"),
            "git_sha": record.get("git_sha"),
            "created_at": record.get("created_at"),
            "makespan": snapshot.get("makespan"),
            "time_unit": snapshot.get("time_unit"),
            "value": snapshot.get("value"),
            "fractions": snapshot.get("fractions"),
            "work": snapshot.get("work"),
        }
        critpath = snapshot.get("critpath")
        if isinstance(critpath, dict) and critpath:
            summary["critpath"] = critpath
        if record.get("whatif") is not None:
            summary["whatif"] = record.get("whatif")
        if record.get("latency") is not None:
            summary["latency"] = record.get("latency")
        summaries.append(summary)
    series: dict[str, list[Record]] = {}
    for summary in summaries:
        key = (
            f"{summary.get('backend')}/{summary.get('workload')}"
            f"/{summary.get('scale')}/P{summary.get('n_processors')}"
        )
        series.setdefault(key, []).append(_series_point(summary))
    for points in series.values():
        points.sort(key=lambda p: (float(p.get("created_at") or 0.0), str(p.get("git_sha"))))
    ledger_dir = Path(directory)
    try:
        # Relative paths keep the aggregate portable across checkouts.
        ledger_dir = ledger_dir.resolve().relative_to(Path.cwd())
    except ValueError:
        pass
    payload: Record = {
        "schema_version": SCHEMA_VERSION,
        "ledger_dir": str(ledger_dir),
        "n_records": len(summaries),
        "records": summaries,
        "series": {key: series[key] for key in sorted(series)},
    }
    if out_path is not None:
        target = Path(out_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return payload
