"""Shared-state escape analysis: write-site aggregation (VER102).

The interpreter (:mod:`.lockset`) seeds sharedness from the worker
entry points' ``ctx`` parameter and propagates it through attribute
chains, subscripts, tuple unpacking, and call summaries — every object
reachable from the run context (tree nodes popped off the problem heap,
the queues, the cache stripes) is *shared*; locals derived only from
worker-private values (``stats``, ``pid``, loop counters) are not.

Every write to an attribute of a shared object is recorded here as a
:class:`WriteRecord` carrying the *lock categories* held at the write
site.  Per write **location** (a class-qualified attribute name, or a
keyed counter slot like ``_Context.counters[pops_primary]``) the
candidate guard set is the intersection of the category sets across all
of its write sites — the static Eraser discipline.  Three failure modes:

* an **unguarded** write (empty category set at some site);
* an **inconsistent** location (non-empty sets whose intersection is
  empty: e.g. set under the tree lock here, cleared under the heap lock
  there — exactly the shape of the historical ``on_spec`` race); and
* a **tree node written off the tree lock**: the one guard the
  protocol fixes in advance (DESIGN.md §6).  A write through an object
  other than the writer's receiver or run context is a write to a tree
  node, and must hold the ``tree`` category even when it is the
  location's only write site (``ctx.combine`` called under the heap
  lock alone).

Lock *categories* (not raw tokens) are intersected so that the
distributed heap's per-processor locks, the central heap lock, and a
stolen victim's lock all count as the same "heap" guard — any of them
serializes the counter they protect with the popping path that reads
it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import FlowFinding


@dataclass(frozen=True)
class WriteRecord:
    """One write to a shared attribute, with the guards held at the site.

    ``node`` marks a write through an object other than the writer's
    receiver or run context: a shared tree node, whose state the tree
    lock guards.
    """

    location: str
    path: str
    line: int
    function: str
    categories: frozenset[str]
    node: bool = False


def _finding(site: WriteRecord, message: str, signature: str) -> FlowFinding:
    return FlowFinding(
        rule="VER102",
        path=site.path,
        line=site.line,
        function=site.function,
        message=message,
        signature=signature,
    )


def aggregate_writes(records: list[WriteRecord]) -> list[FlowFinding]:
    """Intersect guard categories per location; emit VER102 findings."""
    findings: list[FlowFinding] = []
    by_location: dict[str, list[WriteRecord]] = {}
    for record in records:
        by_location.setdefault(record.location, []).append(record)
    for location in sorted(by_location):
        sites = sorted(by_location[location], key=lambda r: (r.path, r.line))
        for site in sites:
            if not site.categories:
                findings.append(
                    _finding(
                        site,
                        f"shared attribute {location!r} is written with no "
                        f"lock held in {site.function}()",
                        f"unguarded:{location}",
                    )
                )
        guarded = [site for site in sites if site.categories]
        if not guarded:
            continue
        candidates = frozenset.intersection(*(site.categories for site in guarded))
        if candidates:
            # Some guard covers every write site; a node's must be the
            # tree lock, even when a single site makes it "consistent".
            for site in guarded:
                if site.node and "tree" not in site.categories:
                    held = "+".join(sorted(site.categories))
                    findings.append(
                        _finding(
                            site,
                            f"tree-node attribute {location!r} is written "
                            f"under [{held}] in {site.function}() without the "
                            "tree lock, which guards all node state",
                            f"node-off-tree:{location}:{held}",
                        )
                    )
            continue
        guards = sorted(
            {f"{site.function}:{'+'.join(sorted(site.categories))}" for site in guarded}
        )
        for site in guarded:
            held = "+".join(sorted(site.categories))
            findings.append(
                _finding(
                    site,
                    f"shared attribute {location!r} has no consistent "
                    f"guard: written under [{held}] in {site.function}() "
                    f"but the candidate lockset across all sites is "
                    f"empty ({', '.join(guards)})",
                    f"inconsistent:{location}:{held}",
                )
            )
    return findings
