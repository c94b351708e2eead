"""Offline race detection over shared-state access traces.

Two complementary analyses run over one event stream (Savage et al.'s
Eraser, and vector-clock happens-before a la FastTrack), because each
catches what the other cannot:

* **Lockset (Eraser)** — every location carries a candidate lockset,
  intersected with the locks held at each access; an empty candidate set
  once the location is written by multiple tasks means no single lock
  protects it.  Lockset analysis catches *discipline* violations even
  when this particular interleaving happened to be ordered (scheduling
  luck is not synchronization).  Its classic false positive — objects
  handed off between owners through a protected queue — is real in this
  codebase: tree nodes are mutated lock-free by the worker that popped
  them, then published back through the locked problem heap.
* **Happens-before (vector clocks)** — lock releases/acquires and
  signal notify/wake edges order events; two conflicting accesses
  unordered by the resulting partial order are a race in *every*
  execution model.  Happens-before correctly blesses the queue handoff
  (the heap lock's release→acquire edge carries the ordering).

Locations therefore declare a policy (:func:`policy_for`): problem-heap
queues, protocol counters, and other lock-disciplined state use both
analyses; per-node tree state (``node:*``), whose ownership transfers
through the heap, uses happens-before only.

Beyond data races the detector reports lock-order inversions (cycles in
the acquisition-order graph — potential deadlocks), releases of unheld
locks, re-acquisition of held locks, and lost-wakeup windows (a task
that blocked on a signal after observing a version the signal had
already moved past).

:func:`self_test` is the detector's *mutation-mode* check: it verifies
the detector on a known-clean synthetic trace, then deletes a lock
acquisition, reorders a release, and injects a stale-version wait, and
fails unless every mutation is flagged.  A detector that cannot see
seeded bugs proves nothing about traces with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import VerificationError
from ..sim.locks import LockOrderGraph
from .trace import ACQUIRE, NOTIFY, READ, RELEASE, WAIT, WAKE, WRITE, Event

#: Location-name prefix whose accesses are checked by happens-before only
#: (ownership transfers through the locked problem heap).
HANDOFF_PREFIX = "node:"

LOCKSET = "lockset"
HAPPENS_BEFORE = "happens-before"
BOTH = "both"


def policy_for(obj: str) -> str:
    """Which analyses apply to the location ``obj``."""
    return HAPPENS_BEFORE if obj.startswith(HANDOFF_PREFIX) else BOTH


@dataclass(frozen=True)
class Finding:
    """One defect the detector is confident about.

    ``kind`` is one of ``data-race``, ``lock-order``, ``unheld-release``,
    ``double-acquire``, ``lost-wakeup``.  ``ordered`` distinguishes a
    lockset violation that this interleaving happened to order (still a
    bug: scheduling is not synchronization) from one observed truly
    concurrent.
    """

    kind: str
    obj: str
    tasks: tuple[int, ...]
    message: str
    ordered: bool = False


@dataclass
class RaceReport:
    """Outcome of analyzing one trace."""

    findings: list[Finding] = field(default_factory=list)
    events: int = 0
    locations: int = 0
    locks: int = 0
    tasks: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = (
            f"{self.events} events, {self.tasks} tasks, {self.locks} locks, "
            f"{self.locations} shared locations: "
        )
        if self.ok:
            return head + "no races, no lock-order inversions, no lost wakeups"
        lines = [head + f"{len(self.findings)} finding(s)"]
        lines += [f"  [{f.kind}] {f.obj}: {f.message}" for f in self.findings]
        return "\n".join(lines)


_VC = dict[int, int]


def _join(into: _VC, other: _VC) -> None:
    for task, clock in other.items():
        if clock > into.get(task, 0):
            into[task] = clock


def _leq(a: _VC, b: _VC) -> bool:
    return all(clock <= b.get(task, 0) for task, clock in a.items())


# Eraser location states.
_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MODIFIED = "shared-modified"


@dataclass
class _Shadow:
    """Per-location analysis state."""

    state: str = _VIRGIN
    owner: int = -1
    lockset: Optional[frozenset[str]] = None
    last_write: Optional[tuple[int, _VC]] = None
    reads: dict[int, _VC] = field(default_factory=dict)
    reported_lockset: bool = False
    reported_hb: bool = False


class RaceDetector:
    """Feed events in trace order; read findings from :meth:`report`."""

    def __init__(self) -> None:
        self._task_vc: dict[int, _VC] = {}
        self._lock_vc: dict[str, _VC] = {}
        self._signal_vc: dict[str, _VC] = {}
        self._held: dict[int, list[str]] = {}
        self._shadow: dict[str, _Shadow] = {}
        self._order = LockOrderGraph()
        self._order_reported: set[frozenset[str]] = set()
        self.findings: list[Finding] = []
        self._events = 0

    # -- bookkeeping -----------------------------------------------------

    def _vc(self, task: int) -> _VC:
        vc = self._task_vc.get(task)
        if vc is None:
            vc = self._task_vc[task] = {task: 1}
            self._held.setdefault(task, [])
        return vc

    def _tick(self, task: int) -> None:
        vc = self._vc(task)
        vc[task] = vc.get(task, 0) + 1

    # -- per-kind handlers ----------------------------------------------

    def _on_acquire(self, ev: Event) -> None:
        held = self._held.setdefault(ev.task, [])
        if ev.obj in held:
            self.findings.append(
                Finding(
                    "double-acquire",
                    ev.obj,
                    (ev.task,),
                    f"task {ev.task} re-acquired non-reentrant lock {ev.obj!r}",
                )
            )
        for prior in self._order.record(held, ev.obj):
            pair = frozenset((prior, ev.obj))
            if pair in self._order_reported:
                continue
            self._order_reported.add(pair)
            self.findings.append(
                Finding(
                    "lock-order",
                    f"{prior} vs {ev.obj}",
                    (ev.task,),
                    f"task {ev.task} acquired {ev.obj!r} while holding "
                    f"{prior!r}, but the opposite order also occurs: "
                    "potential deadlock",
                )
            )
        held.append(ev.obj)
        _join(self._vc(ev.task), self._lock_vc.get(ev.obj, {}))
        self._tick(ev.task)

    def _on_release(self, ev: Event) -> None:
        held = self._held.setdefault(ev.task, [])
        if ev.obj not in held:
            self.findings.append(
                Finding(
                    "unheld-release",
                    ev.obj,
                    (ev.task,),
                    f"task {ev.task} released {ev.obj!r} without holding it "
                    "(reordered or duplicated release)",
                )
            )
        else:
            held.remove(ev.obj)
        self._lock_vc[ev.obj] = dict(self._vc(ev.task))
        self._tick(ev.task)

    def _on_wait(self, ev: Event) -> None:
        if ev.seen_version != ev.version:
            self.findings.append(
                Finding(
                    "lost-wakeup",
                    ev.obj,
                    (ev.task,),
                    f"task {ev.task} blocked on {ev.obj!r} having observed "
                    f"version {ev.seen_version}, but the signal was already "
                    f"at {ev.version}: the wakeup in between is lost",
                )
            )
        self._tick(ev.task)

    def _on_notify(self, ev: Event) -> None:
        sig = self._signal_vc.setdefault(ev.obj, {})
        _join(sig, self._vc(ev.task))
        self._tick(ev.task)

    def _on_wake(self, ev: Event) -> None:
        _join(self._vc(ev.task), self._signal_vc.get(ev.obj, {}))
        self._tick(ev.task)

    def _on_access(self, ev: Event) -> None:
        vc = self._vc(ev.task)
        if ev.relaxed:
            self._tick(ev.task)
            return
        shadow = self._shadow.setdefault(ev.obj, _Shadow())
        apply_lockset = policy_for(ev.obj) in (LOCKSET, BOTH)

        # Happens-before: check against conflicting accesses.
        racy_with: Optional[int] = None
        if ev.kind == WRITE:
            if shadow.last_write is not None:
                w_task, w_vc = shadow.last_write
                if w_task != ev.task and not _leq(w_vc, vc):
                    racy_with = w_task
            for r_task, r_vc in shadow.reads.items():
                if r_task != ev.task and not _leq(r_vc, vc):
                    racy_with = r_task
        else:
            if shadow.last_write is not None:
                w_task, w_vc = shadow.last_write
                if w_task != ev.task and not _leq(w_vc, vc):
                    racy_with = w_task
        if racy_with is not None and not shadow.reported_hb:
            shadow.reported_hb = True
            self.findings.append(
                Finding(
                    "data-race",
                    ev.obj,
                    (racy_with, ev.task),
                    f"tasks {racy_with} and {ev.task} access {ev.obj!r} "
                    "with no happens-before ordering "
                    f"(locks held here: {sorted(self._held.get(ev.task, []))})",
                )
            )

        # Eraser lockset state machine.
        if apply_lockset:
            held_now = frozenset(self._held.get(ev.task, []))
            if shadow.state == _VIRGIN:
                shadow.state = _EXCLUSIVE
                shadow.owner = ev.task
            elif shadow.state == _EXCLUSIVE and ev.task != shadow.owner:
                shadow.state = _SHARED_MODIFIED if ev.kind == WRITE else _SHARED
                shadow.lockset = held_now
            elif shadow.state in (_SHARED, _SHARED_MODIFIED):
                assert shadow.lockset is not None
                shadow.lockset &= held_now
                if ev.kind == WRITE:
                    shadow.state = _SHARED_MODIFIED
            if (
                shadow.state == _SHARED_MODIFIED
                and shadow.lockset is not None
                and not shadow.lockset
                and not shadow.reported_lockset
            ):
                shadow.reported_lockset = True
                ordered = racy_with is None
                self.findings.append(
                    Finding(
                        "data-race",
                        ev.obj,
                        (shadow.owner, ev.task),
                        f"no lock consistently protects {ev.obj!r} "
                        f"(candidate lockset became empty at task {ev.task}; "
                        + (
                            "this interleaving was ordered by luck"
                            if ordered
                            else "accesses were concurrent"
                        )
                        + ")",
                        ordered=ordered,
                    )
                )

        # Update shadow history.
        if ev.kind == WRITE:
            shadow.last_write = (ev.task, dict(vc))
            shadow.reads = {}
        else:
            shadow.reads[ev.task] = dict(vc)
        self._tick(ev.task)

    # -- driving ---------------------------------------------------------

    def feed(self, ev: Event) -> None:
        self._events += 1
        if ev.kind == ACQUIRE:
            self._on_acquire(ev)
        elif ev.kind == RELEASE:
            self._on_release(ev)
        elif ev.kind in (READ, WRITE):
            self._on_access(ev)
        elif ev.kind == WAIT:
            self._on_wait(ev)
        elif ev.kind == NOTIFY:
            self._on_notify(ev)
        elif ev.kind == WAKE:
            self._on_wake(ev)
        else:
            raise VerificationError(f"unknown trace event kind {ev.kind!r}")

    def report(self) -> RaceReport:
        return RaceReport(
            findings=list(self.findings),
            events=self._events,
            locations=len(self._shadow),
            locks=len(self._lock_vc) + sum(len(h) for h in self._held.values()),
            tasks=len(self._task_vc),
        )


def analyze(events: Iterable[Event]) -> RaceReport:
    """Run the full analysis over a trace."""
    detector = RaceDetector()
    for ev in events:
        detector.feed(ev)
    return detector.report()


# ---------------------------------------------------------------------------
# Mutation-mode self-test.
# ---------------------------------------------------------------------------


def _clean_trace() -> list[Event]:
    """Two tasks sharing a counter under lock ``L``, a queue handoff, and
    a correctly versioned signal wait — every analysis has something to
    chew on and none of it is a bug."""
    events: list[Event] = []

    def section(task: int, version: int) -> None:
        events.append(Event(ACQUIRE, task, "L"))
        events.append(Event(READ, task, "counters.jobs"))
        events.append(Event(WRITE, task, "counters.jobs"))
        events.append(Event(WRITE, task, "node:0"))  # handoff under L
        events.append(Event(NOTIFY, task, "work", version=version))
        events.append(Event(RELEASE, task, "L"))

    section(1, 1)
    events.append(Event(WAIT, 2, "work", seen_version=0, version=0))
    events.append(Event(WAKE, 2, "work"))
    section(2, 2)
    section(1, 3)
    return events


def self_test() -> None:
    """Mutation-mode check that the detector can see seeded bugs.

    Raises:
        VerificationError: if the clean trace is flagged, or any of the
            three mutations (deleted acquire, reordered release,
            stale-version wait) goes undetected.
    """
    clean = _clean_trace()
    base = analyze(clean)
    if not base.ok:
        raise VerificationError(
            f"self-test trace should be clean but was flagged:\n{base.summary()}"
        )

    # Mutation 1: delete task 2's lock acquisition — its counter write is
    # now unprotected and must surface as a data race (plus the matching
    # release becomes unheld).
    acquire_idx = next(
        i
        for i, ev in enumerate(clean)
        if ev.kind == ACQUIRE and ev.task == 2 and ev.obj == "L"
    )
    mutated = clean[:acquire_idx] + clean[acquire_idx + 1 :]
    report = analyze(mutated)
    if not any(f.kind == "data-race" for f in report.findings):
        raise VerificationError(
            "mutation mode: deleting an acquire did not produce a data race"
        )

    # Mutation 2: move task 2's release ahead of its critical section.
    release_idx = next(
        i
        for i, ev in enumerate(clean)
        if ev.kind == RELEASE and ev.task == 2 and ev.obj == "L"
    )
    reordered = list(clean)
    release = reordered.pop(release_idx)
    reordered.insert(acquire_idx, release)
    report = analyze(reordered)
    if not any(
        f.kind in ("unheld-release", "data-race") for f in report.findings
    ):
        raise VerificationError(
            "mutation mode: reordering a release went undetected"
        )

    # Mutation 3: block on a version the signal has already moved past.
    stale = list(clean)
    wait_idx = next(i for i, ev in enumerate(stale) if ev.kind == WAIT)
    stale[wait_idx] = Event(WAIT, 2, "work", seen_version=0, version=1)
    report = analyze(stale)
    if not any(f.kind == "lost-wakeup" for f in report.findings):
        raise VerificationError(
            "mutation mode: a stale-version wait went undetected"
        )
