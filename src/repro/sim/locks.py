"""Synchronization objects for the discrete-event engine.

These exist for *timing*, not memory safety: worker code between yields is
atomic by construction, but the paper's efficiency losses include real
contention for the shared problem heap and tree (Section 7), so workers
hold these locks across the simulated duration of their critical sections
and the engine accounts the blocked time as interference loss.

:class:`LockOrderGraph` is the deadlock-prevention side of the story: the
engine (and the threaded driver) record every nested acquisition in one
global order graph and abort the run on the first inversion — the same
rule :mod:`repro.verify.racedetect` applies offline to recorded traces.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import SimulationError
from ..obs import probe as _probe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Engine


class SimLock:
    """A FIFO mutex in simulated time.

    Created standalone; the engine attaches itself when a worker first
    touches the lock.  ``holder`` is a worker id or ``None``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.holder: Optional[int] = None
        self.waiters: deque[int] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimLock({self.name!r}, holder={self.holder}, waiting={len(self.waiters)})"


class WorkSignal:
    """A broadcast condition used for "the problem heap is empty" waits.

    Workers block on it via :class:`~repro.sim.ops.WaitWork`; any worker
    that adds work (or declares termination) calls :meth:`notify_all`,
    which wakes every waiter at the current simulated time.  Waits are
    level-triggered on the waiter side: woken workers re-check the heap,
    so spurious wakeups are harmless.
    """

    def __init__(self, name: str = "work") -> None:
        self.name = name
        self.waiters: deque[int] = deque()
        self.version = 0
        self._engine: Optional["Engine"] = None

    def _bind(self, engine: "Engine") -> None:
        if self._engine is None:
            self._engine = engine
        elif self._engine is not engine:
            raise SimulationError(f"signal {self.name!r} used by two engines")

    def notify_all(self) -> None:
        """Wake every blocked waiter at the engine's current time.

        The wake-ups run inside the notifying worker's turn, so the
        engine attributes each one to that worker — the starvation
        hand-off edge :mod:`repro.obs.critpath` follows when a work wait
        sits on the critical path (lock grants are attributed to the
        releasing worker the same way).
        """
        self.version += 1
        p = _probe.CURRENT
        if p is not None:
            p.notify(self.name, self.version)
        if self._engine is None:
            return  # nothing ever waited
        while self.waiters:
            self._engine._wake_from_signal(self.waiters.popleft(), self)


class LockOrderGraph:
    """Global record of nested lock acquisitions.

    ``record(held, acquiring)`` adds one edge ``prior -> acquiring`` per
    lock currently held and returns every held lock that has already
    been observed nested the *other* way round (empty when the
    acquisition is consistent).  Two locks ever taken in both orders
    can deadlock under some interleaving even if this run got away with
    it, so the engine and the threaded driver abort on the first
    (raising :class:`~repro.errors.LockOrderError`) rather than merely
    warn; the offline race detector reports each one.
    """

    def __init__(self) -> None:
        self._after: dict[str, set[str]] = {}

    def _reaches(self, start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            for nxt in self._after.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def record(self, held: Iterable[str], acquiring: str) -> list[str]:
        inverted: list[str] = []
        for prior in held:
            if prior == acquiring:
                continue
            if self._reaches(acquiring, prior):
                inverted.append(prior)
            self._after.setdefault(prior, set()).add(acquiring)
        return inverted
